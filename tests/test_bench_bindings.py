"""The benchmark reaches into the package by name: its tracer wraps
package functions and methods, and its workloads and its own tests read
module constants and store attributes. A rename or deletion in ``src/``
breaks the bench run, so this pins every name ``bench/tracer.py``
resolves when it installs and every package name ``bench/workloads.py``
and ``bench/test_bench.py`` read."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import key_of, mined_node

from dietchain.chain import MIN_SIZE_CAP, ChainParams
from dietchain.scenario import load_config

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _has(module: str, cls: str | None, attr: str) -> bool:
    """Whether the binding resolves as ``Tracer.install`` looks it up:
    a module attribute, or an attribute defined on the class itself."""
    owner = importlib.import_module(f"dietchain.{module}")
    if cls is None:
        return hasattr(owner, attr)
    owner = getattr(owner, cls, None)
    return owner is not None and attr in owner.__dict__


def test_every_binding_the_tracer_wraps_exists():
    tracer = _load_tracer()
    wanted = [(module, cls, attr) for module, cls, attr, _ in tracer.SPANS]
    wanted += [(module, None, attr) for module, attr, _ in tracer.COUNTED]
    wanted += [("chain", None, attr) for attr in tracer.CODEC_FUNCTIONS]
    wanted += [("crypto", "BloomFilter", attr) for attr in ("add", "may_contain")]
    missing = [".".join(p for p in ("dietchain", module, cls, attr) if p)
               for module, cls, attr in wanted if not _has(module, cls, attr)]
    assert not missing, f"bench/tracer.py wraps bindings the package lacks: {missing}"


def _package_modules(tree: ast.Module) -> set[str]:
    """The package modules a file imports as ``from dietchain import ...``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "dietchain"
            for alias in node.names}


def _named_chains(name: str, via: dict[str, set[str]]) -> set[tuple[str, ...]]:
    """Each dotted name in ``bench/<name>`` that starts at a package module
    the file imports, or at ``<bench module>.<package module>`` for a
    bench module in ``via`` (with the package modules it imports): the
    package module, then the attributes read off it."""
    tree = ast.parse((ROOT / "bench" / name).read_text())
    modules = _package_modules(tree)
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and attrs and attrs[0] in via.get(node.id, ()):
            chains.add(tuple(attrs))
        elif isinstance(node, ast.Name) and attrs and node.id in modules:
            chains.add((node.id, *attrs))
    return chains


def _missing(chains: set[tuple[str, ...]]) -> list[str]:
    """The chains that do not resolve, as dotted names."""
    missing = []
    for module, *attrs in chains:
        owner = importlib.import_module(f"dietchain.{module}")
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(".".join(("dietchain", module, *attrs)))
                break
            owner = getattr(owner, attr)
    return sorted(missing)


def test_every_module_attribute_the_workloads_name_exists():
    """Each ``<module>.<name>...`` in ``bench/workloads.py`` whose module it
    imports from the package, ``netsim.MSG_*`` of ``MESSAGE_NAMES`` among them."""
    named = _named_chains("workloads.py", {})
    assert ("netsim", "MSG_QUERY_UTXO_MROOT") in named
    missing = _missing(named)
    assert not missing, f"bench/workloads.py names attributes the package lacks: {missing}"


def test_every_package_name_the_bench_tests_read_exists():
    """Each ``<module>.<name>...`` in ``bench/test_bench.py`` whose module
    it imports from the package, and each ``workloads.<module>.<name>...``
    whose module ``bench/workloads.py`` imports from it."""
    workloads = _package_modules(ast.parse((ROOT / "bench" / "workloads.py").read_text()))
    named = _named_chains("test_bench.py", via={"workloads": workloads})
    assert {("crypto", "hash256"), ("scenario", "mine_on"),
            ("full_node", "FullNode", "connect_block"),
            ("diet_node", "VerifyOutcome")} <= named
    missing = _missing(named)
    assert not missing, f"bench/test_bench.py names attributes the package lacks: {missing}"


def test_the_store_reads_of_the_workloads_work_on_a_store_that_has_split():
    """``bench/workloads.py`` reads these off a node's store: the split
    heights from ``touched_log``, the split count, the kept versions,
    the coins and the root; ``bench/test_bench.py`` pops a coin off a
    shard, a list, and expects ``all_coins`` to lose it."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=MIN_SIZE_CAP, initial_k=0)
    store = mined_node(params, key_of("alice"), 4, seed=40).utxo
    rebalanced = frozenset(h for h, rec in store.touched_log.items() if rec.rebalanced)
    assert rebalanced
    assert all(type(rec.rebalanced) is bool for rec in store.touched_log.values())
    assert len(store.rebalance_log) >= len(rebalanced)
    assert sum(len(v) for v in store.versions.values()) > 0
    assert len(list(store.all_coins())) == 4
    assert len(store.utxo_root()) == 32
    assert 1 << store.k <= len(store.shards) < 2 << store.k  # k: log2 of the leaf count
    assert all(type(coins) is list for coins in store.shards.values())
    popped = next(coins for coins in store.shards.values() if coins).pop()
    assert popped not in set(store.all_coins()) and len(list(store.all_coins())) == 3


@pytest.mark.parametrize("seed", [1, 7, 9001])
def test_the_bench_scenario_is_a_valid_config(monkeypatch, seed):
    """The scale workload runs ``load_config`` on the scenario it
    generates, and on its smaller warm-up; a check that refused either
    would turn the workload into a config error."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    size = workloads.ScenarioSize()
    for cfg in (workloads.scenario_config(seed, size),
                workloads.scenario_config(seed, workloads.ScenarioSize(
                    blocks=size.warmup_blocks, clients=2))):
        assert load_config(cfg) is cfg
