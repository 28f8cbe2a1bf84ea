"""The benchmark reaches into the package by name: its tracer wraps
package functions and methods, and its workloads read module constants
and store attributes. A rename or deletion in ``src/`` breaks the bench
run, so this pins every name ``bench/tracer.py`` resolves when it
installs and every package name ``bench/workloads.py`` reads."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from conftest import key_of, mined_node

from dietchain.chain import MIN_SIZE_CAP, ChainParams

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


def test_every_module_attribute_the_workloads_name_exists():
    """Each ``<module>.<name>`` in ``bench/workloads.py`` whose module it
    imports from the package, ``netsim.MSG_*`` of ``MESSAGE_NAMES`` among them."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dietchain"
               for alias in node.names}
    named = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("netsim", "MSG_QUERY_UTXO_MROOT") in named
    missing = sorted(f"dietchain.{module}.{attr}" for module, attr in named
                     if not _has(module, None, attr))
    assert not missing, f"bench/workloads.py names attributes the package lacks: {missing}"


def test_the_store_reads_of_the_workloads_work_on_a_store_that_has_split():
    """``bench/workloads.py`` reads these off a node's store: the split
    heights from ``touched_log``, the split count, the kept versions,
    the coins and the root."""
    params = ChainParams(target_bits=5, subsidy=50, size_cap=MIN_SIZE_CAP, initial_k=0)
    store = mined_node(params, key_of("alice"), 4, seed=40).utxo
    rebalanced = frozenset(h for h, rec in store.touched_log.items() if rec.rebalanced)
    assert rebalanced
    assert all(type(rec.rebalanced) is bool for rec in store.touched_log.values())
    assert len(store.rebalance_log) >= len(rebalanced)
    assert sum(len(v) for v in store.versions.values()) > 0
    assert len(list(store.all_coins())) == 4
    assert len(store.utxo_root()) == 32
