"""Tests of the benchmark itself (not of dietchain).

Run from the root of a checkout with ``python3 -m pytest bench``. The
traced-count check runs each workload at a small size in two processes
with different hash seeds and requires identical counts.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.load_program(), "run the benchmark tests from a full checkout"

import pace as pace_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from dietchain import crypto, full_node, scenario  # noqa: E402

SMALL = {
    "grow": "workloads.GrowSize(height=60, prefix=3, setups=1)",
    "diet-serve": "workloads.DietSize(k_target=5, warm=6, cold=2, tail=3, setups=1)",
    "scenario-scale": "workloads.ScenarioSize(blocks=24, clients=3, setups=1, warmup_blocks=3)",
}

COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
assert run.load_program()
import workloads
plain, traced, _, metrics = run.traced_run({workload!r}, 11, {size})
assert plain.correct and traced.correct, plain.problems + traced.problems
print(json.dumps({{k: v for k, (v, unit) in metrics.items() if unit not in ("s", "ratio")}}))
"""


def _counts(workload: str, hash_seed: str) -> dict:
    code = COUNT_SCRIPT.format(bench=str(BENCH), workload=workload, size=SMALL[workload])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_exactly(workload):
    first = _counts(workload, "1")
    second = _counts(workload, "2")
    assert first == second
    assert first["crypto.hash256.calls"] > 0 and first["trace.spans"] > 0


def test_traced_run_restores_every_binding():
    before = (crypto.hash256, scenario.mine_on, full_node.FullNode.connect_block)
    size = eval(SMALL["grow"])
    _, traced, tracer, metrics = run.traced_run("grow", 5, size)
    assert traced.correct
    assert (crypto.hash256, scenario.mine_on, full_node.FullNode.connect_block) == before
    assert metrics["full_node.reorgs"][0] >= 1
    assert metrics["full_node.reorg_depth_max"][0] == 1
    assert metrics["miner.pow.attempts_per_block"][0] > 1
    requests = {span[4] for span in tracer.spans}
    assert None not in requests and len(requests) > 10


def test_self_time_subtracts_child_spans():
    t = tracer_mod.Tracer()
    t.spans = [
        ["miner.mine_on", 0, 100, -1, 1, None],
        ["full_node.connect_block", 10, 40, 0, 1, ("accepted", 4)],
        ["utxo.clone", 15, 25, 1, 1, None],
        ["full_node.connect_block", 50, 60, 0, 1, ("branch", 5)],
    ]
    m = t.layer_metrics()
    assert m["miner.mine_on.s"][0] == pytest.approx(100e-9)
    assert m["miner.mine_on.self_s"][0] == pytest.approx(60e-9)
    assert m["full_node.connect_block.s"][0] == pytest.approx(40e-9)
    assert m["full_node.connect_block.self_s"][0] == pytest.approx(30e-9)
    assert m["full_node.connect_block.calls.accepted"][0] == 1
    assert m["full_node.connect_block.calls.branch"][0] == 1


def test_end_to_end_figures_pool_every_repetition():
    outcome = workloads.Outcome(reps=[[10.0, 40.0, 5.0], [30.0, 20.0, 7.0]],
                                units=6, p50_ops=2)
    assert outcome.op_ms_p50() == 25.0
    assert outcome.ops_per_s() == pytest.approx(12 / 0.112)


def test_pace_rescales_by_the_harmonic_mean_of_nearby_samples():
    p = pace_mod.Pace()
    p.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    p.took = [1e-3, 1e-3, 0.25e-3, 0.5e-3, 0.5e-3, 0.25e-3]
    assert p.ms(2.0, 2.01) == pytest.approx(10.0)  # not sampling: raw
    p.running = True
    nominal = pace_mod.REFERENCE_MS
    # Samples from 2.0 to 5.0 (four at least): harmonic mean 1/3 ms.
    assert p.ms(2.0, 5.0) == pytest.approx(3000 * nominal / (1 / 3))
    # A short span takes the latest four samples up to its end.
    assert p.ms(3.5, 3.51) == pytest.approx(10 * nominal / 0.5)


def test_pace_sampling_restores_the_alarm_handler():
    p = pace_mod.Pace()
    before = signal.getsignal(signal.SIGALRM)
    with p.sampling():
        start = p.now()
        while p.now() - start < 0.05:
            pace_mod.reference()
        assert p.running and len(p.took) > pace_mod.PRIME
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert not p.running


def test_oracle_gate_catches_a_lost_coin():
    g = workloads._Grow(3, workloads.GrowSize(prefix=0))
    outcome = workloads.Outcome()
    for _ in range(4):
        g.step(outcome, workloads.NoTrace(), record=True)
    workloads.check_store_matches_oracle(outcome, "miner", g.miner)
    assert outcome.correct
    shard = next(s for s in g.miner.utxo.shards.values() if s)
    shard.pop()
    workloads.check_store_matches_oracle(outcome, "miner", g.miner)
    assert not outcome.correct


def test_verdict_gate_counts_a_wrong_verdict(monkeypatch):
    size = eval(SMALL["diet-serve"])
    diet_class = workloads.diet_node.DietNode
    fallback = workloads.diet_node.VerifyOutcome("fallback")
    monkeypatch.setattr(diet_class, "verify_blocks_up_to", lambda self, last: fallback)
    outcome = workloads.diet_serve(4, None, size=size, setups=1)
    assert outcome.failed == size.warm and outcome.attempted == size.warm + size.cold
    assert not outcome.correct


def test_expectation_gate_counts_a_failed_expectation(monkeypatch):
    size = eval(SMALL["scenario-scale"])
    generate = workloads.scenario_config

    def with_impossible_check(seed, sz):
        cfg = generate(seed, sz)
        if sz == size:
            cfg["expect"].append({"check": "tip_height", "node": "full-1", "height": -1})
        return cfg

    monkeypatch.setattr(workloads, "scenario_config", with_impossible_check)
    outcome = workloads.scenario_scale(4, None, size=size, setups=1)
    assert outcome.failed == 1 and not outcome.correct


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert len(spec["per_layer"]) <= 128


def test_command_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grow", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert "correct" not in out.stdout
