from __future__ import annotations

import gc
import hashlib
import json
import sys
import weakref
from pathlib import Path

import pytest

from dietchain import cli, scenario
from dietchain.errors import ScenarioError
from dietchain.scenario import (
    derive_key,
    load_config,
    render_report,
    render_trace,
    run_scenario,
)

BASE = {
    "name": "mini",
    "seed": 9,
    "target_bits": 5,
    "keys": ["alice", "carol"],
    "nodes": [
        {"id": "full-1", "role": "full"},
        {"id": "carol-node", "role": "diet", "keys": ["carol"],
         "max_depth": 8, "max_length": 2, "peer": "full-1"},
    ],
    "script": [
        {"action": "mine", "node": "full-1", "reward": "alice", "count": 3},
        {"action": "pay", "label": "p1", "from": "alice", "to": "carol",
         "amount": 10, "node": "full-1"},
        {"action": "mine", "node": "full-1", "reward": "alice"},
        {"action": "update", "nodes": ["carol-node"]},
    ],
    "expect": [
        {"check": "tip_height", "node": "full-1", "height": 3},
        {"check": "verdict", "node": "carol-node", "tx": "p1",
         "status": "diet-verified"},
    ],
}


def _cfg(**overrides) -> dict:
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    return cfg


def test_every_bundled_scenario_passes():
    bundled = cli.bundled_scenarios()
    assert len(bundled) == 7
    for name, text in sorted(bundled.items()):
        run = run_scenario(json.loads(text))
        assert run.passed, f"{name}: {run.report['expectations']}"


def test_a_dropped_run_frees_its_bus_and_nodes_without_the_cycle_collector():
    """No reference cycle keeps a finished run alive: with the cycle
    collector off, dropping each bundled scenario's run frees its bus and
    every full and diet node on it."""
    gc.disable()
    try:
        for name, text in sorted(cli.bundled_scenarios().items()):
            run = run_scenario(json.loads(text))
            state = run.state
            refs = [weakref.ref(state.bus), *map(weakref.ref, state.full_nodes.values()),
                    *(weakref.ref(service.diet) for service in state.diet_services.values())]
            del run, state
            assert sum(ref() is not None for ref in refs) == 0, name
    finally:
        gc.enable()


DIGESTS_FILE = Path(__file__).parent / "golden" / "digests.json"
GOLDEN = json.loads(DIGESTS_FILE.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bundled_digests() -> dict:
    """The sha256 of the report and of the trace of every bundled
    scenario, at its own seed and at seed 7."""
    digests = {}
    for name, text in sorted(cli.bundled_scenarios().items()):
        for label, seed in (("default", None), ("7", 7)):
            run = run_scenario(json.loads(text), seed_override=seed)
            digests.setdefault(name, {})[label] = {
                "report": _sha256(render_report(run.report)),
                "trace": _sha256(render_trace(run.trace))}
    return digests


def test_bundled_scenarios_match_golden_digests():
    """Reports and traces of every bundled scenario, at its own seed and
    at seed 7, are byte-identical to the pinned ones. A change meant to
    move them rewrites the file with
    ``PYTHONPATH=src python tests/test_scenario.py digests``."""
    got = bundled_digests()
    assert sorted(GOLDEN) == sorted(got)
    mismatches = []
    for name in sorted(got):
        for label, seed in (("default", None), ("7", 7)):
            for part, digest in got[name][label].items():
                if digest != GOLDEN[name][label][part]:
                    flag = "" if seed is None else f" --seed {seed}"
                    mismatches.append(
                        f"{name} ({label} seed) {part} changed; diff the output of"
                        f" `dietchain run {name}{flag} --report FILE`"
                        f" (or `dietchain trace {name}{flag} --out FILE`)"
                        " against the same command at the commit that pinned"
                        " tests/golden/digests.json")
    assert not mismatches, "\n".join(mismatches)


VERDICTS_FILE = Path(__file__).parent / "golden" / "verdicts.json"


def verdict_record(run) -> dict:
    """What a change that moves only bytes must keep: each expectation
    and whether it passed, and each node's verdicts as (status, reason):
    a diet or SPV node's tx verdicts and a full node's connect results,
    in the order they came."""
    verdicts = {node_id: [[v["status"], v["reason"]] for v in info["verdicts"]]
                for node_id, info in run.report["queries"].items()}
    for event in run.trace:
        if event["kind"] == "connect":
            verdicts.setdefault(event["node"], []).append([event["status"], event["reason"]])
    return {
        "expectations": [[{k: v for k, v in e.items() if k not in ("pass", "detail")},
                          e["pass"]] for e in run.report["expectations"]],
        "verdicts": dict(sorted(verdicts.items())),
    }


def bundled_verdicts() -> dict:
    return {name: {label: verdict_record(run_scenario(json.loads(text), seed_override=seed))
                   for label, seed in (("default", None), ("7", 7))}
            for name, text in sorted(cli.bundled_scenarios().items())}


def test_bundled_scenarios_keep_their_pinned_verdicts():
    """Every expectation outcome and every verdict of every bundled
    scenario, at its own seed and at seed 7, is the pinned one. Unlike
    the digests, these hold across a change that moves roots, txids or
    bytes; rewrite them (``PYTHONPATH=src python tests/test_scenario.py``)
    only when a scenario's outcome is meant to change."""
    pinned = json.loads(VERDICTS_FILE.read_text())
    got = json.loads(json.dumps(bundled_verdicts()))
    assert sorted(got) == sorted(pinned)
    for name in sorted(pinned):
        assert got[name] == pinned[name], name


def test_minimal_config_runs():
    run = run_scenario(_cfg())
    assert run.passed
    report = run.report
    assert report["scenario"] == "mini"
    assert report["chain"]["tip_height"] == 3
    verdicts = report["queries"]["carol-node"]["verdicts"]
    assert [v["status"] for v in verdicts] == ["diet-verified"]


def test_per_height_covers_every_update_as_bytes_by_type_does():
    """A diet node that verifies in two updates reports the heights of
    both, so its per-height bytes add up to its running totals."""
    cfg = _cfg(expect=[])
    cfg["script"] += [
        {"action": "pay", "label": "p2", "from": "alice", "to": "carol",
         "amount": 5, "node": "full-1"},
        {"action": "mine", "node": "full-1", "reward": "alice"},
        {"action": "update", "nodes": ["carol-node"]},
    ]
    run = run_scenario(cfg)
    results = run.state.diet_services["carol-node"].results
    assert len(results) == 2 and all(result.per_height for result in results)
    info = run.report["queries"]["carol-node"]
    assert info["per_height"] == [entry for result in results for entry in result.per_height]
    for key, query in (("utxos_bytes", "query_utxos"), ("block_bytes", "query_block")):
        assert sum(entry.get(key, 0) for entry in info["per_height"]) == \
            info["bytes_by_type"][query]


def test_same_seed_same_bytes():
    one = run_scenario(_cfg())
    two = run_scenario(_cfg())
    assert render_report(one.report) == render_report(two.report)
    assert render_trace(one.trace) == render_trace(two.trace)


def test_seed_override_lands_in_report():
    run = run_scenario(_cfg(), seed_override=123)
    assert run.report["seed"] == 123
    assert run.passed  # expectations here do not depend on the seed


def test_a_seed_override_outside_the_key_derivation_is_a_config_error():
    with pytest.raises(ScenarioError, match=r"seed 18446744073709551616 is not in \[0, 2\*\*64\)"):
        run_scenario(_cfg(), seed_override=1 << 64)


def test_missing_required_key_rejected():
    for dropped in ("name", "seed", "nodes", "script"):
        cfg = _cfg()
        del cfg[dropped]
        with pytest.raises(ScenarioError, match=dropped):
            load_config(cfg)


def test_unknown_action_rejected():
    cfg = _cfg(script=[{"action": "launder"}])
    with pytest.raises(ScenarioError, match="launder"):
        run_scenario(cfg)


def test_unknown_role_rejected():
    cfg = _cfg(nodes=[{"id": "full-1", "role": "full"},
                      {"id": "x", "role": "oracle"}])
    with pytest.raises(ScenarioError, match="oracle"):
        run_scenario(cfg)


def test_full_node_is_mandatory():
    cfg = _cfg(nodes=[{"id": "x", "role": "spv", "keys": ["carol"]}])
    with pytest.raises(ScenarioError, match="full node"):
        run_scenario(cfg)


def test_overdraft_rejected():
    cfg = _cfg(script=[
        {"action": "mine", "node": "full-1", "reward": "alice"},
        {"action": "pay", "label": "p1", "from": "carol", "to": "alice",
         "amount": 10, "node": "full-1"},
    ], expect=[])
    with pytest.raises(ScenarioError):
        run_scenario(cfg)


def test_pay_splits_across_listed_recipients():
    cfg = _cfg(keys=["alice", "carol", "sable"])
    cfg["nodes"].append({"id": "sable-node", "role": "spv", "keys": ["sable"],
                         "peer": "full-1"})
    cfg["script"][1] = {"action": "pay", "label": "p1", "from": "alice",
                        "to": ["carol", "sable"], "amount": 10, "node": "full-1"}
    cfg["script"][-1] = {"action": "update", "nodes": ["carol-node", "sable-node"]}
    cfg["expect"].append({"check": "verdict", "node": "sable-node", "tx": "p1",
                          "status": "spv-only"})
    run = run_scenario(cfg)
    assert run.passed, run.report["expectations"]
    # one tx, seen by both watchers
    carol_tx = run.report["queries"]["carol-node"]["verdicts"][-1]["tx"]
    sable_tx = run.report["queries"]["sable-node"]["verdicts"][-1]["tx"]
    assert carol_tx == sable_tx


def test_non_string_key_name_is_a_config_error():
    cfg = _cfg()
    cfg["script"][1]["to"] = 5
    with pytest.raises(ScenarioError, match="unknown key"):
        run_scenario(cfg)


@pytest.mark.parametrize("field, value", [("size_cap", 2), ("target_bits", 256),
                                          ("subsidy", -1), ("initial_k", 40)])
def test_out_of_range_chain_params_are_a_config_error(field, value):
    # An empty script: nothing is mined even if the params got through.
    with pytest.raises(ScenarioError, match=field):
        run_scenario(_cfg(script=[], expect=[], **{field: value}))


def test_cli_run_refuses_out_of_range_params(capsys, tmp_path):
    path = tmp_path / "tiny_cap.json"
    path.write_text(json.dumps(_cfg(size_cap=2, script=[], expect=[])))
    assert cli.main(["run", str(path)]) == 2
    assert "size_cap" in capsys.readouterr().err


@pytest.mark.parametrize("step, message", [
    ({"action": "pay", "from": "alice", "to": [], "amount": 10}, "no recipients"),
    ({"action": "pay", "from": "alice", "to": "carol", "amount": 10, "fee": -1},
     "negative fee"),
    ({"action": "pay", "from": "alice", "to": "carol"}, "pay step is missing 'amount'"),
    ({"action": "pay", "to": "carol", "amount": 10}, "pay step is missing 'from'"),
    ({"action": "repeat", "count": 2}, "repeat step is missing 'steps'"),
    ({"action": "repeat", "steps": []}, "repeat step is missing 'count'"),
    ({"action": "mine"}, "mine step is missing 'reward'"),
    ({"action": "update"}, "update step is missing 'nodes'"),
    ({"action": "corrupt_shard"}, "corrupt_shard step is missing 'victim'"),
    ({"action": "double_spend", "victims": ["carol-node"]},
     "double_spend step is missing 'spent_tx'"),
    ({"action": "forge_chain", "attacker": "alice", "forge_count": 1},
     "forge_chain step is missing 'victim' or 'victims'"),
    ({"action": "forge_chain", "attacker": "alice", "forge_count": 1, "victim": "full-1"},
     "'full-1' is not a light node"),
    ({"action": "forge_commitment_tip", "victim": "carol-node"},
     "forge_commitment_tip step is missing 'attacker'"),
    ({"action": "corrupt_shard", "victim": "nobody"}, "'nobody' is not a light node"),
    ("mine", "step 'mine' is not an object"),
    ({"action": "repeat", "count": 2, "steps": ["mine"]}, "step 'mine' is not an object"),
    ({"action": "mine", "reward": "alice", "count": "3"},
     "mine step 'count' is '3', not an integer"),
    ({"action": "mine", "reward": "alice", "count": True},
     "mine step 'count' is True, not an integer"),
    ({"action": "mine", "node": ["full-1"], "reward": "alice"},
     "mine step 'node' is ['full-1'], not a name"),
    ({"action": "repeat", "count": "2", "steps": []},
     "repeat step 'count' is '2', not an integer"),
    ({"action": "repeat", "count": 2, "steps": [{"action": "mine", "reward": "alice",
                                                  "count": 1.5}]},
     "mine step 'count' is 1.5, not an integer"),
    ({"action": "pay", "from": "alice", "to": "carol", "amount": "10"},
     "pay step 'amount' is '10', not an integer"),
    ({"action": "pay", "from": "alice", "to": "carol", "amount": 10, "fee": "1"},
     "pay step 'fee' is '1', not an integer"),
    ({"action": "pay", "from": "alice", "to": "carol", "amount": 10, "label": ["p"]},
     "pay step 'label' is ['p'], not a name"),
    ({"action": "forge_chain", "attacker": "alice", "forge_count": "2", "victim": "carol-node"},
     "forge_chain step 'forge_count' is '2', not an integer"),
    ({"action": "update", "nodes": "carol-node"},
     "update step 'nodes' is 'carol-node', not a list of names"),
    ({"action": "corrupt_shard", "victim": ["carol-node"]},
     "corrupt_shard step 'victim' is ['carol-node'], not a name"),
    ({"action": "double_spend", "spent_tx": "p1", "victims": "carol-node"},
     "double_spend step 'victims' is 'carol-node', not a list of names"),
])
def test_cli_run_reports_a_bad_step_as_a_config_error(capsys, tmp_path, step, message):
    """A step that cannot run is a config error naming what is wrong:
    exit status 2, one error line, no traceback."""
    cfg = _cfg(expect=[])
    cfg["script"].insert(1, step)
    path = tmp_path / "bad_step.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_run_reports_a_script_that_mines_no_block_as_a_config_error(capsys, tmp_path):
    """A report describes the chain a script mined; with no block there
    is none to describe."""
    cfg = {"name": "empty", "seed": 1, "keys": ["alice"], "nodes": [{"id": "full-1"}],
           "script": [], "expect": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "the script mines no block" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("check, message", [
    ({"check": "tip_height", "node": "nobody", "height": 3},
     "tip_height expectation names 'nobody'"),
    ({"check": "same_tip", "nodes": ["full-1", "nobody"]},
     "same_tip expectation names 'nobody'"),
    ({"check": "utxos_bytes_ratio", "node": "full-1", "max": 1},
     "'full-1', not a diet node"),
    ({"node": "full-1", "height": 3}, "unknown expectation None"),
    ({"check": "verdict", "node": "carol-node", "status": "diet-verified"},
     "verdict expectation is missing 'tx'"),
    ({"check": "touched_max"}, "touched_max expectation is missing 'max'"),
    ({"check": "tip_hieght", "node": "full-1", "height": 3},
     "unknown expectation 'tip_hieght'"),
    ({"check": "verdict", "node": "nobody", "tx": "p1", "status": "diet-verified"},
     "verdict expectation names 'nobody'"),
    ("tip_height", "expectation 'tip_height' is not an object"),
])
def test_cli_run_reports_a_bad_expectation_before_any_step(capsys, tmp_path, monkeypatch,
                                                           check, message):
    """An expectation that cannot be checked is a config error found
    before the script runs: exit status 2, one error line, no traceback."""
    steps = []
    monkeypatch.setattr(scenario, "_run_step", lambda state, step: steps.append(step))
    path = tmp_path / "bad_check.json"
    path.write_text(json.dumps(_cfg(expect=[check])))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert steps == []


@pytest.mark.parametrize("overrides, message", [
    ({"nodes": [{"role": "full"}]}, "node spec {'role': 'full'} has no string 'id'"),
    ({"nodes": ["full-1"]}, "node spec 'full-1' has no string 'id'"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "peer": "nobody"}]},
     "'nobody' is not a full node"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "peer": "sable-node"},
                {"id": "sable-node", "role": "spv", "keys": ["carol"]}]},
     "'sable-node' is not a full node"),
    ({"script": "mine"}, "steps 'mine' are not a list"),
    ({"seed": "1"}, "config 'seed' is '1', not an integer"),
    ({"seed": -1}, "seed -1 is not in [0, 2**64)"),
    ({"keys": "alice"}, "config 'keys' is 'alice', not a list of names"),
    ({"nodes": [{"id": "full-1"}, {"id": "carol-node", "role": "diet", "keys": "carol"}]},
     "node 'carol-node' 'keys' is 'carol', not a list of names"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "max_length": "2"}]},
     "node 'carol-node' 'max_length' is '2', not an integer"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "max_depth": False}]},
     "node 'carol-node' 'max_depth' is False, not an integer"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "max_length": -1}]},
     "bad light node 'carol-node': max_length must be at least 1, got -1"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "max_length": 0}]},
     "bad light node 'carol-node': max_length must be at least 1, got 0"),
    ({"nodes": [{"id": "full-1"},
                {"id": "carol-node", "role": "diet", "keys": ["carol"], "max_depth": -3}]},
     "bad light node 'carol-node': max_depth must be at least 1, got -3"),
])
def test_cli_run_reports_a_bad_node_spec_before_any_step(capsys, tmp_path, monkeypatch,
                                                         overrides, message):
    """A node spec without an id, a light node whose peer is not a full
    node or whose window is below one block, is a config error found
    before the script runs, as is a script that is not a list of steps."""
    steps = []
    monkeypatch.setattr(scenario, "_run_step", lambda state, step: steps.append(step))
    path = tmp_path / "bad_nodes.json"
    path.write_text(json.dumps(_cfg(expect=[], **overrides)))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert steps == []


def test_cli_run_fails_a_tip_height_check_on_a_light_node_that_never_synced(capsys, tmp_path):
    """A light node that no update woke has no tip: its tip_height check
    fails, and the run still reports every check."""
    cfg = _cfg(script=BASE["script"][:1],
               expect=[{"check": "tip_height", "node": "carol-node", "height": 2}])
    path = tmp_path / "unsynced.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "-- no tip" in captured.out
    assert "overall: FAIL" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_run_takes_no_bytes_ratio_sample_from_a_block_whose_pre_state_is_empty(
        capsys, tmp_path):
    """The window's one block, 1, was applied to a set of no coin bytes
    (block 0's reward is not committed until block 1), so it gives no
    sample: the run reports a failed check, with no division by zero."""
    cfg = {"name": "empty-pre-state", "seed": 9, "keys": ["alice", "carol"],
           "nodes": [{"id": "full-1"},
                     {"id": "carol-node", "role": "diet", "keys": ["carol"]}],
           "script": [
               {"action": "mine", "node": "full-1", "reward": "alice"},
               {"action": "pay", "from": "alice", "to": "carol", "amount": 10,
                "node": "full-1"},
               {"action": "mine", "node": "full-1", "reward": "alice"},
               {"action": "update", "nodes": ["carol-node"]}],
           "expect": [{"check": "utxos_bytes_ratio", "node": "carol-node", "max": 100}]}
    path = tmp_path / "empty_pre_state.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "0 samples" in captured.out and "overall: FAIL" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_key_derivation_is_name_and_seed_bound():
    alice_nine = derive_key(9, "alice")
    assert derive_key(9, "alice").public_key == alice_nine.public_key
    assert derive_key(10, "alice").public_key != alice_nine.public_key
    assert derive_key(9, "bob").public_key != alice_nine.public_key


def test_report_has_no_timestamps():
    run = run_scenario(_cfg())
    text = render_report(run.report) + render_trace(run.trace)
    for needle in ("time", "date", "stamp"):
        assert needle not in text


def test_cli_run_passes(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code = cli.main(["run", "honest_chain", "--report", str(report_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    saved = json.loads(report_file.read_text())
    assert saved["pass"] is True


def test_cli_reports_expectation_failure(capsys, tmp_path):
    cfg = _cfg()
    cfg["expect"] = [{"check": "tip_height", "node": "full-1", "height": 99}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    assert out.count("FAIL") >= 2  # the check line and the overall line


def test_cli_unknown_scenario_is_a_usage_error(capsys):
    code = cli.main(["run", "no_such_scenario"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no_such_scenario" in err


def test_cli_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("honest_chain", "forge_l_plus_1", "legacy_interop"):
        assert name in out


def test_cli_trace_writes_jsonl(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    assert cli.main(["trace", "forged_shard", "--out", str(out_file)]) == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert lines, "trace should not be empty"
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "message" in kinds and "verdict" in kinds


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        DIGESTS_FILE.write_text(json.dumps(bundled_digests(), indent=2, sort_keys=True) + "\n")
    else:
        VERDICTS_FILE.write_text(json.dumps(bundled_verdicts(), indent=1, sort_keys=True) + "\n")
