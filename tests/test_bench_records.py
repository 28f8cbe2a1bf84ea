"""The benchmark trajectory kept at the repository root: each
``BENCH_<pr>_<workload>.json`` holds the final JSON line of one run."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


def test_each_pr_with_a_record_has_one_for_every_workload():
    """A perf claim rests on the whole trajectory: a PR number that saved
    any record saved one per declared workload."""
    saved: dict[str, set[str]] = {}
    for path in RECORDS:
        match = re.fullmatch(r"BENCH_(\d+)_(.+)\.json", path.name)
        if match:
            saved.setdefault(match.group(1), set()).add(match.group(2))
    assert {pr: WORKLOADS - names for pr, names in saved.items() if WORKLOADS - names} == {}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_is_a_correct_run_of_a_declared_workload(path):
    match = re.fullmatch(r"BENCH_(\d+)_(.+)\.json", path.name)
    assert match, "name is not BENCH_<pr>_<workload>.json"
    assert match.group(2) in WORKLOADS
    record = json.loads(path.read_text())
    assert record["correct"] is True
    assert record["failed"] == 0
    for name in END_TO_END:
        assert record["metrics"][name]["value"] > 0, name
