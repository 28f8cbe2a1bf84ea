#!/usr/bin/env python3
"""Run one dietchain benchmark workload and print its metrics.

    python3 bench/run.py --workload grow --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
there and nowhere else. Workloads: ``grow``, ``diet-serve`` and
``scenario-scale`` (see README.md). Inputs come only from ``--seed``.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of a
run that measures for ``--seconds``, its times rescaled to a reference
speed (see pace.py). With ``--trace 1`` they are the
per-layer ones: the run does a fixed amount of work twice from the same
seed, once plain and once traced, and reports the difference as the
tracing overhead; ``--spans FILE`` also writes every span as JSON lines.

Exit status: 0 all outputs correct, 1 a correctness gate failed (the
result line says ``"correct": false``), 2 the program could not be loaded
or the arguments are wrong (no result line).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

from pace import REFERENCE_MS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
}

# Per-layer figures read from the end state rather than from spans.
STATE_COUNTS = {
    "utxo.history_entries": "count",
    "utxo.k_final": "count",
    "utxo.rebalances": "count",
    "diet_node.bytes.query_merkle_blocks": "bytes",
    "diet_node.bytes.query_utxo_mroot": "bytes",
    "diet_node.bytes.query_block": "bytes",
    "diet_node.bytes.query_utxos": "bytes",
    "diet_node.utxos_bytes.rebalance": "bytes",
    "netsim.bytes.query_merkle_blocks": "bytes",
    "netsim.bytes.merkle_blocks": "bytes",
    "netsim.bytes.query_utxo_mroot": "bytes",
    "netsim.bytes.utxo_mroot": "bytes",
    "netsim.bytes.query_block": "bytes",
    "netsim.bytes.block": "bytes",
    "netsim.bytes.query_utxos": "bytes",
    "netsim.bytes.utxos": "bytes",
    "netsim.bytes.block_announce": "bytes",
}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_share": "ratio"}


def load_program() -> bool:
    """Put this checkout's ``src/`` first on the path; False if it is absent."""
    package = SOURCE / "dietchain"
    if not (package / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SOURCE))
    import dietchain
    return Path(dietchain.__file__).resolve().parent == package.resolve()


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from tracer import Tracer
    units = {name: unit for name, (_, unit) in Tracer().layer_metrics().items()}
    return {**units, **STATE_COUNTS, **OVERHEAD}


def end_to_end_metrics(outcome) -> dict[str, tuple[float, str]]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": peak_kib / 1024,
        "ops_per_s": outcome.ops_per_s(),
        "op_ms_p50": outcome.op_ms_p50(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(workload: str, seed: int, size=None):
    """Fixed work twice from one seed, plain then traced.

    ``size`` overrides the workload's default size (tests use small ones).
    Returns (plain outcome, traced outcome, tracer, per-layer metrics).
    """
    from tracer import Tracer
    from workloads import WORKLOADS

    run = WORKLOADS[workload]
    sized = {"size": size} if size is not None else {}
    plain = run(seed, None, setups=1, **sized)
    tracer = Tracer()
    traced = run(seed, None, hooks=tracer, setups=1, **sized)
    metrics = tracer.layer_metrics()
    for name, unit in STATE_COUNTS.items():
        metrics[name] = (traced.counts.get(name, 0), unit)
    overhead = traced.timed_s - plain.timed_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain.timed_s if plain.timed_s else 0.0,
                                       "ratio")
    return plain, traced, tracer, metrics


def _print_named(outcome) -> None:
    for name, (value, unit, detail) in outcome.named.items():
        print(f"  {name:<24} {value:>14.4f} {unit:<9} {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grow", "diet-serve", "scenario-scale"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not load_program():
        print(f"bench: no dietchain package under {SOURCE}; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        plain, outcome, tracer, metrics = traced_run(args.workload, args.seed)
        outcomes = [plain, outcome]
        print("plain pass:")
        _print_named(plain)
        print("traced pass (tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.3f} s, "
              f"{100 * metrics['trace.overhead_share'][0]:.1f}%):")
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    else:
        from workloads import PACE
        with PACE.sampling():
            outcome = WORKLOADS[args.workload](args.seed, args.seconds)
        outcomes = [outcome]
        metrics = end_to_end_metrics(outcome)
        pace = PACE.summary()
        print(f"pace: {pace['samples']} reference samples, median "
              f"{pace['reference_ms_p50']:.4f} ms (times below are rescaled to "
              f"{REFERENCE_MS} ms), {100 * pace['share']:.1f}% of processor time")
    _print_named(outcome)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.4f} {unit}")

    correct = all(o.correct for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
