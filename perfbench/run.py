"""The repo benchmark: one command for all four workloads (``serve-warm``
runs by hand only; the other three are in ``BENCHMARK.json``).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the checkout root.  ``--trace 0`` measures the end-to-end
metrics with the program's own metrics registry and trace recorder off;
``--trace 1`` makes a separate layer-attributed run and reports the
per-layer metrics.  Every metric is printed by name with its unit, then
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See ``README.md`` in this directory for the workloads, the metrics and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, add_program_path, check_imported_from_checkout, host_facts  # noqa: E402

WORKLOADS = ("sweep", "sweep-2proc", "serve-warm", "serve-cold")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smallest inputs that still run every layer (self-tests)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    add_program_path()
    check_imported_from_checkout()
    facts = host_facts()
    print("host: " + ", ".join(f"{k}={v}" for k, v in facts.items()), flush=True)

    if args.workload.startswith("sweep"):
        import sweep

        workers = 2 if args.workload == "sweep-2proc" else 1
        report = sweep.run(
            args.seed, args.seconds, workers, trace=bool(args.trace), tiny=args.tiny
        )
    else:
        import serve

        report = serve.run(
            args.workload, args.seed, args.seconds, trace=bool(args.trace), tiny=args.tiny
        )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = report.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {}
    for name, unit in wanted:
        value = values.get(name)
        if value is None:
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:28s} {value:14.6g} {unit}")
    for name, (value, unit) in report.get("reported", {}).items():
        print(f"{name:28s} {value:14.6g} {unit} (reported, not gated)")
    for note in report.get("notes", []):
        print(note)
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':28s} {error_rate:14.6g} fraction ({failed}/{attempted})")
    correct = (
        failed == 0
        and attempted > 0
        and len(metrics) == len(wanted)
        and not report.get("invalid")
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
