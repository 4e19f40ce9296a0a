"""End-to-end, layer-split benchmark of the mediator.

Run from the repository root::

    python3 e2ebench/run.py --workload lav-join --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run for its per-layer metrics.
A human-readable report goes to stdout, and a full result document
(environment, sample counts, per-rung counts, fingerprint, errors) to
``e2ebench/results/``.  The last stdout line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits 1 when an output check fails and 2 when the program's source
tree is missing.  See README.md in this directory for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("movies-wire", "lav-join", "syn-coverage")
#: ``random_scenario`` samples each source from a *set* of view rows, so
#: its instances follow the interpreter's string-hash seed: two
#: processes given the same scenario seed build different sources (for
#: lav-join, different per-plan answers and up to 1.9x different cost).
#: Every process of a run uses this hash seed, so that the same
#: ``--seed`` gives the same inputs.
HASH_SEED = "0"
#: Units of the measured metrics that BENCHMARK.json does not list;
#: they are printed and kept in the result document (see README.md).
REPORT_ONLY_UNITS = {
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "ttfa_p90_ms": "ms",
    "ttfa_p99_ms": "ms",
    "max_rate_rps": "1/s",
    "failed_share": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end, layer-split benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Re-run this command under the pinned hash seed; the server
        # process movies-wire starts inherits it.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)

    trace = bool(args.trace)
    if args.workload == "movies-wire":
        import wire

        result = wire.run(args.seed, args.seconds, trace, out_dir)
    else:
        import inprocess

        result = inprocess.run(args.workload, args.seed, args.seconds, trace)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
        result["spans_file"] = f"e2ebench/results/{stem}-spans.json"
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark bug: metrics not measured: {missing}", file=sys.stderr)
        return 3
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }
    if not trace:
        measured["failed_share"] = failed / attempted
    report = dict(metrics)
    for name, unit in REPORT_ONLY_UNITS.items():
        if name in measured:
            report[name] = {"value": measured[name], "unit": unit}
    result.update(
        metrics=report,
        environment={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        workload=args.workload,
    )
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"fingerprint {result['fingerprint']}")
    print(f"requests attempted {attempted}  failed {failed}  samples {result.get('samples', '-')}")
    for row in result.get("ladder", ()):
        print(
            f"  rung {row['rate_rps']:>4} req/s  sent {row['sent']:>5}  ok {row['succeeded']:>5}"
            f"  failed {row['failed']}  p99 {row['latency_p99_ms']:.2f} ms"
            f"  lag p99 {row['lag_p99_ms']:.2f} ms  {'meets' if row['meets_limit'] else 'misses'}"
            f" p99 <= {result['limit_p99_ms']:.0f} ms"
        )
    for name, entry in report.items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print(f"result document: e2ebench/results/{stem}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
