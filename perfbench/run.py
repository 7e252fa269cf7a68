"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 7 --trace 0

Workloads, metrics, units and directions are declared in
``BENCHMARK.json``; sizes, seeds, limits and the layer-to-metric
prediction map in ``perfbench/spec.json``. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it wraps the layer
entry points and reports the per-layer metrics instead. The last line of
standard output is one JSON object; the exit code is 1 when a
correctness check failed and 2 on a usage or layout error.
"""

from __future__ import annotations

import os

# One process and one thread (the open loop's load generator is the
# main loop itself): keep the numerical libraries from starting thread
# pools of their own. Set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse
import json
import math
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        print(f"error: program source not found at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])

    import bench  # imports numpy and the program: after the thread caps

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), spec, workdir)
        trace = result.notes.get("trace")
        if trace:
            os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
            kept = os.path.join(OUT_DIR, "traces", os.path.basename(trace))
            os.replace(trace, kept)
            result.notes["trace"] = kept
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = declared["per_layer"] if args.trace else declared["end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in result.metrics]
    unknown = sorted(set(result.metrics) - {m["name"] for m in expected})
    invalid = [n for n, v in result.metrics.items() if not math.isfinite(v)]
    if missing or unknown or invalid:
        print(f"error: metrics missing {missing}, undeclared {unknown}, not finite {invalid}",
              file=sys.stderr)
        return 2

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} ({mode})")
    print(
        "setup_s per repeat (raw): " + ", ".join(f"{s:.3f}" for s in result.notes["setup_s"])
        + f"; mean host speed factor {result.notes['speed']:.4f}"
    )
    for phase in result.phases:
        # The phase's end-to-end values are printed in traced runs too:
        # against an untraced run they give the tracing overhead.
        extra = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in {**phase.metrics, **phase.extra}.items()
            if isinstance(v, (int, float, str))
        )
        print(
            f"phase {phase.name}: attempted={phase.attempted} "
            f"succeeded={phase.attempted - phase.failed} failed={phase.failed}"
            + (f" ({extra})" if extra else "")
        )
        for problem in phase.problems:
            print(f"  CHECK FAILED {problem}")
    for metric in expected:
        value = result.metrics[metric["name"]]
        print(f"  {metric['name']:<32} {value:>14.6g} {metric['unit']}, {metric['better']} is better")
    if "trace" in result.notes:
        print(f"spans written to {result.notes['trace']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in expected
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
