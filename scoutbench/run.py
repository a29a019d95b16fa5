"""Benchmark entry point: trained Scouts serving incidents they never saw.

Run from the repository root::

    python3 scoutbench/run.py --workload novel_stream --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with the serving path at
its defaults; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics, printing the per-layer table of ``serve.handle``.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.  Temporary files the program makes (the fleet's signal matrix)
go to ``.bench_build/`` under the repository root instead of the
system temporary directory, and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"scoutbench: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads  # needs src on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(
            f"scoutbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("scoutbench: --seconds must be > 0", file=sys.stderr)
        return 2
    # The program's temporary directories (FleetServer's signal matrix)
    # are created here, inside the checkout.
    scratch = os.path.join(ROOT, ".bench_build", f"scoutbench-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        result.check(False, f"metrics not measured: {', '.join(missing)}")
    for note in result.notes:
        print(note)
    print(f"{args.workload} seed={args.seed} trace={args.trace}:")
    for name, unit in units.items():
        if name in result.metrics:
            print(f"  {name:<44} {result.metrics[name]:>14.6f} {unit}")
    print(
        f"  attempted {result.attempted}, failed {result.failed}, "
        f"correct {result.correct}"
    )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in result.metrics
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
