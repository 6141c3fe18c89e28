"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit_ooc --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics. The program is imported from ``src/`` of the checkout this file
sits in; the command fails when that source is missing. A summary goes
to standard error; the last line of standard output is the JSON result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fit_ooc", "fit_wide", "forest")


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time to spend repeating set-up and fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> None:
    """Run this thread, and every thread it starts later, on one CPU.

    The two rank threads of a fit take turns holding the interpreter
    lock. On two CPUs every hand-over wakes a thread on the other CPU,
    so a fit also slows when the other CPU is busy, which the reference
    mix that scales host times does not see. On one CPU the reference
    mix, the fit and serving share the CPU they are measured on
    (README.md).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()  # before NumPy starts any thread
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import run_workload

    spans_out = None
    if args.trace:
        spans_out = str(
            ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        )
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), spans_out=spans_out
    )
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
