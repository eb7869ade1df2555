"""Benchmark of the antimark package: one closed-loop caller per workload.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with spans around the package's public functions and
reports the per-layer metrics.  Every output is checked against
``bench/reference.json``.  The last line of standard output is the result as
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True,
                   help="start passes until this much time has elapsed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=os.path.join(os.path.dirname(BENCH_DIR), "src"),
                   help="source tree of the package under test (default: ./src)")
    args = p.parse_args(argv)

    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "antimark", "__init__.py")):
        print(f"run.py: no antimark package under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, in this process and every process it starts.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import measure
    import workloads

    if args.workload not in workloads.BUILDERS:
        p.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    if args.trace:
        res = measure.traced_run(args.workload, args.seed, args.seconds)
    else:
        res = measure.timed_run(args.workload, args.seed, args.seconds, src)

    for problem in res.tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in res.metrics.items():
        print(f"  {name:48s} {value!r} {unit}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **res.detail,
              "environment": measure.environment(src)}
    print("detail " + json.dumps(detail))
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in res.metrics.items() if name != "failed_frac"}
    print(json.dumps({"correct": res.tally.failed == 0, "attempted": res.tally.attempted,
                      "failed": res.tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
