"""Run one benchmark workload and print its result as the last stdout line.

From the repository root:

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics plus
``trace.overhead_frac``, and writes every span to
``.perfbench_out/<workload>/spans-<workload>.npz``.  The line before the
result records the environment and the sample counts.  Workloads, metrics
and bounds are listed in ``BENCHMARK.json``; ``perfbench/smoke.py`` runs all
of them at tiny sizes.

The library is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2 when it is not there.  BLAS is pinned to one
thread before numpy loads, and ``SCTRACK_CONFIG`` is cleared so that every
run tracks with the default configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS, clear the config variable and put ``src/`` first on the path.

    Must run before numpy or the library is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SCTRACK_CONFIG", None)
    if not (SRC / "sctrack" / "__init__.py").is_file():
        print(f"error: no sctrack sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    prepare()
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    result, details = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), str(OUT_DIR / args.workload)
    )
    print(json.dumps({"env": environment(args.seed), "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
