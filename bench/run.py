#!/usr/bin/env python3
"""fpq benchmark: one seeded closed-loop workload per run, in one process.

Run from the repository root:

    python3 bench/run.py --workload galt_fit --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up several times, then runs passes with tracing off and
prints every end-to-end metric of BENCHMARK.json.  ``--trace 1`` runs half
the time untraced and half with the span tracer installed, and prints
every per-layer metric.  Every pass's outputs must match the first pass's
digest, and the first and last passes are checked in full.  Times are
reported against a reference kernel timed before each pass (see
reference.py).  The last stdout line is the result object, the line before
it the run's details (environment, shapes, output digest, sample counts,
times as measured).  The exit code is 0 only when every operation and check
passed; it is 2 when the fpq sources are missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Run BLAS on one thread, whatever the environment asks for.

    A second BLAS thread bought this 2-core box about 15% on galt_fit but
    doubled CPU use (OpenBLAS spins while it waits) and made pass times
    swing with any other load on the machine.  Must run before numpy is
    imported: OpenBLAS reads these at load time.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    src = ROOT / "src"
    if not (src / "fpq" / "__init__.py").is_file():
        print(f"bench: fpq sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    found = importlib.util.find_spec("fpq")
    if found is None or not Path(found.origin).resolve().is_relative_to(src.resolve()):
        print(f"bench: fpq does not resolve to the sources under {src}", file=sys.stderr)
        return 2
    # fpq's dependencies load before set-up is timed; set-up times fpq alone.
    import click  # noqa: F401
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    from harness import environment, run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result, detail = run_workload(WORKLOADS[args.workload](), args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["environment"] = environment()
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
