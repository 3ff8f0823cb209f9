#!/usr/bin/env python3
"""The ddmot benchmark: tracking, evaluation and training from one command.

    python3 bench/run.py --workload track-sparse --seed 1 --seconds 20 --trace 0

Run from the repository root of a source checkout; the library is imported
from its ``src/`` directory, never from an installed copy. See
``bench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ddmot" / "__init__.py").is_file():
        print(f"error: missing-input: library sources not found at {SRC / 'ddmot'}", file=sys.stderr)
        return 2
    # One BLAS thread: on a shared 2-core machine, threaded GEMMs on these
    # small matrices spin and make pass times vary more, and are not faster.
    # It must be set before numpy loads OpenBLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
