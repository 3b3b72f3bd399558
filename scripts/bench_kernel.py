#!/usr/bin/env python3
"""Micro-benchmark of the elimination kernel on three fixed Macaulay matrices.

Each input is one degree of a table case at seed 0 (m-th powers of k random
degree-d forms in n variables, default prime). The script times
`ideal_dimension_at_degree` on it (median of 5 runs), checks the matrix
shape and the rank, and prints one JSON line with the timings and the
numpy version, the BLAS library and the core count. It exits 1 if a shape
or a rank is off.

Usage:
    PYTHONPATH=src python3 scripts/bench_kernel.py
"""

import json
import os
import statistics
import sys
import time

import numpy as np

from genforms.macaulay import ideal_dimension_at_degree, macaulay_shape
from genforms.verifier import CaseSpec, default_family

SEED = 0
REPEATS = 5
# (n, d, m, k, degree, rows, cols, rank)
CASES = (
    (4, 2, 4, 5, 18, 1430, 1330, 1330),
    (4, 3, 3, 5, 20, 1820, 1771, 1720),
    (5, 2, 2, 6, 9, 756, 715, 681),
)


class WrongResult(RuntimeError):
    """A matrix had another shape or rank than the case pins."""


def time_case(case, repeats=REPEATS) -> dict:
    """Median seconds of `repeats` eliminations of one case's matrix."""
    n, d, m, k, e, rows, cols, expected = case
    family = default_family(CaseSpec(n, d, m, k), SEED)
    if macaulay_shape(family, e) != (rows, cols):
        raise WrongResult(f"{case}: shape {macaulay_shape(family, e)}")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        got = ideal_dimension_at_degree(family, e)
        times.append(time.perf_counter() - start)
        if got != expected:
            raise WrongResult(f"{case}: rank {got}, expected {expected}")
    return {
        "case": [n, d, m, k], "degree": e, "shape": [rows, cols],
        "rank": expected, "median_s": statistics.median(times),
    }


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    try:
        results = [time_case(case) for case in CASES]
    except WrongResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": SEED, "repeats": REPEATS, **environment(),
                      "cases": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
