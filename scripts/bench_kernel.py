#!/usr/bin/env python3
"""Micro-benchmark of the elimination kernel on three fixed Macaulay matrices
and on one seeded chain of degrees.

Each matrix is one degree of a table case at seed 0 (m-th powers of k
random degree-d forms in n variables, default prime). The script times
`ideal_dimension_at_degree` on it from scratch (median of 5 runs) and
checks the matrix shape and the rank. The chain eliminates consecutive
degrees of one case as the quotient series does, each seeded with x_1
times the basis of the degree below, and checks every rank. The script
prints one JSON line with the timings and the numpy version, the BLAS
library and the core count. It exits 1 if a shape or a rank is off.

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
# (n, d, m, k, first degree, rank of each degree from the first on)
CHAIN = (4, 2, 4, 5, 15, (600, 815, 1060, 1330))


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


def time_chain(chain=CHAIN, repeats=REPEATS) -> dict:
    """Median seconds of `repeats` seeded chains over the case's degrees."""
    n, d, m, k, first, expected = chain
    family = default_family(CaseSpec(n, d, m, k), SEED)
    degrees = range(first, first + len(expected))
    times = []
    for _ in range(repeats):
        bases = {}
        start = time.perf_counter()
        got = tuple(ideal_dimension_at_degree(family, e, bases) for e in degrees)
        times.append(time.perf_counter() - start)
        if got != expected:
            raise WrongResult(f"{chain[:4]}: chain ranks {got}, expected {expected}")
    return {
        "case": [n, d, m, k], "degrees": [first, degrees[-1]],
        "ranks": list(expected), "median_s": statistics.median(times),
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
        chain = time_chain()
    except WrongResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": SEED, "repeats": REPEATS, **environment(),
                      "cases": results, "chain": chain}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
