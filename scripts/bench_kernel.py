#!/usr/bin/env python3
"""Micro-benchmark of the elimination kernel on three fixed Macaulay matrices
and on one seeded chain of degrees, and of Macaulay assembly.

Each matrix is one degree of a table case at seed 0 (m-th powers of k
random degree-d forms in n variables, default prime). The script times
`ideal_dimension_at_degree` on it from scratch (median of 5 runs) and
checks the matrix shape and the rank. The chain eliminates consecutive
degrees of one case as the quotient series does, each seeded with x_1
times the basis of the degree below, and checks every rank. Assembly
times two things: a cold build of every scatter table that the five
`ci-deep` cases of perfbench use (caches cleared before each run, every
table's shape checked), and the build of one powered family at
p = 2^31 - 1 by `default_family` (the draw, the forms and the batched
powering), checked against a pinned checksum of its coefficients. The
script prints one JSON line with the timings and the numpy version, the
BLAS library and the core count. It exits 1 if a shape, a rank or the
checksum is off.

Usage:
    PYTHONPATH=src python3 scripts/bench_kernel.py
"""

import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

from genforms import macaulay
from genforms.macaulay import _x1_free_count, ideal_dimension_at_degree, macaulay_shape
from genforms.monomials import monomial_count
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

# (n, source degree, degree, x1_free) of every scatter table that
# verify_case builds for (4,2,2,5) (4,2,3,5) (4,3,2,5) (5,2,2,6) (4,2,4,5)
TABLES = (
    (4, 2, 4, False), (4, 3, 6, False), (4, 4, 6, False), (4, 4, 7, False),
    (4, 4, 8, False), (4, 4, 8, True), (4, 6, 11, False), (4, 6, 12, True),
    (4, 6, 13, True), (4, 8, 15, False), (4, 8, 16, True), (4, 8, 17, True),
    (4, 8, 18, True), (5, 2, 4, False), (5, 4, 7, False), (5, 4, 8, True),
    (5, 4, 9, True), (5, 4, 10, True),
)
# (n, d, m, k, prime) of the powered family, and the first 16 hex digits
# of the SHA-256 of its coefficients as little-endian int64, forms in
# order. The prime is named, not the default, so the checksum stays valid
# when the default changes.
POWERED = (3, 2, 7, 120, 2**31 - 1)
POWERED_SHA256 = "6f55c8d1667e1977"


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


def time_tables(tables=TABLES, repeats=REPEATS) -> float:
    """Median seconds of `repeats` cold builds of every table, the
    caches cleared before each build as in a fresh process."""
    times = []
    for _ in range(repeats):
        for cached in (macaulay._scatter_table, macaulay._exponents,
                       macaulay.enumerate_monomials):
            cached.cache_clear()
        start = time.perf_counter()
        built = [macaulay._scatter_table(*key) for key in tables]
        times.append(time.perf_counter() - start)
        for (n, dg, e, x1_free), table in zip(tables, built):
            rows = _x1_free_count(n, e - dg) if x1_free else monomial_count(n, e - dg)
            if table.shape != (rows, monomial_count(n, dg)):
                raise WrongResult(f"table {(n, dg, e, x1_free)}: shape {table.shape}")
    return statistics.median(times)


def time_power(case=POWERED, repeats=REPEATS) -> float:
    """Median seconds of `repeats` builds of one powered family by
    `default_family` (its tables already built): the draw, the forms and
    the batched powering, checked against the pinned checksum."""
    n, d, m, k, prime = case
    spec = CaseSpec(n, d, m, k, prime=prime)
    default_family(spec, SEED)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        family = default_family(spec, SEED)
        times.append(time.perf_counter() - start)
        coeffs = np.array([f.coeffs for f in family.forms], dtype="<i8")
        digest = hashlib.sha256(coeffs.tobytes()).hexdigest()[:16]
        if digest != POWERED_SHA256:
            raise WrongResult(f"{case}: powered checksum {digest}, expected {POWERED_SHA256}")
    return statistics.median(times)


def time_assembly() -> dict:
    return {
        "tables": len(TABLES), "tables_cold_median_s": time_tables(),
        "power_case": list(POWERED), "power_median_s": time_power(),
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
        assembly = time_assembly()
    except WrongResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": SEED, "repeats": REPEATS, **environment(),
                      "cases": results, "chain": chain, "assembly": assembly}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
