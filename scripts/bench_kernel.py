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
frontier field times one cold `verify_case` (caches cleared first) of
each of five large cases, with its verdict. The script prints one JSON
line with the timings and the numpy version, the BLAS library and the
core count. It exits 1 with an `error:` line if a shape, a rank or the
checksum is off, or if a frontier case is not Verified (also when its
matrix is over the default budget).

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
from genforms.macaulay import ResourceLimit, ideal_dimension_at_degree, macaulay_shape
from genforms.monomials import enumerate_monomials, monomial_count
from genforms.verifier import VERIFIED, CaseSpec, case_truncation, default_family, verify_case

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

# (n, source degree, degree, x1_free, bounds) of every scatter table that
# verify_case builds for (4,2,2,5) (4,2,3,5) (4,3,2,5) (5,2,2,6) (4,2,4,5):
# the powering products (bounds None), then the one random form's Macaulay
# rows at the pure-power point, over the monomials standard for
# x_1^{md}, ..., x_n^{md} (bounds (md,) * n).
_B4, _B6, _B8 = (4,) * 4, (6,) * 4, (8,) * 4
TABLES = (
    (4, 2, 4, False, None), (4, 3, 6, False, None), (4, 4, 6, False, None),
    (4, 4, 8, False, None), (5, 2, 4, False, None),
    (4, 4, 4, False, _B4), *((4, 4, e, True, _B4) for e in range(5, 9)),
    (4, 6, 6, False, _B6), *((4, 6, e, True, _B6) for e in range(7, 14)),
    (4, 8, 8, False, _B8), *((4, 8, e, True, _B8) for e in range(9, 19)),
    (5, 4, 4, False, (4,) * 5), *((5, 4, e, True, (4,) * 5) for e in range(5, 11)),
)
# (n, d, m, k) of the frontier cases, each verified cold by verify_case
FRONTIER = ((4, 3, 3, 5), (4, 2, 5, 5), (5, 2, 3, 6), (6, 2, 2, 7), (7, 2, 2, 8))
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


def _clear_caches():
    """Empty the lru_caches, as in a fresh process."""
    for cached in (macaulay._scatter_table, macaulay._standard, macaulay._standard_exponents,
                   macaulay._exponents, macaulay.enumerate_monomials, case_truncation):
        cached.cache_clear()


def _table_rows(n, dg, e, x1_free, bounds) -> int:
    """Multipliers of a table: the degree-(e - dg) monomials, only the
    standard ones under bounds, only the x_1-free ones with x1_free."""
    return sum(
        1 for u in enumerate_monomials(n, e - dg)
        if (bounds is None or all(x < b for x, b in zip(u, bounds)))
        and not (x1_free and u[0])
    )


def time_tables(tables=TABLES, repeats=REPEATS) -> float:
    """Median seconds of `repeats` cold builds of every table, the
    caches cleared before each build as in a fresh process."""
    times = []
    for _ in range(repeats):
        _clear_caches()
        start = time.perf_counter()
        built = [macaulay._scatter_table(*key) for key in tables]
        times.append(time.perf_counter() - start)
        for key, table in zip(tables, built):
            n, dg = key[:2]
            if table.shape != (_table_rows(*key), monomial_count(n, dg)):
                raise WrongResult(f"table {key}: shape {table.shape}")
    return statistics.median(times)


def time_frontier(cases=FRONTIER) -> list:
    """Seconds and verdict of one cold verify_case per frontier case.
    Raises WrongResult unless every case is Verified; a case over the
    matrix budget is missed too."""
    results = []
    for case in cases:
        _clear_caches()
        start = time.perf_counter()
        try:
            verdict = verify_case(CaseSpec(*case, seed=SEED)).verdict
        except ResourceLimit as exc:
            raise WrongResult(f"frontier case {list(case)} not Verified: {exc}") from exc
        seconds = time.perf_counter() - start
        results.append({"case": list(case), "cold_s": seconds, "verdict": verdict})
    missed = [r["case"] for r in results if r["verdict"] != VERIFIED]
    if missed:
        raise WrongResult(f"frontier cases not Verified: {missed}")
    return results


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
        frontier = time_frontier()
    except WrongResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": SEED, "repeats": REPEATS, **environment(),
                      "cases": results, "chain": chain, "assembly": assembly,
                      "frontier": frontier}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
