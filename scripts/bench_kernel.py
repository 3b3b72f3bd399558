#!/usr/bin/env python3
"""Micro-benchmark of the elimination kernel on three fixed Macaulay matrices
and on one seeded chain of degrees, and of Macaulay assembly.

Each matrix is one degree of a table case at seed 0 (m-th powers of k
random degree-d forms in n variables, default prime). The script times
`ideal_dimension_at_degree` on it from scratch (median of 5 runs) and
checks the matrix shape and the rank. The chain eliminates consecutive
degrees of one case as the quotient series does, each seeded with x_n
times the basis of the degree below, and checks every rank. Assembly
times two things: a cold build of every scatter table that the
pure-power points of the five `ci-deep` cases of perfbench use (caches
cleared before each run, every table's shape checked), and the build of
one powered family at p = 2^31 - 1 by `default_family` (the draw, the
forms and the batched powering), checked against a pinned checksum of
its coefficients. The plan field times cold `plan_sweep` calls over the
whole k range of four cells (median of 5 runs, caches cleared before
each), each checked
against its count of cases and intervals. The sweep field times one
cold `plan_sweep` and `run_sweep` of the whole k range of three cells
(caches cleared first), each checked against its count of direct cases
and intervals, with every k covered and none skipped. The frontier field
times one cold elimination (caches cleared first) of each of five
k = n+2 cases, each cell's costliest, at its pure-power point: the
truncation, the conjectured series, the draws and their powering, and
`quotient_series`, the first point `verify_case` tries on them. The
hits field times the cache layer: the median of in-process cached
`genforms --cache F verify` calls of each of the five `ci-deep` cases
of perfbench, after one call that computes it (`cli.main`, which builds
its parser on the first call of the process).
The script prints one JSON line with the timings and the numpy version,
the BLAS library and the core count. It exits 1 with an `error:` line
if a shape, a rank, the checksum, a plan's counts or a sweep's
coverage are off, if a frontier case's series is not the
conjectured one (also when its matrix is over the default budget), or
if a timed cached call is not served from the cache.

Usage:
    PYTHONPATH=src python3 scripts/bench_kernel.py
"""

import hashlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

import numpy as np

from genforms import cli, macaulay
from genforms.macaulay import (
    ResourceLimit,
    ideal_dimension_at_degree,
    macaulay_shape,
    quotient_series,
)
from genforms.monomials import enumerate_monomials, monomial_count
from genforms.verifier import (
    DEFAULT_BUDGET,
    CaseSpec,
    case_series,
    certified_ks,
    default_family,
    plan_sweep,
    pure_power_family,
    run_sweep,
)

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

# (n, source degree, degree, xn_free, bounds) of every scatter table that
# the pure-power points of (4,2,2,5) (4,2,3,5) (4,3,2,5) (5,2,2,6) (4,2,4,5)
# build: the powering products (bounds None), then the one random form's
# Macaulay rows, over the monomials standard for x_1^{md}, ..., x_n^{md}
# (bounds (md,) * n). verify_case settles these k = n+1 cases by theorem
# and builds none of them.
_B4, _B6, _B8 = (4,) * 4, (6,) * 4, (8,) * 4
TABLES = (
    (4, 2, 4, False, None), (4, 3, 6, False, None), (4, 4, 6, False, None),
    (4, 4, 8, False, None), (5, 2, 4, False, None),
    (4, 4, 4, False, _B4), *((4, 4, e, True, _B4) for e in range(5, 9)),
    (4, 6, 6, False, _B6), *((4, 6, e, True, _B6) for e in range(7, 14)),
    (4, 8, 8, False, _B8), *((4, 8, e, True, _B8) for e in range(9, 19)),
    (5, 4, 4, False, (4,) * 5), *((5, 4, e, True, (4,) * 5) for e in range(5, 11)),
)
# (n, d, m, k) of the frontier cases, each eliminated cold at its pure-power point
FRONTIER = ((4, 2, 8, 6), (7, 2, 2, 9), (5, 2, 4, 7), (6, 2, 3, 8), (5, 3, 3, 7))
# (n, d, m, k) of perfbench's ci-deep cases, each computed once, then timed as cache hits
HITS = ((4, 2, 2, 5), (4, 2, 3, 5), (4, 3, 2, 5), (5, 2, 2, 6), (4, 2, 4, 5))
# (n, d, m, top k, cases, intervals) of each planned cell: k = 1..top k
PLANS = ((4, 2, 8, 969, 33, 11), (5, 3, 3, 715, 29, 9), (6, 2, 3, 462, 26, 8),
         (4, 3, 3, 220, 22, 7))
# (n, d, m, top k, direct cases, intervals) of each swept cell: k = 1..top k
SWEEPS = ((4, 2, 6, 455, 27, 8), (4, 4, 3, 455, 27, 8), (5, 2, 4, 495, 26, 8))
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
                   macaulay._xn_shift, macaulay._exponents, macaulay.enumerate_monomials,
                   case_series):
        cached.cache_clear()


def _table_rows(n, dg, e, xn_free, bounds) -> int:
    """Multipliers of a table: the degree-(e - dg) monomials, only the
    standard ones under bounds, only the x_n-free ones with xn_free."""
    return sum(
        1 for u in enumerate_monomials(n, e - dg)
        if (bounds is None or all(x < b for x, b in zip(u, bounds)))
        and not (xn_free and u[-1])
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
    """Seconds of one cold elimination per frontier case at its
    pure-power point. Raises WrongResult unless every series is the
    conjectured one; a case over the matrix budget is missed too."""
    results = []
    for case in cases:
        _clear_caches()
        spec = CaseSpec(*case, seed=SEED)
        start = time.perf_counter()
        conjectured = spec.conjectured
        trunc = conjectured.trunc
        family = pure_power_family(spec, SEED)
        try:
            series = quotient_series(family, trunc, budget=DEFAULT_BUDGET)
        except ResourceLimit as exc:
            raise WrongResult(f"frontier case {list(case)} not attained: {exc}") from exc
        seconds = time.perf_counter() - start
        if series != conjectured:
            raise WrongResult(f"frontier case {list(case)} not attained: {series.coeffs}")
        results.append({"case": list(case), "cold_s": seconds})
    return results


def time_hits(cases=HITS, repeats=REPEATS) -> list:
    """Median seconds of `repeats` in-process cached `genforms --cache F
    verify` calls of each case, after one call that computes it. Raises
    WrongResult unless every timed call prints "cached": true and
    "rank_calls": 0."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache.jsonl")
        for case in cases:
            argv = ["--cache", cache, "verify",
                    *(f"--{name}={value}" for name, value in zip("ndmk", case))]
            with redirect_stdout(io.StringIO()):
                cli.main(argv)
            times = []
            for _ in range(repeats):
                out = io.StringIO()
                start = time.perf_counter()
                with redirect_stdout(out):
                    cli.main(argv)
                times.append(time.perf_counter() - start)
                try:
                    rec = json.loads(out.getvalue())
                except ValueError:
                    rec = {}
                if (rec.get("cached"), rec.get("rank_calls")) != (True, 0):
                    raise WrongResult(
                        f"hit {list(case)} not served from the cache: {out.getvalue()!r}"
                    )
            results.append({"case": list(case), "median_s": statistics.median(times)})
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


def time_plans(plans=PLANS, repeats=REPEATS) -> list:
    """Median seconds of `repeats` cold plans of each cell's whole k
    range, the caches cleared before each plan."""
    results = []
    for n, d, m, top, cases, intervals in plans:
        times = []
        for _ in range(repeats):
            _clear_caches()
            start = time.perf_counter()
            plan = plan_sweep(n, d, m, 1, top)
            times.append(time.perf_counter() - start)
            if (len(plan.cases), len(plan.intervals)) != (cases, intervals):
                raise WrongResult(
                    f"plan {(n, d, m)} 1..{top}: {len(plan.cases)} cases and "
                    f"{len(plan.intervals)} intervals, expected {cases} and {intervals}"
                )
        results.append({"cell": [n, d, m], "k": [1, top], "cases": cases,
                        "intervals": intervals, "cold_median_s": statistics.median(times)})
    return results


def time_sweeps(sweeps=SWEEPS) -> list:
    """Seconds of one cold plan and sweep of each cell's whole k range,
    the caches cleared first. Raises WrongResult unless the cell has its
    counts of direct cases and intervals, every k is covered and none is
    skipped."""
    results = []
    for n, d, m, top, cases, intervals in sweeps:
        _clear_caches()
        start = time.perf_counter()
        records, witnesses, failures, skipped = run_sweep(plan_sweep(n, d, m, 1, top))
        seconds = time.perf_counter() - start
        covered = len(certified_ks(records, witnesses))
        got = (len(records), len(witnesses), covered, len(skipped))
        if got != (cases, intervals, top, 0):
            raise WrongResult(
                f"sweep {(n, d, m)} 1..{top}: {got[0]} direct cases, {got[1]} intervals, "
                f"{got[2]} k covered and {got[3]} skipped, expected {cases}, "
                f"{intervals}, {top} and 0"
            )
        results.append({"cell": [n, d, m], "k": [1, top], "cases": cases,
                        "intervals": intervals, "cold_s": seconds})
    return results


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
        plans = time_plans()
        sweeps = time_sweeps()
        frontier = time_frontier()
        hits = time_hits()
    except WrongResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"seed": SEED, "repeats": REPEATS, **environment(),
                      "cases": results, "chain": chain, "assembly": assembly,
                      "plan": plans, "sweep": sweeps, "frontier": frontier,
                      "hits": hits}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
