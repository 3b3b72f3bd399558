"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single PASS line with its runtime so the suite output
doubles as a checklist. Timing bounds are generous ceilings, not benchmarks.
"""

import random
import time

import numpy as np
import pytest

from genforms.constructions import (
    FrobergFamilyParams,
    check_theorem1,
    exhaustive_monomial_search,
    froberg_monomial_ideal,
)
from genforms.macaulay import (
    FormFamily,
    first_order_lower_bound,
    ideal_dimension_at_degree,
    quotient_series_with_stats,
    random_form,
)
from genforms.modp import DEFAULT_PRIME, RowReducer, rank
from genforms.monomials import monomial_count, quotient_hilbert_function
from genforms.series import (
    DegreeList,
    Ordering,
    SignedSeries,
    TruncatedSeries,
    binomial,
    ceiling,
    conjectured_series,
    lex_compare,
)
from genforms.verifier import (
    NOT_ATTAINED,
    VERIFIED,
    CaseSpec,
    TABLE_CELLS,
    degenerate_family,
    suite_k_values,
    verify_case,
    verify_interval,
)


def report(label, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (limit {limit}s)"
    print(f"PASS {label} ({elapsed:.2f}s < {limit}s)")


def test_acceptance_1_golden_series_values():
    start = time.perf_counter()
    assert conjectured_series(DegreeList(4, (2,) * 5), 4).coeffs == (1, 4, 5, 0, 0)
    s26 = conjectured_series(DegreeList(3, (14,) * 26), 16)
    assert s26.coeffs[14] == 94 and s26.coeffs[15] == 58 and s26.coeffs[16] == 0
    s45 = conjectured_series(DegreeList(3, (14,) * 45), 15)
    assert s45.coeffs[14] == 75 and s45.coeffs[15] == 1
    assert monomial_count(3, 15) == 136
    report("golden series values", start, 1.0)

    start = time.perf_counter()
    fam = FormFamily.random(3, 14, 45, seed=0)
    assert ideal_dimension_at_degree(fam, 15) == 135 == 3 * 45
    report("45 forms give 135 independent multiples in degree 15", start, 30.0)


def test_acceptance_2_monomial_family_content():
    start = time.perf_counter()
    checked = 0
    for n in (4, 5, 6):
        for d in (2, 3, 4):
            for l in range(1, n + 1):
                params = FrobergFamilyParams(n, d, l)
                ideal = froberg_monomial_ideal(params)
                report_t1 = check_theorem1(ideal, n, d)
                sieved = quotient_hilbert_function(ideal, d + 1)
                expected = conjectured_series(DegreeList(n, (d,) * params.k), d + 1)
                assert sieved.coeffs == expected.coeffs == report_t1.predicted.coeffs
                checked += 1
    assert checked == 3 * (4 + 5 + 6)  # three d values, l ranges over [1, n]
    report(f"monomial family matches conjectured series in {checked} cases", start, 10.0)


def test_acceptance_3_no_monomial_ideal_attains_1_4t_5t2():
    target = TruncatedSeries((1, 4, 5, 0), terminated=True)
    start = time.perf_counter()
    assert exhaustive_monomial_search(4, 2, 5, target, prune=True) is None
    report("pruned 5-quadric search in 4 variables finds nothing", start, 1.0)

    start = time.perf_counter()
    assert exhaustive_monomial_search(4, 2, 5, target, prune=False) is None
    assert binomial(10, 5) == 252  # candidates enumerated by the unpruned run
    report("unpruned 252-candidate search agrees", start, 60.0)


@pytest.mark.parametrize("cell", TABLE_CELLS)
def test_acceptance_4_power_conjecture_table_slice(cell):
    n, d, m = cell
    for k in suite_k_values(n, d, m):
        start = time.perf_counter()
        record = verify_case(CaseSpec(n, d, m, k))
        assert record.verdict == VERIFIED
        assert record.computed == record.conjectured
        report(f"power case n={n} d={d} m={m} k={k} verified", start, 60.0)


def test_acceptance_5_interval_deduction():
    start = time.perf_counter()
    witness = verify_interval(
        verify_case(CaseSpec(3, 2, 7, 26)), verify_case(CaseSpec(3, 2, 7, 45))
    )
    assert witness.record_low.verdict == VERIFIED
    assert witness.record_high.verdict == VERIFIED
    covered = {26, 45} | set(witness.deduced)
    assert covered == set(range(26, 46))
    report("interval 26..45 covered from two endpoint verifications", start, 300.0)


def test_acceptance_6_property_suites():
    start = time.perf_counter()
    rnd = random.Random(2024)

    # ceiling idempotence and zero tail
    for _ in range(200):
        coeffs = tuple(rnd.randint(-5, 9) for _ in range(rnd.randint(1, 12)))
        c = ceiling(SignedSeries(coeffs))
        assert ceiling(SignedSeries(c.coeffs)) == c
        first = next((i for i, x in enumerate(coeffs) if x <= 0), None)
        if first is not None:
            assert all(x == 0 for x in c.coeffs[first:])

    # lex order is total on terminated series
    pool = [
        TruncatedSeries(tuple(rnd.randint(0, 4) for _ in range(rnd.randint(1, 6))), terminated=True)
        for _ in range(60)
    ]
    for a in pool:
        for b in pool:
            cmp = lex_compare(a, b)
            assert cmp in (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)
            if cmp == Ordering.EQUAL:
                assert lex_compare(b, a) == Ordering.EQUAL

    # specialization and first-order bounds on 200 random cases
    for _ in range(200):
        n = rnd.randint(1, 3)
        degrees = [rnd.randint(1, 4) for _ in range(rnd.randint(0, 4))]
        seed = rnd.randrange(10**6)
        rng = np.random.default_rng(seed)
        fam = FormFamily(n, tuple(random_form(n, d, rng) for d in degrees), seed=seed)
        series, stats = quotient_series_with_stats(fam, rnd.randint(0, 10))
        for st in stats:
            assert st.rank <= min(st.rows, st.cols)
            assert first_order_lower_bound(fam, st.e) <= series.coeffs[st.e]
            assert series.coeffs[st.e] <= binomial(n + st.e - 1, st.e)

    # incremental elimination agrees with batch elimination
    rng = np.random.default_rng(6)
    for rows, cols in [(10, 10), (80, 50), (50, 80), (200, 300)]:
        m = rng.integers(0, DEFAULT_PRIME, size=(rows, cols))
        m[rows // 2 :] = m[: rows - rows // 2]
        reducer = RowReducer(cols)
        reducer.add_blocks(iter(m))
        assert reducer.rank == rank(m.copy())

    # determinism: the same case spec replays to an identical record
    import dataclasses

    spec = CaseSpec(3, 2, 2, 7, seed=9)
    a, b = verify_case(spec), verify_case(spec)
    assert dataclasses.replace(a, millis=0.0) == dataclasses.replace(b, millis=0.0)

    report("property suites (ceiling, lex, bounds, ranks, determinism)", start, 120.0)


def test_acceptance_7_degenerate_family_is_rejected():
    start = time.perf_counter()
    record = verify_case(CaseSpec(3, 2, 1, 6), family_builder=degenerate_family)
    assert record.verdict == NOT_ATTAINED
    assert record.verdict != VERIFIED
    report("repeated-form family yields NotAttained", start, 30.0)
