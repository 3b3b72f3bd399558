"""Tests for the explicit monomial-ideal family and the search machinery."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from genforms.constructions import (
    BudgetExceeded,
    FrobergFamilyParams,
    HypothesisFailed,
    InvalidParams,
    check_theorem1,
    corollary1_range,
    exhaustive_monomial_search,
    froberg_monomial_ideal,
)
from genforms.macaulay import (
    FormFamily,
    ModPPoly,
    ideal_dimension_at_degree,
    macaulay_rows,
    macaulay_shape,
)
from genforms.monomials import (
    MonomialIdeal,
    contains_power_of_maximal_ideal,
    enumerate_monomials,
    monomial_count,
    quotient_hilbert_function,
)
from genforms.series import DegreeList, TruncatedSeries, binomial, conjectured_series

SQUARES_XY_GENS = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0)]


def reference_monomials(n, d):
    """The degree-d monomials in n variables in lex order, x1^d first,
    from itertools alone: the reference order of the Macaulay columns and
    rows here, sharing no code with `monomials.lex_exponents`."""
    exps = (tuple(c.count(i) for i in range(n))
            for c in combinations_with_replacement(range(n), d))
    return sorted(exps, reverse=True)


def monomial_form(g):
    return ModPPoly.from_monomial_dict(len(g), sum(g), {tuple(g): 1})


def monomial_family(n, gens):
    return FormFamily(n, tuple(monomial_form(g) for g in gens))


def macaulay_row(generator, multiplier):
    """The row multiplier * generator of the Macaulay matrix of their
    joint degree."""
    n, dm = len(generator), sum(multiplier)
    rows = macaulay_rows(monomial_family(n, [generator]), sum(generator) + dm)
    return rows[reference_monomials(n, dm).index(multiplier)]


def has_dependent_rows(n, gens, e):
    family = monomial_family(n, gens)
    return ideal_dimension_at_degree(family, e) < macaulay_shape(family, e)[0]


def test_family_l1_is_maximal_ideal_power():
    ideal = froberg_monomial_ideal(FrobergFamilyParams(4, 2, 1))
    assert len(ideal.generators) == 10
    assert contains_power_of_maximal_ideal(ideal, 2)


def test_family_excludes_the_right_monomials():
    ideal = froberg_monomial_ideal(FrobergFamilyParams(4, 2, 4))
    assert len(ideal.generators) == 7
    gens = set(ideal.generators)
    for j in (1, 2, 3):
        excluded = tuple(1 if i in (0, j) else 0 for i in range(4))
        assert excluded not in gens


def test_family_degree3():
    ideal = froberg_monomial_ideal(FrobergFamilyParams(4, 3, 2))
    assert len(ideal.generators) == 19
    assert (1, 2, 0, 0) not in set(ideal.generators)  # x1*x2^2 excluded


def test_family_invalid_params():
    with pytest.raises(InvalidParams):
        FrobergFamilyParams(3, 2, 1)
    with pytest.raises(InvalidParams):
        FrobergFamilyParams(4, 1, 1)
    with pytest.raises(InvalidParams):
        FrobergFamilyParams(4, 2, 5)


def test_family_contains_next_power_of_maximal_ideal():
    ideal = froberg_monomial_ideal(FrobergFamilyParams(4, 2, 4))
    assert contains_power_of_maximal_ideal(ideal, 3)


def test_check_theorem1_m_squared():
    report = check_theorem1(froberg_monomial_ideal(FrobergFamilyParams(4, 2, 1)), 4, 2)
    assert report.r == 10
    assert report.threshold == 20 and 4 * report.r >= report.threshold
    assert report.predicted.coeffs[:3] == (1, 4, 0)


def test_check_theorem1_family_l4():
    report = check_theorem1(froberg_monomial_ideal(FrobergFamilyParams(4, 2, 4)), 4, 2)
    assert report.r == 7
    assert report.predicted.coeffs[:3] == (1, 4, 3)


def test_check_theorem1_rejects_mixed_quadric_ideal():
    ideal = MonomialIdeal.from_generators(4, SQUARES_XY_GENS)
    with pytest.raises(HypothesisFailed, match="m\\^3"):
        check_theorem1(ideal, 4, 2)


def induction_inequality(n, d):
    """(n+d - n(d+1)) * C(n+d-1, d) <= -n^2 (d+1), in exact integers."""
    return (n + d - n * (d + 1)) * binomial(n + d - 1, d) <= -(n * n) * (d + 1)


@pytest.mark.parametrize("n", range(4, 13))
@pytest.mark.parametrize("d", range(2, 13))
def test_induction_inequality(n, d):
    assert induction_inequality(n, d)


def test_induction_inequality_base_case_numbers():
    # d=2 reduces to -(n-1)n(n+1)/3 <= -n^2
    assert -(3 * 4 * 5) // 3 <= -16
    assert induction_inequality(4, 2)
    assert -(4 * 5 * 6) // 3 <= -25
    assert induction_inequality(5, 2)


def test_corollary1_range():
    assert corollary1_range(4, 2) == (7, 10)
    assert corollary1_range(4, 3) == (17, 20)
    assert corollary1_range(5, 2) == (11, 15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_corollary1_content_n4(d, l):
    params = FrobergFamilyParams(4, d, l)
    ideal = froberg_monomial_ideal(params)
    check_theorem1(ideal, 4, d)
    sieved = quotient_hilbert_function(ideal, d + 1)
    expected = conjectured_series(DegreeList(4, (d,) * params.k), d + 1)
    assert sieved.coeffs == expected.coeffs
    lo, hi = corollary1_range(4, d)
    assert lo <= params.k <= hi


TARGET_1_4T_5T2 = TruncatedSeries((1, 4, 5, 0), terminated=True)


def test_search_1_4t_5t2_impossible():
    assert exhaustive_monomial_search(4, 2, 5, TARGET_1_4T_5T2) is None


def test_search_pruned_and_unpruned_agree():
    for n, d, k, target in [
        (4, 2, 5, TARGET_1_4T_5T2),
        (3, 2, 3, TruncatedSeries((1, 3, 3, 1, 0), terminated=True)),
    ]:
        pruned = exhaustive_monomial_search(n, d, k, target, prune=True)
        unpruned = exhaustive_monomial_search(n, d, k, target, prune=False)
        assert (pruned is None) == (unpruned is None)


def test_search_unique_candidate():
    from genforms.monomials import enumerate_monomials

    found = exhaustive_monomial_search(4, 2, 10, TruncatedSeries((1, 4, 0), terminated=True))
    assert found is not None
    assert set(found.generators) == set(enumerate_monomials(4, 2))


def test_search_complete_intersection():
    found = exhaustive_monomial_search(2, 2, 2, TruncatedSeries((1, 2, 1, 0), terminated=True))
    assert found.generators == ((0, 2), (2, 0))


def test_search_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        exhaustive_monomial_search(4, 2, 5, TARGET_1_4T_5T2, budget=2, prune=False)


def test_search_terminating_target_needs_all_pure_powers():
    # fewer generators than variables can never terminate
    assert exhaustive_monomial_search(3, 2, 2, TruncatedSeries((1, 3, 0), terminated=True)) is None


def test_positive_2d_minus_1_coefficient_blocks_monomial_ideals():
    # n=5, d=2, k=6: conjectured series has a positive t^3 coefficient,
    # so no monomial ideal can attain it and every candidate containing
    # the pure powers carries a trivial syzygy.
    spec = DegreeList(5, (2,) * 6)
    target = conjectured_series(spec, 4)
    assert target.coeffs[3] > 0
    assert exhaustive_monomial_search(5, 2, 6, target) is None
    pure = [tuple(2 if i == j else 0 for i in range(5)) for j in range(5)]
    mixed = [m for m in enumerate_monomials(5, 2) if m not in set(pure)]
    for extra in combinations(mixed, 1):
        assert has_dependent_rows(5, pure + list(extra), 3)


def test_syzygy_witness_degree2():
    # x1 * (x1 x2) = x2 * x1^2: two equal rows in degree 2d - 1 = 3
    assert np.array_equal(macaulay_row((1, 1, 0, 0), (1, 0, 0, 0)),
                          macaulay_row((2, 0, 0, 0), (0, 1, 0, 0)))
    assert has_dependent_rows(4, SQUARES_XY_GENS, 3)


def test_syzygy_witness_degree3():
    # x^2 * (x^2 y) = (x y) * x^3 = x^4 y in degree 2d - 1 = 5
    row = macaulay_row((2, 1, 0), (2, 0, 0))
    assert np.array_equal(row, macaulay_row((3, 0, 0), (1, 1, 0)))
    assert np.flatnonzero(row).tolist() == [reference_monomials(3, 5).index((4, 1, 0))]


def test_syzygy_witness_pure_powers_only():
    # the pure powers alone have no syzygy below degree 2d
    gens = [tuple(2 if i == j else 0 for i in range(3)) for j in range(3)]
    assert not has_dependent_rows(3, gens, 3)
