"""An exact oracle on the real family: powers of linear forms (d = 1).

By Macaulay inverse systems (Emsalem & Iarrobino, J. Algebra 174, 1995),
the degree-(m+1) piece of (l_1^m, ..., l_k^m) is dual to the forms of
degree m+1 singular at k general points of P^{n-1}. The Alexander-
Hirschowitz theorem (J. Algebraic Geom. 4, 1995; Brambilla & Ottaviani,
JPAA 212, 2008) gives their dimension for m >= 2: max(0, C(n+m, m+1) - nk),
one more in four sporadic cases. So the quotient's degree-(m+1)
coefficient is that value for generic forms, and the certifier, which
powers, assembles, seeds and eliminates exactly as for d >= 2, must find
it at the default prime, and must say NotAttained in the sporadic cases.
"""

from math import comb

import pytest

from genforms.macaulay import quotient_series_with_stats
from genforms.verifier import NOT_ATTAINED, CaseSpec, default_family, verify_case

# (n, d, m, k) whose degree-(m+1) coefficient is one above the AH value
SPORADIC = ((3, 1, 3, 5), (4, 1, 3, 9), (5, 1, 3, 14), (5, 1, 2, 7))


def ah_coefficient(n, m, k):
    """Degree-(m+1) coefficient of R/(k generic m-th powers of linear
    forms) in n variables."""
    return max(0, comb(n + m, m + 1) - n * k) + ((n, 1, m, k) in SPORADIC)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 7) for m in range(2, 6)])
def test_degree_m_plus_1_coefficient_is_the_ah_value(n, m):
    """Every k from 1 to one past the first k with nk >= C(n+m, m+1), where
    the AH value reaches 0 (larger k only add forms to a zero piece). The
    degree-m coefficient is C(n+m-1, m) - k: generic m-th powers of linear
    forms are independent up to that count."""
    first_zero = -(-comb(n + m, m + 1) // n)
    for k in range(1, min(comb(n + m - 1, m), first_zero + 1) + 1):
        spec = CaseSpec(n, 1, m, k)
        series, _ = quotient_series_with_stats(default_family(spec, spec.seed), m + 1)
        assert series.coeffs[m] == comb(n + m - 1, m) - k, (n, m, k)
        assert series.coeffs[m + 1] == ah_coefficient(n, m, k), (n, m, k)


@pytest.mark.parametrize("case", SPORADIC, ids=str)
def test_sporadic_cases_are_not_attained_by_exactly_one(case):
    """Every trial exceeds the conjectured series by exactly 1, at degree
    m + 1 and nowhere else."""
    n, _, m, _ = case
    spec = CaseSpec(*case)
    record = verify_case(spec)
    assert record.verdict == NOT_ATTAINED
    assert record.seeds_tried == tuple(range(spec.trials))
    excess = [int(e == m + 1) for e in range(record.trunc + 1)]
    for seed in record.seeds_tried:
        series, _ = quotient_series_with_stats(default_family(spec, seed), record.trunc)
        diff = [c - g for c, g in zip(series.coeffs, record.conjectured.coeffs)]
        assert diff == excess, (case, seed)
