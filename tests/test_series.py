"""Tests for the truncated-series layer."""

import pytest
from hypothesis import given, settings, strategies as st

from genforms.series import (
    CapExceeded,
    DegreeList,
    IncomparableTruncation,
    Ordering,
    SignedSeries,
    TruncatedSeries,
    binomial,
    ceiling,
    conjectured_series,
    default_truncation,
    expand_rational,
    format_series,
    lex_compare,
)


def sympy_expansion(n, degrees, trunc):
    """Independent oracle: sympy Taylor expansion of the rational function."""
    import sympy

    t = sympy.symbols("t")
    expr = sympy.prod([1 - t**d for d in degrees], start=sympy.Integer(1))
    expr = expr / (1 - t) ** n
    poly = sympy.Poly(sympy.series(expr, t, 0, trunc + 1).removeO(), t)
    return tuple(int(poly.coeff_monomial(t**i)) for i in range(trunc + 1))


def test_expand_rational_five_quadrics_numbers():
    got = expand_rational(DegreeList(4, (2,) * 5), 4).coeffs
    # constant..t^2 match the known 1 + 4t + 5t^2; the t^4 coefficient is
    # -5 per the oracle (35 - 50 + 10)
    assert got == (1, 4, 5, 0, -5)
    assert got == sympy_expansion(4, [2] * 5, 4)


def test_expand_rational_empty_degree_list():
    got = expand_rational(DegreeList(3, ()), 3).coeffs
    assert got == (1, 3, 6, 10)


def test_expand_rational_exact_division():
    assert expand_rational(DegreeList(2, (2, 2)), 3).coeffs == (1, 2, 1, 0)


@settings(deadline=None)
@given(
    n=st.integers(1, 3),
    degrees=st.lists(st.integers(1, 3), max_size=4),
    trunc=st.integers(0, 8),
)
def test_expand_rational_matches_sympy_oracle(n, degrees, trunc):
    got = expand_rational(DegreeList(n, tuple(degrees)), trunc).coeffs
    assert got == sympy_expansion(n, degrees, trunc)


@given(n=st.integers(1, 6), trunc=st.integers(0, 20))
def test_expand_rational_no_generators_is_binomial(n, trunc):
    got = expand_rational(DegreeList(n, ()), trunc).coeffs
    assert got == tuple(binomial(n + i - 1, i) for i in range(trunc + 1))


def test_ceiling_five_quadrics():
    out = ceiling(SignedSeries((1, 4, 5, 0, -5)))
    assert out.coeffs == (1, 4, 5, 0, 0)
    assert out.terminated


def test_ceiling_identity_on_positive():
    out = ceiling(SignedSeries((1, 2, 3)))
    assert out.coeffs == (1, 2, 3)
    assert not out.terminated


def test_ceiling_stops_at_first_nonpositive():
    out = ceiling(SignedSeries((1, -1, 7)))
    assert out.coeffs == (1, 0, 0)
    assert out.terminated


signed = st.builds(
    SignedSeries, st.lists(st.integers(-50, 50), min_size=1, max_size=12).map(tuple)
)


@given(signed)
def test_ceiling_idempotent(series):
    once = ceiling(series)
    twice = ceiling(SignedSeries(once.coeffs))
    assert once.coeffs == twice.coeffs


@given(signed)
def test_ceiling_zero_tail(series):
    out = ceiling(series).coeffs
    if 0 in out:
        first = out.index(0)
        assert all(c == 0 for c in out[first:])


def test_conjectured_series_26_degree14_forms():
    low = conjectured_series(DegreeList(3, (14,) * 26), 16)
    assert low.coeffs[:14] == tuple(binomial(i + 2, 2) for i in range(14))
    assert low.coeffs[14:] == (94, 58, 0)
    high = conjectured_series(DegreeList(3, (14,) * 45), 16)
    assert high.coeffs[:14] == tuple(binomial(i + 2, 2) for i in range(14))
    assert high.coeffs[14:] == (75, 1, 0)


def test_conjectured_series_five_quadrics():
    assert conjectured_series(DegreeList(4, (2,) * 5), 4).coeffs == (1, 4, 5, 0, 0)


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_complete_intersection_is_convolution_of_blocks(n, d):
    # k = n, all degrees d: the series is (1 + t + ... + t^(d-1))^n
    poly = [1]
    for _ in range(n):
        poly = _convolve(poly, [1] * d)
    trunc = n * (d - 1)
    raw = expand_rational(DegreeList(n, (d,) * n), trunc)
    assert all(c >= 0 for c in raw.coeffs)
    got = conjectured_series(DegreeList(n, (d,) * n), trunc)
    assert list(got.coeffs) == poly[: trunc + 1]
    assert not got.terminated


def test_lex_compare_examples():
    eq = TruncatedSeries((1, 2, 3))
    assert lex_compare(eq, TruncatedSeries((1, 2, 3))) is Ordering.EQUAL
    assert (
        lex_compare(TruncatedSeries((1, 3, 0)), TruncatedSeries((1, 2, 9)))
        is Ordering.GREATER
    )
    f = TruncatedSeries((1, 4, 5, 0), terminated=True)
    g = TruncatedSeries((1, 4, 5), terminated=True)
    assert lex_compare(f, g) is Ordering.EQUAL


def test_lex_compare_incomparable_truncation():
    f = TruncatedSeries((1, 2))
    g = TruncatedSeries((1, 2, 3))
    with pytest.raises(IncomparableTruncation):
        lex_compare(f, g)


terminated_series = st.builds(
    lambda c: TruncatedSeries(tuple(c), terminated=True),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
)


@given(terminated_series, terminated_series)
def test_lex_compare_antisymmetric(f, g):
    fg = lex_compare(f, g)
    gf = lex_compare(g, f)
    assert fg.value == -gf.value
    hi = max(f.trunc, g.trunc)
    identical = all(f.coefficient(e) == g.coefficient(e) for e in range(hi + 1))
    assert (fg is Ordering.EQUAL) == identical


@given(terminated_series, terminated_series, terminated_series)
def test_lex_compare_transitive(f, g, h):
    if lex_compare(f, g) is not Ordering.LESS and lex_compare(g, h) is not Ordering.LESS:
        assert lex_compare(f, h) is not Ordering.LESS


def test_default_truncation_degree14_forms():
    assert default_truncation(DegreeList(3, (14,) * 26), cap=64) == 17


def test_default_truncation_complete_intersection_hits_cap():
    assert default_truncation(DegreeList(2, (3,)), cap=10) == 10


def test_default_truncation_five_quadrics():
    assert default_truncation(DegreeList(4, (2,) * 5), cap=64) == 4


def test_default_truncation_cap_exceeded():
    # four degree-10 forms in n=3 cannot terminate by degree 5
    with pytest.raises(CapExceeded):
        default_truncation(DegreeList(3, (10,) * 4), cap=5)


def test_format_series():
    assert format_series(TruncatedSeries((1, 4, 5, 0, 0))) == "1 + 4t + 5t^2"
    assert format_series(TruncatedSeries((1, 2, 1, 0))) == "1 + 2t + t^2"
    assert format_series(TruncatedSeries((0,))) == "0"
    assert format_series(TruncatedSeries((2, 1))) == "2 + t"


def test_truncated_series_rejects_negative():
    with pytest.raises(ValueError):
        TruncatedSeries((1, -1))
