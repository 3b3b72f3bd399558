"""Tests for prime-field forms, Macaulay matrices, and quotient series."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genforms.macaulay import (
    DegreeStat,
    FormFamily,
    ModPPoly,
    ResourceLimit,
    _probe_degree,
    first_order_lower_bound,
    hilbert_series_of_quotient,
    ideal_dimension_at_degree,
    macaulay_shape,
    multiply,
    power,
    quotient_series_with_stats,
    random_form,
)
from genforms.modp import DEFAULT_PRIME
from genforms.monomials import enumerate_monomials, monomial_count, rank as mono_rank
from genforms.series import TruncatedSeries, binomial

P = DEFAULT_PRIME
PRIMES = (2, 3, 101, 65537, 2**31 - 1)


def form(n, terms, prime=P):
    degree = sum(next(iter(terms)))
    return ModPPoly.from_monomial_dict(n, degree, terms, prime)


def pure_power_family(n, d, prime=P):
    forms = []
    for i in range(n):
        mono = tuple(d if j == i else 0 for j in range(n))
        forms.append(form(n, {mono: 1}, prime))
    return FormFamily(n, tuple(forms), prime)


def test_random_form_deterministic():
    a = random_form(2, 1, np.random.default_rng(42))
    b = random_form(2, 1, np.random.default_rng(42))
    assert a == b
    assert len(a.coeffs) == 2


def test_random_form_coefficient_count():
    f = random_form(3, 2, np.random.default_rng(0))
    assert len(f.coeffs) == monomial_count(3, 2) == 6


def test_two_draws_differ():
    rng = np.random.default_rng(7)
    assert random_form(3, 2, rng) != random_form(3, 2, rng)


def test_multiply_difference_of_squares():
    f = form(2, {(1, 0): 1, (0, 1): 1})
    g = form(2, {(1, 0): 1, (0, 1): P - 1})
    fg = multiply(f, g)
    assert fg == form(2, {(2, 0): 1, (0, 2): P - 1})


def test_multiply_by_monomial_permutes_coefficients():
    rng = np.random.default_rng(3)
    f = random_form(2, 2, rng)
    x = form(2, {(1, 0): 1})
    shifted = multiply(f, x)
    assert shifted.degree == 3
    for i, c in enumerate(f.coeffs):
        src = (2, 0) if i == 0 else (1, 1) if i == 1 else (0, 2)
        target = (src[0] + 1, src[1])
        assert shifted.coeffs[mono_rank(target)] == c


def test_square_of_binomial():
    f = form(2, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, f)
    assert sq == form(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert power(f, 2) == sq


def test_power_identity_and_multinomial():
    f = form(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert power(f, 1) == f
    sq = power(f, 2)
    assert sq.coeffs[mono_rank((1, 1, 0))] == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_power_multiply_consistency(m):
    f = random_form(2, 2, np.random.default_rng(m))
    assert power(f, m) == multiply(power(f, m - 1), f)


def reference_multiply(f, g):
    """The product by convolution over exponent-vector addition, on
    Python ints: the slow reference for `multiply`."""
    n, p = f.n, f.prime
    degree = f.degree + g.degree
    coeffs = [0] * monomial_count(n, degree)
    for a, u in zip(f.coeffs, enumerate_monomials(n, f.degree)):
        for b, v in zip(g.coeffs, enumerate_monomials(n, g.degree)):
            target = mono_rank(tuple(x + y for x, y in zip(u, v)))
            coeffs[target] = (coeffs[target] + a * b) % p
    return ModPPoly(n, degree, tuple(coeffs), p)


def reference_power(f, m):
    result = f
    for _ in range(m - 1):
        result = reference_multiply(result, f)
    return result


@st.composite
def forms(draw, n, prime, max_degree=5):
    """A form with uniform coefficients, or with every coefficient p - 1."""
    degree = draw(st.integers(0, max_degree))
    count = monomial_count(n, degree)
    if draw(st.booleans()):
        coeffs = [prime - 1] * count
    else:
        coeffs = draw(st.lists(st.integers(0, prime - 1), min_size=count, max_size=count))
    return ModPPoly(n, degree, tuple(coeffs), prime)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from(PRIMES))
def test_multiply_matches_reference(data, n, prime):
    f = data.draw(forms(n, prime))
    g = data.draw(forms(n, prime))
    assert multiply(f, g) == reference_multiply(f, g)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from(PRIMES),
       m=st.integers(1, 5))
def test_power_matches_reference(data, n, prime, m):
    f = data.draw(forms(n, prime))
    assert power(f, m) == reference_power(f, m)


@pytest.mark.parametrize("prime", PRIMES)
def test_power_of_all_p_minus_1_form(prime):
    f = ModPPoly(4, 5, (prime - 1,) * monomial_count(4, 5), prime)
    assert power(f, 5) == reference_power(f, 5)


def test_ideal_dimension_squares():
    fam = pure_power_family(2, 2)
    assert ideal_dimension_at_degree(fam, 2) == 2
    # oracle: x^3, x^2 y, x y^2, y^3 all lie in (x^2, y^2)
    assert ideal_dimension_at_degree(fam, 3) == 4


def test_ideal_dimension_below_generators_is_zero():
    fam = pure_power_family(2, 2)
    assert ideal_dimension_at_degree(fam, 1) == 0
    assert ideal_dimension_at_degree(fam, 0) == 0


def test_macaulay_shape():
    fam = FormFamily.random(3, 14, 45, seed=1)
    assert macaulay_shape(fam, 15) == (135, 136)


def test_quotient_complete_intersection_of_squares():
    series = hilbert_series_of_quotient(pure_power_family(2, 2), 3)
    assert series.coeffs == (1, 2, 1, 0)
    assert series.terminated


def test_quotient_four_random_quadrics():
    fam = FormFamily.random(3, 2, 4, seed=5)
    series = hilbert_series_of_quotient(fam, 3)
    assert series.coeffs == (1, 3, 2, 0)


def test_quotient_empty_family():
    fam = FormFamily(3, ())
    assert hilbert_series_of_quotient(fam, 2).coeffs == (1, 3, 6)


def test_specialization_and_first_order_bounds():
    rnd = random.Random(99)
    for _ in range(30):
        n = rnd.randint(1, 3)
        k = rnd.randint(0, 4)
        degrees = [rnd.randint(1, 4) for _ in range(k)]
        seed = rnd.randrange(10**6)
        rng = np.random.default_rng(seed)
        fam = FormFamily(n, tuple(random_form(n, d, rng) for d in degrees), seed=seed)
        max_deg = rnd.randint(0, 8)
        series, stats = quotient_series_with_stats(fam, max_deg)
        for st in stats:
            assert st.rank <= min(st.rows, st.cols)
            assert series.coeffs[st.e] >= first_order_lower_bound(fam, st.e)
            assert series.coeffs[st.e] <= binomial(n + st.e - 1, st.e)


def test_adding_a_form_never_raises_coefficients():
    base = FormFamily.random(3, 2, 3, seed=8)
    bigger = FormFamily.random(3, 2, 4, seed=8)
    a = hilbert_series_of_quotient(base, 5)
    b = hilbert_series_of_quotient(bigger, 5)
    assert all(x >= y for x, y in zip(a.coeffs, b.coeffs))


def test_replay_determinism():
    a = hilbert_series_of_quotient(FormFamily.random(3, 3, 4, seed=21), 6)
    b = hilbert_series_of_quotient(FormFamily.random(3, 3, 4, seed=21), 6)
    assert a == b


def test_resource_limit():
    fam = FormFamily.random(3, 2, 4, seed=0)
    with pytest.raises(ResourceLimit):
        quotient_series_with_stats(fam, 3, budget=10)


def test_forms_reject_prime_above_2_31():
    with pytest.raises(ValueError, match="2\\^31"):
        ModPPoly(2, 1, (1, 1), prime=4294967311)


def reference_quotient_series(family, max_deg, budget=None):
    """Every degree eliminated from scratch, in degree order: the slow
    reference for `quotient_series_with_stats`."""
    coeffs = []
    stats = []
    for e in range(max_deg + 1):
        rows, cols = macaulay_shape(family, e)
        if budget is not None and rows * cols > budget:
            raise ResourceLimit(
                f"degree-{e} Macaulay matrix has {rows}x{cols} = {rows * cols} "
                f"entries, over budget {budget}"
            )
        dim = ideal_dimension_at_degree(family, e)
        coeffs.append(cols - dim)
        stats.append(DegreeStat(e, rows, cols, dim))
        if coeffs[-1] == 0:
            coeffs.extend([0] * (max_deg - e))
            break
    return TruncatedSeries(tuple(coeffs), terminated=coeffs[-1] == 0), stats


@st.composite
def families(draw):
    """Random forms of mixed degrees 1..4, or a family repeating forms
    (a degenerate specialization); p = 2 often draws zero forms."""
    n = draw(st.integers(1, 4))
    prime = draw(st.sampled_from((2, 3, 101, 2**31 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = draw(st.lists(st.integers(1, 4), max_size=6))
    forms = [random_form(n, d, rng, prime) for d in degrees]
    if forms and draw(st.booleans()):
        forms = [forms[i] for i in draw(
            st.lists(st.integers(0, len(forms) - 1), min_size=2, max_size=6))]
    return FormFamily(n, tuple(forms), prime)


def _outcome(fn, family, max_deg, budget):
    try:
        return fn(family, max_deg, budget)
    except ResourceLimit as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), family=families(), max_deg=st.integers(0, 10))
def test_quotient_series_matches_per_degree_reference(data, family, max_deg):
    budget = None
    if data.draw(st.booleans()):
        # cut just below or at the matrix of a degree near the probe
        probe = _probe_degree(family, max_deg)
        near = max_deg // 2 if probe is None else probe + data.draw(st.integers(-2, 2))
        rows, cols = macaulay_shape(family, min(max(near, 0), max_deg))
        budget = rows * cols - data.draw(st.sampled_from((0, 1)))
    assert _outcome(quotient_series_with_stats, family, max_deg, budget) == _outcome(
        reference_quotient_series, family, max_deg, budget
    )
