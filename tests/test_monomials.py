"""Tests for monomial enumeration, ranking, and monomial-ideal sieves."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genforms.macaulay import ModPPoly
from genforms.monomials import (
    MonomialIdeal,
    contains_power_of_maximal_ideal,
    divides,
    enumerate_monomials,
    exponent_array,
    lex_exponents,
    lex_rank,
    monomial_count,
    monomial_to_str,
    quotient_hilbert_function,
)

SQUARES_XY_GENS = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0)]


def brute_force_survivors(gens, n, e):
    """Oracle: enumerate exponent vectors directly via itertools."""
    count = 0
    for exps in itertools.product(range(e + 1), repeat=n):
        if sum(exps) != e:
            continue
        if not any(all(g <= x for g, x in zip(gen, exps)) for gen in gens):
            count += 1
    return count


def maximal_ideal_power(n, e):
    """(x1, ..., xn)^e, generated by every degree-e monomial."""
    return MonomialIdeal.from_generators(n, enumerate_monomials(n, e))


def test_monomial_count_three_vars_degree15():
    assert monomial_count(3, 15) == 136


def test_monomial_count_small():
    assert monomial_count(4, 2) == 10
    assert monomial_count(4, 2) == len(enumerate_monomials(4, 2))
    assert monomial_count(7, 0) == 1


def test_enumerate_order():
    assert enumerate_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert lex_rank(exponent_array([(2, 0)], 2, 2)).tolist() == [0]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(0, 11))
def test_rank_unrank_bijective(n, d):
    monos = enumerate_monomials(n, d)
    assert len(monos) == monomial_count(n, d) == len(set(monos))
    for m in monos:
        assert len(m) == n and sum(m) == d and min(m) >= 0
    assert lex_rank(exponent_array(monos, n, d)).tolist() == list(range(len(monos)))


def reference_lex_exponents(n, d, bounds=None):
    """The degree-d monomials in lex order, x1^d first, with every e_i <
    bounds[i] when bounds are given, from itertools alone: it shares no
    code with `lex_exponents`."""
    exps = sorted(
        (tuple(c.count(i) for i in range(n))
         for c in itertools.combinations_with_replacement(range(n), d)),
        reverse=True,
    )
    if bounds is not None:
        exps = [m for m in exps if all(x < b for x, b in zip(m, bounds))]
    return exps


def _bound_grid(n, d):
    """None; a 1 (that variable absent) in each place; values above
    d + 1; and mixed values."""
    yield None
    for i in range(n):
        yield tuple(1 if j == i else d + 1 for j in range(n))
    yield (d + 2,) * n
    yield (d + 5,) + (2,) * (n - 1)
    yield tuple((3, 1, 2, d + 3, 4, 2)[:n])
    yield tuple((2, 5, 1, 3, 9, 1)[:n])
    yield (2,) * n


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(0, 11))
def test_lex_exponents_is_the_reference_lex_order(n, d):
    """Every degree-d monomial, or every standard one under bounds, in
    lex order, as a read-only int64 (count, n) array, also when no
    monomial is left."""
    for bounds in _bound_grid(n, d):
        exps = lex_exponents(n, d, bounds)
        want = reference_lex_exponents(n, d, bounds)
        assert exps.dtype == np.int64 and exps.shape == (len(want), n)
        assert [tuple(m) for m in exps.tolist()] == want
        assert not exps.flags.writeable
    assert lex_exponents(n, d).tolist() == [list(m) for m in enumerate_monomials(n, d)]


def test_lex_exponents_of_an_empty_set_keeps_its_width():
    """Bounds that leave no monomial give shape (0, n)."""
    assert lex_exponents(3, 4, (1, 1, 1)).shape == (0, 3)
    assert lex_exponents(2, 5, (3, 2)).shape == (0, 2)
    assert lex_exponents(4, 7, (2, 3, 1, 3)).shape == (0, 4)
    assert lex_exponents(1, 3, (3,)).shape == (0, 1)


def test_lex_exponents_caches_only_the_key_asked_for():
    """No recursion through its own cache: one call, one cache entry."""
    lex_exponents.cache_clear()
    lex_exponents(4, 9, (3, 5, 2, 9))
    assert lex_exponents.cache_info().currsize == 1


@pytest.mark.parametrize("n, d", [(0, 2), (-1, 0), (3, -1), (1, -2)])
def test_lex_exponents_rejects_bad_n_or_d(n, d):
    with pytest.raises(ValueError):
        lex_exponents(n, d)
    with pytest.raises(ValueError):
        enumerate_monomials(n, d)


def test_lex_exponents_rejects_bounds_of_another_length():
    with pytest.raises(ValueError, match="need 3 bounds, got 2"):
        lex_exponents(3, 2, (2, 2))


def test_quotient_hilbert_function_squares_xy_ideal():
    ideal = MonomialIdeal.from_generators(4, SQUARES_XY_GENS)
    series = quotient_hilbert_function(ideal, 3)
    # the t^3 coefficient is positive: x*z*w (and y*z*w) survive the sieve
    expected3 = brute_force_survivors(SQUARES_XY_GENS, 4, 3)
    assert expected3 == 2
    assert series.coeffs == (1, 4, 5, expected3)
    assert not ideal.contains((1, 0, 1, 1))  # xzw not in I


def test_quotient_by_square_of_maximal_ideal():
    series = quotient_hilbert_function(maximal_ideal_power(4, 2), 3)
    assert series.coeffs == (1, 4, 0, 0)
    assert series.terminated


def test_quotient_by_zero_ideal():
    zero = MonomialIdeal.from_generators(3, [])
    series = quotient_hilbert_function(zero, 2)
    assert series.coeffs == (1, 3, 6)
    assert not series.terminated


def test_contains_power_examples():
    assert contains_power_of_maximal_ideal(maximal_ideal_power(3, 2), 3)
    ideal = MonomialIdeal.from_generators(4, SQUARES_XY_GENS)
    assert not contains_power_of_maximal_ideal(ideal, 3)


@given(
    n=st.integers(1, 3),
    data=st.data(),
)
def test_sieve_invariants(n, data):
    degree_pool = enumerate_monomials(n, 2) + enumerate_monomials(n, 3)
    gens = data.draw(st.lists(st.sampled_from(degree_pool), max_size=4))
    ideal = MonomialIdeal.from_generators(n, gens)
    series = quotient_hilbert_function(ideal, 6)
    for e in range(7):
        vanished = contains_power_of_maximal_ideal(ideal, e)
        assert (series.coeffs[e] == 0) == vanished
        if vanished:
            # stability: higher powers stay inside
            assert contains_power_of_maximal_ideal(ideal, e + 1)
            assert contains_power_of_maximal_ideal(ideal, e + 2)


def test_minimalization():
    ideal = MonomialIdeal.from_generators(2, [(1, 0), (2, 0), (1, 1)])
    assert ideal.generators == ((1, 0),)
    assert divides((1, 0), (2, 0))


def test_render_and_parse():
    assert monomial_to_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_to_str((0, 0)) == "1"


@pytest.mark.parametrize("n", range(1, 7))
def test_lex_rank_is_the_enumeration_order(n):
    for d in range(13):
        mons = enumerate_monomials(n, d)
        ranks = lex_rank(np.array(mons).reshape(len(mons), n))
        assert ranks.tolist() == list(range(len(mons)))
        step = max(1, len(mons) // 7)
        picked = exponent_array(mons[::step], n, d)
        assert lex_rank(picked).tolist() == list(range(0, len(mons), step))


def test_lex_rank_ranks_each_row_in_its_own_degree():
    exps = np.array([[[2, 0, 1], [0, 0, 0]], [[0, 0, 4], [0, 1, 0]]])
    assert lex_rank(exps).tolist() == [[2, 0], [14, 1]]


@pytest.mark.parametrize(
    "bad, n, why",
    [((), 1, "length"), ((2, -1, 1), 3, "nonnegative"), ((1, 2.5), 2, "integer")],
    ids=["empty", "negative", "fractional"],
)
def test_rank_rejects_bad_monomials(bad, n, why):
    """The closed form would return a wrong rank for these: `exponent_array`,
    the gate in front of `lex_rank`, and a form built from them must raise,
    not rank them."""
    with pytest.raises(ValueError, match=why):
        exponent_array([bad], n, 2)
    with pytest.raises(ValueError, match=why):
        ModPPoly.from_monomial_dict(n, 2, {bad: 1})
