"""Tests for monomial enumeration, ranking, and monomial-ideal sieves."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from genforms.monomials import (
    MonomialIdeal,
    contains_power_of_maximal_ideal,
    divides,
    enumerate_monomials,
    lex_rank,
    maximal_ideal_power,
    monomial_count,
    monomial_to_str,
    quotient_hilbert_function,
    rank,
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


def test_monomial_count_three_vars_degree15():
    assert monomial_count(3, 15) == 136


def test_monomial_count_small():
    assert monomial_count(4, 2) == 10
    assert monomial_count(4, 2) == len(enumerate_monomials(4, 2))
    assert monomial_count(7, 0) == 1


def test_enumerate_order():
    assert enumerate_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert rank((2, 0)) == 0


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(0, 11))
def test_rank_unrank_bijective(n, d):
    monos = enumerate_monomials(n, d)
    assert len(monos) == monomial_count(n, d) == len(set(monos))
    for i, m in enumerate(monos):
        assert len(m) == n and sum(m) == d and min(m) >= 0
        assert rank(m) == i


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
        assert [rank(m) for m in mons[::step]] == list(range(0, len(mons), step))


def test_lex_rank_ranks_each_row_in_its_own_degree():
    exps = np.array([[[2, 0, 1], [0, 0, 0]], [[0, 0, 4], [0, 1, 0]]])
    assert lex_rank(exps).tolist() == [[2, 0], [14, 1]]


@pytest.mark.parametrize(
    "bad", [(), (2, -1, 1), (1, 2.5)], ids=["empty", "negative", "fractional"],
)
def test_rank_rejects_bad_monomials(bad):
    """The closed form would return a wrong rank for these; they must
    raise, not be ranked."""
    with pytest.raises(ValueError):
        rank(bad)
