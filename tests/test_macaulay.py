"""Tests for prime-field forms, Macaulay matrices, and quotient series."""

import random
import subprocess
import sys
import weakref
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genforms
from genforms import macaulay
from genforms.macaulay import (
    FormFamily,
    KeptBases,
    ModPPoly,
    ResourceLimit,
    SoundnessError,
    _products,
    _scatter_table,
    eliminated_shape,
    ideal_dimension_at_degree,
    macaulay_rows,
    macaulay_shape,
    power,
    quotient_series,
)
from genforms import modp
from genforms.modp import DEFAULT_PRIME
from genforms.monomials import (
    MonomialIdeal,
    lex_exponents,
    monomial_count,
    quotient_hilbert_function,
)
from genforms.series import TruncatedSeries, binomial

P = DEFAULT_PRIME
PRIMES = (2, 3, 101, 65537, 2**31 - 1)


@lru_cache(maxsize=None)
def reference_monomials(n, d):
    """The degree-d monomials in n variables in lex order, x1^d first,
    from itertools alone: the reference order of the tables, rows and
    columns here, sharing no code with `monomials.lex_exponents`."""
    exps = (tuple(c.count(i) for i in range(n))
            for c in combinations_with_replacement(range(n), d))
    return tuple(sorted(exps, reverse=True))


def _xn_free_count(n: int, e: int) -> int:
    """Degree-e monomials not divisible by x_n: all of them but x_n times
    each degree-(e - 1) monomial."""
    return monomial_count(n, e) - (monomial_count(n, e - 1) if e else 0)


def form(n, terms, prime=P):
    degree = sum(next(iter(terms)))
    return ModPPoly.from_monomial_dict(n, degree, terms, prime)


def pure_power(n, i, a, c=1, prime=P):
    """c * x_i^a, i counted from 0."""
    return form(n, {tuple(a * (j == i) for j in range(n)): c}, prime)


def pure_power_family(n, d, prime=P):
    return FormFamily(n, tuple(pure_power(n, i, d, prime=prime) for i in range(n)), prime)


def power_of(f, m):
    """f^m, the one form of the powered one-form family."""
    return power(FormFamily(f.n, (f,), f.prime), m).forms[0]


def multiply(f, g):
    """f*g through `_products`, the batched product that `power` runs."""
    rows = _products(f.coeffs[None], g.coeffs[None], f.n, f.degree, g.degree, f.prime)
    return ModPPoly(f.n, f.degree + g.degree, rows[0], f.prime)


def mono_rank(m):
    """Position of m among the monomials of its degree, by lookup."""
    return reference_monomials(len(m), sum(m)).index(tuple(m))


def random_form(n, d, rng, prime=P) -> ModPPoly:
    """One form, every coefficient drawn from rng uniformly in [0, p):
    the per-form draw that `FormFamily.random` makes for all its forms at
    once, kept as the reference for its stream and for families of mixed
    degrees drawn from one generator."""
    if d < 1:
        raise ValueError("form degree must be >= 1")
    coeffs = rng.integers(0, prime, size=monomial_count(n, d), dtype=np.int64)
    return ModPPoly(n, d, coeffs, prime)


def test_random_form_deterministic():
    a = FormFamily.random(2, 1, 1, seed=42).forms[0]
    b = FormFamily.random(2, 1, 1, seed=42).forms[0]
    assert a == b
    assert len(a.coeffs) == 2


def test_random_form_coefficient_count():
    (f,) = FormFamily.random(3, 2, 1, seed=0).forms
    assert len(f.coeffs) == monomial_count(3, 2) == 6


def test_two_draws_differ():
    a, b = FormFamily.random(3, 2, 2, seed=7).forms
    assert a != b


@pytest.mark.parametrize("prime", (2, 3, 101, 1048573, 2**31 - 1))
@pytest.mark.parametrize("n, d", [(1, 4), (3, 2), (2, 6), (3, 7), (3, 14)],
                         ids=["S=1", "S=6", "S=7", "S=36", "S=120"])
def test_one_draw_of_the_family_is_the_stream_of_per_form_draws(prime, n, d):
    """All k forms drawn in one k x S call are the k forms drawn one at a
    time from the same generator, at odd and even S, and so the first j
    forms of a seed do not depend on k."""
    for k in (0, 1, 7, 120):
        family = FormFamily.random(n, d, k, seed=k + 3, prime=prime)
        rng = np.random.default_rng(k + 3)
        assert family.forms == tuple(random_form(n, d, rng, prime) for _ in range(k))
        assert (family.n, family.prime, family.seed) == (n, prime, k + 3)
    assert FormFamily.random(n, d, 7, seed=1, prime=prime).forms[:3] == FormFamily.random(
        n, d, 3, seed=1, prime=prime).forms


def test_a_random_family_of_degree_below_1_is_refused():
    for k in (0, 2):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            FormFamily.random(3, 0, k, seed=0)


def test_coefficients_are_reduced_into_the_field():
    f = ModPPoly(2, 1, (-1, P + 3), P)
    assert f.coeffs.dtype == np.int64
    assert f.coeffs.tolist() == [P - 1, 3]
    assert ModPPoly(2, 1, (-2 * P, 5 * P - 2), P) == ModPPoly(2, 1, (0, P - 2), P)


def test_coefficients_are_read_only():
    f = random_form(3, 2, np.random.default_rng(0))
    assert not f.coeffs.flags.writeable
    with pytest.raises(ValueError):
        f.coeffs[0] = 1


@pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 3, 4), np.ones((1, 3), dtype=np.int64)],
                         ids=["short", "long", "2-D"])
def test_coefficients_of_another_shape_are_refused(coeffs):
    with pytest.raises(ValueError):
        ModPPoly(2, 2, coeffs)


def test_a_form_from_a_tuple_equals_the_form_from_an_array():
    a = ModPPoly(3, 1, (4, 5, 6))
    b = ModPPoly(3, 1, np.array([4, 5, 6]))
    assert a == b and hash(a) == hash(b)
    assert a != ModPPoly(3, 1, (4, 5, 7))
    assert a != ModPPoly(3, 1, (4, 5, 6), 101)


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
    assert power_of(f, 2) == sq


def test_power_identity_and_multinomial():
    f = form(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert power_of(f, 1) == f
    sq = power_of(f, 2)
    assert sq.coeffs[mono_rank((1, 1, 0))] == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_power_multiply_consistency(m):
    f = random_form(2, 2, np.random.default_rng(m))
    assert power_of(f, m) == multiply(power_of(f, m - 1), f)


def reference_multiply(f, g):
    """The product by convolution over exponent-vector addition, on
    Python ints, with each target looked up in the enumeration itself
    rather than ranked in closed form: the slow reference for `_products`."""
    n, p = f.n, f.prime
    degree = f.degree + g.degree
    position = {m: i for i, m in enumerate(reference_monomials(n, degree))}
    coeffs = [0] * monomial_count(n, degree)
    for a, u in zip(f.coeffs, reference_monomials(n, f.degree)):
        for b, v in zip(g.coeffs, reference_monomials(n, g.degree)):
            target = position[tuple(x + y for x, y in zip(u, v))]
            coeffs[target] = (coeffs[target] + a * b) % p
    return ModPPoly(n, degree, tuple(coeffs), p)


def reference_power(f, m):
    result = f
    for _ in range(m - 1):
        result = reference_multiply(result, f)
    return result


@st.composite
def forms_of(draw, n, prime, degrees=st.integers(0, 5)):
    """A form with uniform coefficients, or with every coefficient p - 1."""
    degree = draw(degrees)
    count = monomial_count(n, degree)
    if draw(st.booleans()):
        coeffs = [prime - 1] * count
    else:
        coeffs = draw(st.lists(st.integers(0, prime - 1), min_size=count, max_size=count))
    return ModPPoly(n, degree, tuple(coeffs), prime)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from(PRIMES))
def test_multiply_matches_reference(data, n, prime):
    f = data.draw(forms_of(n, prime))
    g = data.draw(forms_of(n, prime))
    assert multiply(f, g) == reference_multiply(f, g)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from(PRIMES),
       m=st.integers(1, 5))
def test_power_matches_reference(data, n, prime, m):
    f = data.draw(forms_of(n, prime))
    assert power_of(f, m) == reference_power(f, m)


@pytest.mark.parametrize("prime", PRIMES)
def test_power_of_all_p_minus_1_form(prime):
    f = ModPPoly(4, 5, (prime - 1,) * monomial_count(4, 5), prime)
    assert power_of(f, 5) == reference_power(f, 5)


@pytest.mark.parametrize(
    "n, degree, terms",
    [(3, 2, {(1, 1): 1}), (3, 2, {(3, -1, 0): 1}), (3, 2, {(1, 1, 1): 1})],
    ids=["wrong-length", "negative", "wrong-degree"],
)
def test_from_monomial_dict_rejects_bad_monomials(n, degree, terms):
    with pytest.raises(ValueError):
        ModPPoly.from_monomial_dict(n, degree, terms)


def reference_scatter_table(n, dg, e):
    """The dict-based double loop: one lookup per (multiplier, monomial)
    pair, each product looked up in the degree-e enumeration."""
    position = {m: i for i, m in enumerate(reference_monomials(n, e))}
    mult = reference_monomials(n, e - dg)
    src = reference_monomials(n, dg)
    t = np.empty((len(mult), len(src)), dtype=np.intp)
    for i, u in enumerate(mult):
        for j, v in enumerate(src):
            t[i, j] = position[tuple(x + y for x, y in zip(u, v))]
    return t


@pytest.mark.parametrize("n", range(1, 7))
def test_scatter_table_matches_dict_reference(n):
    """Every table of degrees 0..12, full and x_n-free (the reference's
    x_n-free table is its rows of multipliers u with u_n = 0, in order)."""
    for e in range(13):
        for dg in range(e + 1):
            want = reference_scatter_table(n, dg, e)
            full = _scatter_table(n, dg, e, False)
            free = _scatter_table(n, dg, e, True)
            assert full.dtype == np.intp and np.array_equal(full, want)
            xn_free = [u[-1] == 0 for u in reference_monomials(n, e - dg)]
            assert free.shape[0] == _xn_free_count(n, e - dg)
            assert np.array_equal(free, want[xn_free])


@pytest.mark.parametrize("n", range(1, 5))
def test_bounded_scatter_table_matches_dict_reference(n):
    """With exponent bounds: the reference table's rows of standard
    multipliers (every exponent below its bound; with xn_free, only those
    free of x_n), each product given its index among the standard
    monomials of degree e in lex order, or their count if not standard."""
    for bounds in {(1,) * n, (2,) * n, (3, 9, 2, 4)[:n], (9, 1, 3, 2)[:n]}:
        for e in range(10):
            capped = tuple(min(b, e + 1) for b in bounds)
            standard = [m for m in reference_monomials(n, e)
                        if all(x < b for x, b in zip(m, capped))]
            column = {m: i for i, m in enumerate(standard)}
            for dg in range(e + 1):
                for xn_free in (False, True):
                    want = [[column.get(tuple(x + y for x, y in zip(u, v)), len(standard))
                             for v in reference_monomials(n, dg)]
                            for u in reference_monomials(n, e - dg)
                            if all(x < b for x, b in zip(u, capped)) and not (xn_free and u[-1])]
                    table = _scatter_table(n, dg, e, xn_free, capped)
                    assert table.tolist() == want


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from((2, 3, 101, 2**31 - 1)),
       m=st.integers(1, 5), k=st.integers(1, 6),
       entries=st.sampled_from((1, macaulay._PRODUCT_ENTRIES)))
def test_batched_power_matches_reference_row_by_row(data, n, prime, m, k, entries):
    """A family powered in one call, with forms whose coefficients are all
    p - 1, against the reference power of each form; with entries=1 every
    form is its own slice of the batched product."""
    degree = st.just(data.draw(st.integers(0, 3)))
    forms = tuple(data.draw(forms_of(n, prime, degree)) for _ in range(k))
    family = FormFamily(n, forms, prime, seed=5)
    saved = macaulay._PRODUCT_ENTRIES
    macaulay._PRODUCT_ENTRIES = entries
    try:
        powered = power(family, m)
    finally:
        macaulay._PRODUCT_ENTRIES = saved
    assert (powered.n, powered.prime, powered.seed) == (n, prime, 5)
    assert powered.forms == tuple(reference_power(f, m) for f in forms)


@pytest.mark.parametrize("prime", (2, 3, 101, 2**31 - 1))
def test_batched_power_across_slices(prime):
    """(3,2,7) k=120: the last product spans three slices of the batch."""
    rng = np.random.default_rng(prime)
    forms = [random_form(3, 2, rng, prime) for _ in range(119)]
    forms.append(ModPPoly(3, 2, (prime - 1,) * 6, prime))
    powered = power(FormFamily(3, tuple(forms), prime), 7)
    assert powered.forms == tuple(reference_power(f, 7) for f in forms)


def test_power_rejects_a_family_of_mixed_degrees():
    rng = np.random.default_rng(0)
    family = FormFamily(2, (random_form(2, 1, rng), random_form(2, 2, rng)))
    with pytest.raises(ValueError):
        power(family, 2)
    with pytest.raises(ValueError):
        power(FormFamily(2, ()), 2)


def test_family_degree_is_the_one_degree_of_its_forms():
    rng = np.random.default_rng(0)
    assert FormFamily.random(3, 4, 2, seed=0).degree == 4
    assert FormFamily(2, (random_form(2, 1, rng),)).degree == 1
    with pytest.raises(ValueError, match=r"one degree, got \[1, 2\]"):
        FormFamily(2, (random_form(2, 1, rng), random_form(2, 2, rng))).degree
    with pytest.raises(ValueError, match=r"one degree, got \[\]"):
        FormFamily(2, ()).degree


_PLANTED_PRODUCT = """
import numpy as np
from genforms.macaulay import _products
failures = []
# 2^22 + 1 coefficients below 2^31 - 1: sums reach past 2^53
wide = np.broadcast_to(np.int64(1), (1, 2**22 + 1))
try:
    _products(wide, wide, 3, 2896, 2896, 2**31 - 1)
    failures.append("sum bound")
except OverflowError:
    pass
# a modulus whose squares leave int64
small = np.ones((1, 3), dtype=np.int64)
try:
    _products(small, small, 3, 1, 1, 2**40 + 15)
    failures.append("term bound")
except OverflowError:
    pass
if failures:
    raise SystemExit("not raised: " + ", ".join(failures))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_product_outside_exact_range_raises(flags):
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PLANTED_PRODUCT],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


def test_degree_counts_are_counted_once_per_family():
    """A family's (degree, count) pairs, of all its forms and of those
    other than pure powers, in increasing degree: every Macaulay shape
    reads the first, as the entry budget reads the second."""
    n = 3
    quads = FormFamily.random(n, 2, 3, seed=4).forms
    family = FormFamily(n, (pure_power(n, 0, 3), *quads, pure_power(n, 1, 2),
                            random_form(n, 3, np.random.default_rng(2))))
    assert family.degree_counts == ((2, 4), (3, 2))
    assert family.pure_powers[2] == ((2, 3), (3, 1))
    for e in range(8):
        rows = sum(monomial_count(n, e - f.degree) for f in family.forms if f.degree <= e)
        assert macaulay_shape(family, e) == (rows, monomial_count(n, e))
    assert FormFamily(n, ()).degree_counts == ()


def test_quotient_complete_intersection_of_squares():
    series = quotient_series(pure_power_family(2, 2), 3)
    assert series.coeffs == (1, 2, 1, 0)
    assert series.terminated


def test_quotient_four_random_quadrics():
    fam = FormFamily.random(3, 2, 4, seed=5)
    series = quotient_series(fam, 3)
    assert series.coeffs == (1, 3, 2, 0)


def test_quotient_empty_family():
    fam = FormFamily(3, ())
    assert quotient_series(fam, 2).coeffs == (1, 3, 6)


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
        series = quotient_series(fam, max_deg)
        for e, coeff in enumerate(series.coeffs):
            rows, cols = macaulay_shape(fam, e)
            assert cols - coeff <= min(rows, cols)
            # the first-order bound: C(n+e-1, e) - sum_g C(n+e-deg g-1, e-deg g)
            first_order = binomial(n + e - 1, e) - sum(
                binomial(n + e - dg - 1, e - dg) for dg in degrees if dg <= e
            )
            assert cols - rows == first_order
            assert coeff >= cols - rows
            assert coeff <= binomial(n + e - 1, e)


def test_adding_a_form_never_raises_coefficients():
    base = FormFamily.random(3, 2, 3, seed=8)
    bigger = FormFamily.random(3, 2, 4, seed=8)
    a = quotient_series(base, 5)
    b = quotient_series(bigger, 5)
    assert all(x >= y for x, y in zip(a.coeffs, b.coeffs))


def test_replay_determinism():
    a = quotient_series(FormFamily.random(3, 3, 4, seed=21), 6)
    b = quotient_series(FormFamily.random(3, 3, 4, seed=21), 6)
    assert a == b


def test_resource_limit():
    fam = FormFamily.random(3, 2, 4, seed=0)
    with pytest.raises(ResourceLimit):
        quotient_series(fam, 3, budget=10)


def test_budget_counts_the_matrix_left_after_pure_powers():
    """x^4, y^4, z^4 and two quartics: the series ends at degree 6, where
    the whole Macaulay matrix has 840 entries but only 12 x 10 remain once
    the pure powers are divided out (at most 120 at any degree). A budget
    of 200 lets it run; five quartics with no pure powers meet it at
    degree 5 (315 entries)."""
    quartics = FormFamily.random(3, 4, 2, seed=3).forms
    family = FormFamily(3, tuple(pure_power(3, i, 4) for i in range(3)) + quartics)
    series = quotient_series(family, 10, budget=200)
    assert series == quotient_series(family, 10)
    assert series.coeffs == (1, 3, 6, 10, 10, 6, 0, 0, 0, 0, 0)
    assert max(np.prod(macaulay_shape(family, e)) for e in range(7)) == 840
    assert max(np.prod(reference_eliminated_shape(family, e)) for e in range(7)) == 120
    with pytest.raises(ResourceLimit, match="^degree-6 Macaulay matrix has 12x10 = 120 "):
        quotient_series(family, 10, budget=119)
    random_family = FormFamily.random(3, 4, 5, seed=3)
    with pytest.raises(ResourceLimit, match="^degree-5 Macaulay matrix has 15x21 = 315 "):
        quotient_series(random_family, 10, budget=200)


def test_forms_reject_prime_above_2_31():
    with pytest.raises(ValueError, match="2\\^31"):
        ModPPoly(2, 1, (1, 1), prime=4294967311)


def one_form_rows(f, e, xn_free=False, bounds=None):
    """`macaulay_rows` of the one-form family of f."""
    return macaulay_rows(FormFamily(f.n, (f,), f.prime), e, xn_free, bounds)


def reference_dimension(family, e):
    """Rank of the whole degree-e Macaulay matrix, every row of every
    form over every column, pure powers included."""
    reducer = modp.RowReducer(monomial_count(family.n, e), family.prime)
    for f in family.forms:
        if f.degree <= e:
            reducer.add_rows(one_form_rows(f, e))
    return reducer.rank


def reference_eliminated_shape(family, e):
    """(rows, cols) of the degree-e matrix that the budget counts, from the
    monomial lists alone. A form of degree a >= 1 whose one nonzero
    coefficient sits at x_i^a is a pure power; a monomial is standard when
    each exponent is below the least such a of its variable. cols are the
    standard monomials of degree e, rows the standard multiples of every
    other form."""
    n = family.n
    least = [None] * n
    others = []
    for f in family.forms:
        support = np.flatnonzero(f.coeffs)
        mono = reference_monomials(n, f.degree)[support[0]] if support.size == 1 else ()
        if f.degree >= 1 and f.degree in mono:
            i = mono.index(f.degree)
            least[i] = f.degree if least[i] is None else min(least[i], f.degree)
        else:
            others.append(f)

    def standard(u):
        return all(a is None or x < a for x, a in zip(u, least))

    cols = sum(map(standard, reference_monomials(n, e)))
    rows = sum(
        standard(u)
        for f in others if f.degree <= e
        for u in reference_monomials(n, e - f.degree)
    )
    return rows, cols


def reference_quotient_series(family, max_deg, budget=None):
    """Every degree's whole Macaulay matrix eliminated from scratch, in
    degree order, the budget checked on `reference_eliminated_shape`: the
    slow reference for `quotient_series`."""
    coeffs = []
    for e in range(max_deg + 1):
        rows, cols = reference_eliminated_shape(family, e)
        if budget is not None and rows * cols > budget:
            raise ResourceLimit(
                f"degree-{e} Macaulay matrix has {rows}x{cols} = {rows * cols} "
                f"entries, over budget {budget}", e
            )
        cols = monomial_count(family.n, e)
        coeffs.append(cols - reference_dimension(family, e))
        if coeffs[-1] == 0:
            coeffs.extend([0] * (max_deg - e))
            break
    return TruncatedSeries(tuple(coeffs), terminated=coeffs[-1] == 0)


@st.composite
def families(draw):
    """Random forms of mixed degrees 1..4 and pure powers c*x_i^a (a in
    1..4, any variable and nonzero c, repeats allowed) in any order, or a
    family repeating its forms (a degenerate specialization); p = 2 often
    draws zero forms."""
    n = draw(st.integers(1, 4))
    prime = draw(st.sampled_from((2, 3, 101, 2**31 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forms = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(1, 4))
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            forms.append(pure_power(n, i, a, draw(st.integers(1, prime - 1)), prime))
        else:
            forms.append(random_form(n, a, rng, prime))
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
        # cut just below or at the eliminated matrix of a degree in range
        e = data.draw(st.integers(0, max_deg))
        rows, cols = reference_eliminated_shape(family, e)
        budget = max(0, rows * cols - data.draw(st.sampled_from((0, 1))))
    assert _outcome(quotient_series, family, max_deg, budget) == _outcome(
        reference_quotient_series, family, max_deg, budget
    )


@settings(max_examples=300, deadline=None)
@given(family=families(), e=st.integers(0, 12))
def test_eliminated_shape_matches_the_reference(family, e):
    """The one shape function, from the pure-power bounds and the other
    forms' (degree, count) pairs alone, is the reference shape read off
    the monomial lists; a budget of exactly its entries passes, one less
    raises at e."""
    least, _, other_counts = family.pure_powers
    rows, cols = reference_eliminated_shape(family, e)
    assert eliminated_shape(family.n, e, least, other_counts) == (rows, cols)
    assert eliminated_shape(family.n, e, least, other_counts, rows * cols) == (rows, cols)
    if rows * cols:
        with pytest.raises(ResourceLimit, match=f"^degree-{e} .* {rows}x{cols} = ") as exc:
            eliminated_shape(family.n, e, least, other_counts, rows * cols - 1)
        assert exc.value.degree == e


@pytest.mark.parametrize("n", range(1, 7))
def test_xn_shift_is_increasing_and_kills_the_top_xn_exponent(n):
    """The lemma behind the seeded chain: sigma, the x_n map of degree
    e - 1 into degree e (`_xn_column`), sends each standard monomial
    of degree e - 1 to x_n times it among the standard monomials of
    degree e, found here by lookup in the enumeration, is strictly
    increasing on the columns it keeps, and kills exactly those with
    x_n-exponent b_n - 1."""
    for bounds in {(3, 9, 2, 4, 5, 2)[:n], (9,) * n, (2,) * n, (1, 4, 3, 2, 9, 3)[:n]}:
        for e in range(1, 13):
            below, above = (
                [m for m in reference_monomials(n, d) if all(x < b for x, b in zip(m, bounds))]
                for d in (e - 1, e)
            )
            column = {m: i for i, m in enumerate(above)}
            sigma = macaulay._xn_column(n, e, tuple(min(b, e + 1) for b in bounds))
            assert sigma.tolist() == [
                column.get(m[:-1] + (m[-1] + 1,), len(above)) for m in below
            ]
            killed = [m[-1] == bounds[-1] - 1 for m in below]
            assert (sigma == len(above)).tolist() == killed
            kept = sigma[sigma < len(above)]
            assert np.all(np.diff(kept) > 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_xn_column_is_the_last_column_of_the_degree_1_scatter_table(n):
    """The cached x_n map is the x_n column of the scatter table of
    degree 1 into degree e, for pure-power bounds with and without a
    variable that has none."""
    for least in {(3, 2, 4, 2, 5)[:n], (None, 3, None, 2, 4)[:n], (2,) * n, (None,) * n}:
        for e in range(1, 12):
            bounds = macaulay._bounds_at(least, e)
            column = macaulay._xn_column(n, e, bounds)
            assert column.dtype == np.intp and not column.flags.writeable
            assert np.array_equal(column, _scatter_table(n, 1, e, False, bounds)[:, -1])


def test_a_chain_seed_over_other_columns_is_refused():
    """A degree-3 basis over the 10 monomials of degree 3 cannot seed
    degree 4 of a family with x_1^2, whose degree 3 has 7 standard
    columns: SoundnessError, not an assert."""
    chain = {}
    ideal_dimension_at_degree(FormFamily.random(3, 3, 2, seed=6), 3, chain)
    family = FormFamily(3, (pure_power(3, 0, 2),) + FormFamily.random(3, 3, 2, seed=6).forms)
    with pytest.raises(SoundnessError, match="degree-3 seed has 10 columns, not 7"):
        ideal_dimension_at_degree(family, 4, chain)


def test_xn_free_rows_are_the_macaulay_rows_of_xn_free_multipliers():
    fam = FormFamily.random(3, 2, 1, seed=4)
    for e in range(2, 7):
        full = macaulay_rows(fam, e)
        free = macaulay_rows(fam, e, xn_free=True)
        assert free.shape[0] == _xn_free_count(3, e - 2)
        assert np.array_equal(free, full[[u[-1] == 0 for u in reference_monomials(3, e - 2)]])


@pytest.mark.parametrize("n", range(1, 6))
def test_grouped_rows_are_the_one_form_rows_stacked(n):
    """A family's rows, from one scatter, are each form's rows in family
    order, full and x_n-free, with and without bounds: for groups of 1,
    3 and 7 forms, a group whose rows cross CHUNK, and (n >= 3) a form
    whose multiples alone exceed CHUNK."""
    rng = np.random.default_rng(n)
    for dg, e in ((0, 3), (1, 4), (2, 5), (3, 7)):
        forms = tuple(random_form(n, dg, rng) if dg else ModPPoly(n, 0, (5,)) for _ in range(7))
        forms += (ModPPoly(n, dg, (P - 1,) * monomial_count(n, dg)),)
        for bounds in (None, (2,) * n, (4, 1, 3, 2, 5)[:n], (9,) * n):
            capped = None if bounds is None else macaulay._bounds_at(bounds, e)
            for xn_free in (False, True):
                for k in (1, 3, 8):
                    family = FormFamily(n, forms[:k])
                    want = np.vstack([one_form_rows(f, e, xn_free, capped) for f in forms[:k]])
                    got = macaulay_rows(family, e, xn_free, capped)
                    assert got.dtype == np.int64 and np.array_equal(got, want)
    # forms whose rows together cross CHUNK, and one whose rows alone do
    dg, e = 2, {1: 130, 2: 16, 3: 17, 4: 10, 5: 8}[n]
    per_form = monomial_count(n, e - dg)
    forms = tuple(random_form(n, dg, rng) for _ in range(2 + modp.CHUNK // per_form))
    assert per_form * len(forms) > modp.CHUNK
    assert (per_form > modp.CHUNK) == (n >= 3)
    for xn_free in (False, True):
        want = np.vstack([one_form_rows(f, e, xn_free) for f in forms])
        assert np.array_equal(macaulay_rows(FormFamily(n, forms), e, xn_free), want)
    assert macaulay_rows(FormFamily(n, forms), dg - 1).shape == (0, monomial_count(n, dg - 1))


def test_rows_of_a_family_of_mixed_degrees_are_refused():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="one degree"):
        macaulay_rows(FormFamily(3, (random_form(3, 2, rng), random_form(3, 3, rng))), 4)


def assert_no_group_after_full_rank(monkeypatch, run):
    """Run run() with every `macaulay_rows` call checked: the reducer it
    feeds is not at full column rank when the group is built. Returns the
    (rows, forms) of each group built."""
    reducers, groups = [], []
    real_init, real_rows = modp.RowReducer.__init__, macaulay.macaulay_rows

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        reducers.append(self)

    def building(family, e, *args):
        assert not reducers[-1].full_column_rank
        block = real_rows(family, e, *args)
        groups.append((block.shape[0], family.k))
        return block

    monkeypatch.setattr(modp.RowReducer, "__init__", init)
    monkeypatch.setattr(macaulay, "macaulay_rows", building)
    run()
    return groups


def test_no_group_is_built_after_full_column_rank(monkeypatch):
    """40 quadrics in 3 variables at degree 4 (15 columns, 6 rows a form):
    one group of 3 forms reaches full rank and no other is built. 40 in 4
    variables at degree 8 (165 columns, 84 rows a form, two of which
    overflow CHUNK): one form a group, the first two of rank 133 (their
    Koszul syzygy drops 35), the third of 157, the fourth of 165, and no
    more. A sweep's pure-power points build no group past full rank
    either."""
    quadrics = FormFamily.random(3, 2, 40, seed=2)
    groups = assert_no_group_after_full_rank(
        monkeypatch, lambda: ideal_dimension_at_degree(quadrics, 4))
    assert groups == [(18, 3)]
    wide = FormFamily.random(4, 2, 40, seed=2)
    groups = assert_no_group_after_full_rank(
        monkeypatch, lambda: ideal_dimension_at_degree(wide, 8))
    assert groups == [(84, 1)] * 4
    from genforms.verifier import plan_sweep, run_sweep

    def sweep():
        records = run_sweep(plan_sweep(3, 7, 2, 4, 120))[0]
        assert all(r.verdict == "Verified" for r in records)

    assert assert_no_group_after_full_rank(monkeypatch, sweep)


def record_feeding(monkeypatch):
    """Heights of the `add_rows` calls and of the `macaulay_rows` blocks,
    in order, while the test runs."""
    fed, built = [], []
    real_add, real_rows = modp.RowReducer.add_rows, macaulay.macaulay_rows

    def adding(self, block):
        fed.append(np.atleast_2d(block).shape[0])
        return real_add(self, block)

    def building(*args):
        block = real_rows(*args)
        built.append(block.shape[0])
        return block

    monkeypatch.setattr(modp.RowReducer, "add_rows", adding)
    monkeypatch.setattr(macaulay, "macaulay_rows", building)
    return fed, built


def test_short_forms_are_merged_as_one_group(monkeypatch):
    """Twenty quadrics in 8 variables at degree 2, one row each over 36
    columns, reach add_rows as one call of 20 rows, built by one
    macaulay_rows call. Of CHUNK + 2 quadrics in 16 variables (136
    columns), a group that reaches exactly CHUNK rows is merged with its
    last form, and the two after it are the next group."""
    fed, built = record_feeding(monkeypatch)
    assert ideal_dimension_at_degree(FormFamily.random(8, 2, 20, seed=3), 2) == 20
    assert (fed, built) == ([20], [20])
    fed.clear(), built.clear()
    quadrics = FormFamily.random(16, 2, modp.CHUNK + 2, seed=3)
    assert ideal_dimension_at_degree(quadrics, 2) == modp.CHUNK + 2
    assert (fed, built) == ([modp.CHUNK, 2], [modp.CHUNK, 2])


def test_nothing_is_taken_after_full_column_rank(monkeypatch):
    """Quadrics in 2 variables at degree 2 (3 columns, one row a form):
    the first three are merged and no other is built. A cubic (2 rows at
    degree 4, over 5 columns) and a quadric (3 rows) are one group of two
    runs that brings the basis to full rank, and the forms after them
    are not built. A degree whose kept seed already has full column rank
    feeds and builds nothing."""
    fed, built = record_feeding(monkeypatch)
    quadrics = FormFamily.random(2, 2, 5, seed=4)
    assert ideal_dimension_at_degree(quadrics, 2) == 3
    assert (fed, built) == ([3], [3])
    fed.clear(), built.clear()
    rng = np.random.default_rng(4)
    mixed = FormFamily(2, (random_form(2, 3, rng), random_form(2, 2, rng))
                       + FormFamily.random(2, 3, 4, seed=5).forms)
    assert ideal_dimension_at_degree(mixed, 4) == 5
    assert (fed, built) == ([5], [2, 3])
    kept = KeptBases()
    ideal_dimension_at_degree(FormFamily(2, quadrics.forms[:3]), 2, kept=kept)
    fed.clear(), built.clear()
    assert ideal_dimension_at_degree(quadrics, 2, kept=kept) == 3
    assert (fed, built) == ([], [])


def test_the_sweep_n3_merges_are_pinned(monkeypatch):
    """Both sweeps of perfbench's sweep-n3 workload, (3,7,2) and (3,2,7)
    over k = 4..120: 166 outer merges, 2250 rows fed to add_rows and 2182
    rows built, in at most 162 macaulay_rows calls. Each of the 172
    eliminated degrees, all at pure-power points, has its shape computed
    once, by the budget check of its case's spec."""
    from genforms import verifier
    from genforms.verifier import plan_sweep, run_sweep

    fed, built = record_feeding(monkeypatch)
    shapes, degrees = [], []
    real_shape, real_dimension = eliminated_shape, ideal_dimension_at_degree

    def shape(n, e, *args):
        shapes.append(e)
        return real_shape(n, e, *args)

    def dimension(family, e, *args, **kwargs):
        degrees.append(e)
        return real_dimension(family, e, *args, **kwargs)

    for owner in (verifier, macaulay):
        monkeypatch.setattr(owner, "eliminated_shape", shape)
    monkeypatch.setattr(macaulay, "ideal_dimension_at_degree", dimension)
    merges, depth = 0, 0
    real_merge = modp._merge

    def merge(echelon, block, p):
        nonlocal merges, depth
        merges += depth == 0
        depth += 1
        try:
            return real_merge(echelon, block, p)
        finally:
            depth -= 1

    monkeypatch.setattr(modp, "_merge", merge)
    for cell in ((3, 7, 2, 4, 120), (3, 2, 7, 4, 120)):
        run_sweep(plan_sweep(*cell))
    assert (merges, sum(fed), sum(built)) == (166, 2250, 2182)
    assert len(built) <= 162
    assert len(shapes) == len(degrees) == 172


def group_blocks(reducer, blocks):
    """The reference grouper: feed a lazy stream of row blocks to reducer
    in merges of at most CHUNK rows. The group held is merged first if
    the next block would take it past CHUNK rows, and merged once it
    reaches CHUNK rows or could bring the basis to full column rank; no
    block is pulled once the basis has full column rank."""
    group, height = [], 0

    def merge():
        if group:
            reducer.add_rows(np.vstack(group))

    while not reducer.full_column_rank:
        block = next(blocks, None)
        if block is None:
            break
        if height + block.shape[0] > modp.CHUNK:
            merge()
            group, height = [], 0
        group.append(block)
        height += block.shape[0]
        if height >= modp.CHUNK or reducer.rank + height >= reducer.cols:
            merge()
            group, height = [], 0
    merge()


def one_form_merges(family, e, basis):
    """The (columns, rows) of each merge, and the rows built, when degree
    e of family is fed by `group_blocks`, one form's rows per block,
    seeded by x_n times basis (the basis of degree e - 1) if given."""
    least, others, other_counts = family.pure_powers
    bounds = macaulay._bounds_at(least, e)
    cols = eliminated_shape(family.n, e, least, other_counts)[1]
    seed, again, xn_free = None, [], basis is not None
    if xn_free:
        lost = macaulay._xn_column(family.n, e, bounds)[basis[0]] == cols
        seed, again = macaulay._xn_seed(basis, lost, family.n, e, bounds)
    built, merges = [], []
    real = modp._merge

    def merge(echelon, block, p):
        merges.append((echelon[0].size + echelon[1].size, block.shape[0]))
        return real(echelon, block, p)

    def blocks():
        yield from again
        for f in others:
            if f.degree <= e:
                built.append(one_form_rows(f, e, xn_free, bounds).shape[0])
                yield one_form_rows(f, e, xn_free, bounds)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(modp, "_merge", merge)
        group_blocks(modp.RowReducer(cols, family.prime, seed), blocks())
    return merges, sum(built)


def assert_groups_merge_as_one_form_blocks(family, max_deg):
    """Each degree 0..max_deg from scratch, and again on one chain: its
    merges and rows built are those of `one_form_merges`."""
    chain = {}
    for e in range(max_deg + 1):
        for bases in ({}, chain):
            basis = bases.get(e - 1)
            if macaulay_shape(family, e)[0] == 0:
                ideal_dimension_at_degree(family, e, bases)
                continue
            want = one_form_merges(family, e, basis)
            merges, built = [], []
            real_merge, real_rows = modp._merge, macaulay.macaulay_rows

            def merge(echelon, block, p):
                merges.append((echelon[0].size + echelon[1].size, block.shape[0]))
                return real_merge(echelon, block, p)

            def building(*args):
                block = real_rows(*args)
                built.append(block.shape[0])
                return block

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(modp, "_merge", merge)
                monkeypatch.setattr(macaulay, "macaulay_rows", building)
                ideal_dimension_at_degree(family, e, bases)
            assert (merges, sum(built)) == want


@settings(max_examples=150, deadline=None)
@given(family=families(), max_deg=st.integers(0, 9))
def test_groups_merge_as_one_form_blocks(family, max_deg):
    assert_groups_merge_as_one_form_blocks(family, max_deg)


@pytest.mark.parametrize("prime", (2, 101, 2**31 - 1))
def test_groups_merge_as_one_form_blocks_named_cases(prime):
    """Groups that overflow CHUNK and reach full rank: 40 quadrics in 4
    variables (84 rows a form at degree 8); 12 cubics in 5 (35 rows a
    form at degree 6, 210 columns: a group of 3 forms is merged when the
    4th would pass CHUNK, and the 4th is held for the next group); 30
    quadrics in 3 with x_1^4 and x_3^3 (the x_n seed feeds basis rows
    again); 12 cubics and quartics mixed in 5 variables; and 120 forms
    of degree 14 after x_i^14, as at a sweep's largest k."""
    rng = np.random.default_rng(prime)
    assert_groups_merge_as_one_form_blocks(FormFamily.random(4, 2, 40, 1, prime), 8)
    assert_groups_merge_as_one_form_blocks(FormFamily.random(5, 3, 12, 1, prime), 6)
    pure = (pure_power(3, 0, 4, prime=prime), pure_power(3, 2, 3, prime=prime))
    quadrics = tuple(random_form(3, 2, rng, prime) for _ in range(30))
    assert_groups_merge_as_one_form_blocks(FormFamily(3, pure + quadrics, prime), 9)
    mixed = tuple(random_form(5, 3 + i % 2, rng, prime) for i in range(12))
    assert_groups_merge_as_one_form_blocks(FormFamily(5, mixed, prime), 6)
    big = FormFamily(3, pure_power_family(3, 14, prime).forms
                     + FormFamily.random(3, 14, 117, 4, prime).forms, prime)
    assert_groups_merge_as_one_form_blocks(big, 17)


def test_no_degree_below_the_least_generator_degree_is_eliminated(monkeypatch):
    """Below the least generator degree the series is C(n-1+e, e), written
    with no elimination: a family of cubes and quartics is eliminated from
    degree 3 on, and one truncated below 3 not at all."""
    eliminated = []
    real = macaulay.ideal_dimension_at_degree

    def recording(family, e, *args):
        eliminated.append(e)
        return real(family, e, *args)

    monkeypatch.setattr(macaulay, "ideal_dimension_at_degree", recording)
    rng = np.random.default_rng(3)
    family = FormFamily(3, (random_form(3, 4, rng), random_form(3, 3, rng), pure_power(3, 1, 3)))
    series = quotient_series(family, 8)
    assert eliminated == list(range(3, series.coeffs.index(0) + 1))
    assert series == reference_quotient_series(family, 8)
    eliminated.clear()
    assert quotient_series(family, 2).coeffs == (1, 3, 6)
    assert eliminated == []
    assert quotient_series(FormFamily(3, ()), 3).coeffs == (1, 3, 6, 10)
    assert eliminated == []


def assert_chain_matches_scratch(family, max_deg):
    """Degree max_deg, then degrees 0..max_deg, eliminated with one chain
    (a basis of any degree but e - 1 must not seed degree e) against
    each degree from scratch and against the whole Macaulay matrix;
    returns the chained ranks of 0..max_deg."""
    chain = {}
    ideal_dimension_at_degree(family, max_deg, chain)
    ranks = []
    for e in range(max_deg + 1):
        ranks.append(ideal_dimension_at_degree(family, e, chain))
        assert ranks[-1] == ideal_dimension_at_degree(family, e)
        assert ranks[-1] == reference_dimension(family, e)
        assert set(chain) <= {e}  # one basis kept, the last one
    return ranks


@settings(max_examples=150, deadline=None)
@given(family=families(), max_deg=st.integers(0, 9))
def test_seeded_chain_matches_scratch(family, max_deg):
    assert_chain_matches_scratch(family, max_deg)


@pytest.mark.parametrize("prime", (2, 3, 101, 2**31 - 1))
def test_seeded_chain_named_cases(prime):
    rng = np.random.default_rng(prime)
    quad = random_form(3, 2, rng, prime)
    # n = 1: one column per degree; a seeded degree feeds only the
    # generators of that degree (u = 1 is its one x_1-free multiplier)
    assert_chain_matches_scratch(FormFamily(1, (random_form(1, 2, rng, prime),), prime), 5)
    # mixed generator degrees
    mixed = FormFamily(3, tuple(random_form(3, d, rng, prime) for d in (1, 3, 2)), prime)
    assert_chain_matches_scratch(mixed, 7)
    # repeated forms: the two copies of quad are 2 rows of rank 1 in degree 2,
    # so the chain carries a dependency from its first nonempty degree on
    repeated = FormFamily(3, (quad, quad, random_form(3, 3, rng, prime)), prime)
    assert macaulay_shape(repeated, 2)[0] == 2
    assert ideal_dimension_at_degree(repeated, 2) == 1
    assert_chain_matches_scratch(repeated, 8)
    # full column rank in the middle of the chain, and seeds from it after
    full = FormFamily(3, tuple(random_form(3, 2, rng, prime) for _ in range(4)), prime)
    ranks = assert_chain_matches_scratch(full, 6)
    if prime > 3:
        assert ranks[3] == monomial_count(3, 3) and ranks[6] == monomial_count(3, 6)


def test_seeded_degree_feeds_only_xn_free_rows(monkeypatch):
    """(4,2,4) k=5 at degree 18, seeded by degree 17: 5 forms of degree 8
    times the 66 x_n-free monomials of degree 10, 330 of the 1430 rows."""
    from genforms import macaulay
    from genforms.verifier import CaseSpec, default_family

    family = default_family(CaseSpec(4, 2, 4, 5), 0)
    chain = {}
    ideal_dimension_at_degree(family, 17, chain)
    fed = []
    real = macaulay.macaulay_rows

    def counting(form, e, *args):
        block = real(form, e, *args)
        fed.append(block.shape[0])
        return block

    monkeypatch.setattr(macaulay, "macaulay_rows", counting)
    assert ideal_dimension_at_degree(family, 18, chain) == 1330
    assert sum(fed) == 330 and macaulay_shape(family, 18) == (1430, 1330)


def test_pure_powers_are_recognised_by_their_one_term():
    n = 3
    quad = random_form(n, 2, np.random.default_rng(1))
    family = FormFamily(n, (
        pure_power(n, 2, 3, c=5), quad, pure_power(n, 0, 4), pure_power(n, 2, 2, c=P - 1),
        form(n, {(1, 1, 0): 1}),  # one term, not a pure power
        ModPPoly(n, 2, (0,) * 6),  # the zero form
        pure_power(n, 0, 1, c=0, prime=P),  # also the zero form
    ))
    least, others, _ = family.pure_powers
    assert least == (4, None, 2)
    assert others == (quad,) + family.forms[4:]
    assert FormFamily(n, ()).pure_powers[:2] == ((None,) * n, ())


def reference_pure_powers(family):
    """The scan that `FormFamily.pure_powers` ran on every form of every
    family before each form cached its own test: (least, others,
    other_counts) from the nonzero coefficients' exponent vectors."""
    least, others = [None] * family.n, []
    for f in family.forms:
        exps = lex_exponents(f.n, f.degree)[np.flatnonzero(f.coeffs)]
        if f.degree >= 1 and len(exps) == 1 and exps.max() == f.degree:
            i = int(exps.argmax())
            least[i] = min(least[i] or f.degree, f.degree)
        else:
            others.append(f)
    counts = {}
    for f in others:
        counts[f.degree] = counts.get(f.degree, 0) + 1
    return tuple(least), tuple(others), tuple(sorted(counts.items()))


@st.composite
def pure_power_candidates(draw, n, prime):
    """c*x_i^a with any c != 0, the zero form, a degree-0 constant, a
    one-term monomial that is not a pure power, or a random form."""
    kind = draw(st.sampled_from(("pure", "zero", "constant", "monomial", "random")))
    a = draw(st.integers(1, 4))
    c = draw(st.integers(1, prime - 1))
    if kind == "pure":
        return pure_power(n, draw(st.integers(0, n - 1)), a, c, prime)
    if kind == "zero":
        return ModPPoly(n, a, (0,) * monomial_count(n, a), prime)
    if kind == "constant":
        return ModPPoly(n, 0, (draw(st.integers(0, prime - 1)),), prime)
    if kind == "monomial" and n >= 2:
        mono = draw(st.sampled_from([m for m in reference_monomials(n, a) if max(m) < a]
                                    or reference_monomials(n, a)))
        return form(n, {mono: c}, prime)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_form(n, a, rng, prime)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), prime=st.sampled_from((2, 3, 101, 2**31 - 1)))
def test_cached_pure_power_test_matches_the_scan(data, n, prime):
    """Each form's cached test and the family's pure powers against the
    scan, on families that also hold one variable's pure powers at two
    degrees, in either order."""
    forms = data.draw(st.lists(pure_power_candidates(n, prime), max_size=8))
    i = data.draw(st.integers(0, n - 1))
    a, b = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    forms += [pure_power(n, i, a, max(1, prime - 2), prime), pure_power(n, i, b, prime - 1, prime)]
    family = FormFamily(n, tuple(data.draw(st.permutations(forms))), prime)
    assert family.pure_powers == reference_pure_powers(family)
    assert family.pure_powers[0][i] <= min(a, b)
    for f in family.forms:
        least, others, _ = reference_pure_powers(FormFamily(n, (f,), prime))
        assert f.pure_power == (None if others else least.index(f.degree))


@pytest.mark.parametrize("prime", (2, 3, 101, 2**31 - 1))
def test_seeded_chain_with_pure_powers_named_cases(prime):
    """Pure powers x_1^{a_1} and 2*x_n^3 around random forms: the seed
    goes through x_n, which from degree 3 on kills the standard columns of
    x_n-exponent 2, and basis rows whose pivot lies there must be fed
    again."""
    rng = np.random.default_rng(prime)
    for n, a1 in ((2, 1), (3, 2), (3, 3), (4, 2)):
        forms = (random_form(n, 2, rng, prime), pure_power(n, 0, a1, prime=prime),
                 random_form(n, 3, rng, prime), pure_power(n, n - 1, 3, c=2, prime=prime))
        assert_chain_matches_scratch(FormFamily(n, forms, prime), 9)
    # pure powers only: no row is eliminated
    only = FormFamily(3, tuple(pure_power(3, i, 2 + i, prime=prime) for i in range(3)), prime)
    assert assert_chain_matches_scratch(only, 7) == [
        monomial_count(3, e) - c
        for e, c in enumerate(quotient_hilbert_function(
            MonomialIdeal.from_generators(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]), 7).coeffs)
    ]


def test_a_seeded_degree_feeds_the_rows_xn_moved_off_the_seed(monkeypatch):
    """(3,2,2) k=4 at the pure-power point, degree 7 seeded by degree 6:
    x_3^4 kills the standard monomials of degree 6 with x_3-exponent 3,
    columns 3, 6, 8 and 9 of 10, and the basis has its 6 pivots on
    columns 0..5, so 1 basis row loses its pivot and is fed again. With
    the 5 rows kept in the seed it spans all 6 standard columns of
    degree 7, so the random form's rows are never built."""
    from genforms.verifier import CaseSpec, pure_power_family

    family = pure_power_family(CaseSpec(3, 2, 2, 4), 0)
    want = reference_dimension(family, 7)
    chain = {}
    ideal_dimension_at_degree(family, 6, chain)
    pivots = chain[6][0]
    killed = [3, 6, 8, 9]
    assert lex_exponents(3, 6, (4, 4, 4))[killed, 2].tolist() == [3] * 4
    assert (pivots.size, int(np.isin(pivots, killed).sum())) == (6, 1)
    fed = []
    real = modp.RowReducer.add_rows

    def counting(self, block):
        fed.append(np.atleast_2d(block).shape[0])
        return real(self, block)

    monkeypatch.setattr(modp.RowReducer, "add_rows", counting)
    assert ideal_dimension_at_degree(family, 7, chain) == want
    assert fed == [1]


def test_the_pure_power_point_feeds_few_basis_rows_again(monkeypatch):
    """(4,2,4) k=5 at the pure-power point, seed 0, over its whole series:
    the reducers take the 256 Macaulay rows built and 40 basis rows whose
    pivot x_n killed (x_1, which kills the columns that carry the
    pivots, would move 241)."""
    from genforms.verifier import CaseSpec, pure_power_family

    spec = CaseSpec(4, 2, 4, 5)
    family = pure_power_family(spec, 0)
    fed, built = [], []
    real_add, real_rows = modp.RowReducer.add_rows, macaulay.macaulay_rows

    def adding(self, block):
        fed.append(np.atleast_2d(block).shape[0])
        return real_add(self, block)

    def building(*args):
        block = real_rows(*args)
        built.append(block.shape[0])
        return block

    monkeypatch.setattr(modp.RowReducer, "add_rows", adding)
    monkeypatch.setattr(macaulay, "macaulay_rows", building)
    series = quotient_series(family, spec.trunc)
    assert series.coeffs[-1] == 0
    assert (sum(built), sum(fed) - sum(built)) == (256, 40)


def growing_families(family):
    """The family's pure powers followed by the first j of its other
    forms, for j = 0..len(others): each family extends the one before
    it, with the same pure powers."""
    others = family.pure_powers[1]
    pure = tuple(f for f in family.forms if not any(f is g for g in others))
    return [FormFamily(family.n, pure + others[:j], family.prime)
            for j in range(len(others) + 1)]


def assert_kept_seeds_match_scratch(family, max_deg):
    """Every growing family of family, in order, sharing one KeptBases:
    the same series as each computed alone."""
    kept = KeptBases()
    for grown in growing_families(family):
        assert (quotient_series(grown, max_deg, kept=kept)
                == quotient_series(grown, max_deg))


@settings(max_examples=150, deadline=None)
@given(family=families(), max_deg=st.integers(0, 9))
def test_kept_seeds_match_scratch(family, max_deg):
    assert_kept_seeds_match_scratch(family, max_deg)


@pytest.mark.parametrize("prime", (2, 3, 101, 2**31 - 1))
def test_kept_seeds_named_cases(prime):
    """Pure powers x_i^{md} of every variable and random forms after them,
    as at the pure-power point of a sweep, and the same with a repeated
    form and with forms of mixed degrees."""
    rng = np.random.default_rng(prime)
    for n, md, k in ((3, 4, 9), (4, 4, 8), (3, 6, 7)):
        forms = tuple(random_form(n, md, rng, prime) for _ in range(k - n))
        assert_kept_seeds_match_scratch(
            FormFamily(n, pure_power_family(n, md, prime).forms + forms, prime), 4 * md)
    quad = random_form(3, 2, rng, prime)
    mixed = (quad, random_form(3, 3, rng, prime), quad, random_form(3, 2, rng, prime))
    assert_kept_seeds_match_scratch(
        FormFamily(3, (pure_power(3, 0, 3, prime=prime),) + mixed, prime), 9)


def test_kept_bases_hold_the_latest_basis_of_each_degree():
    """One basis per degree, the latest kept, whatever its size. seed
    hands a basis over and no longer holds it; a refused seed leaves
    every basis kept."""
    rng = np.random.default_rng(3)
    cubes = pure_power_family(3, 3).forms
    forms = tuple(random_form(3, 3, rng) for _ in range(4))
    bounds = (3, 3, 3)

    def bases(family):
        chain, out = {}, {}
        for e in (3, 4, 5):
            ideal_dimension_at_degree(family, e, chain)
            out[e] = chain[e]
        return family.pure_powers[1], out

    two, small = bases(FormFamily(3, cubes + forms[:2]))
    four, large = bases(FormFamily(3, cubes + forms))
    assert [(b[0].size, b[0].size + b[1].size) for b in small.values()] == [(2, 7), (6, 6), (3, 3)]
    kept = KeptBases()
    for e, basis in small.items():
        kept.keep(e, two, bounds, basis)
    kept.keep(3, four, bounds, large[3])
    held = {e: entry[2] for e, entry in kept.bases.items()}
    assert held == {3: large[3], 4: small[4], 5: small[5]}
    assert all(held[e] is basis for e, basis in ((3, large[3]), (4, small[4])))
    with pytest.raises(SoundnessError, match="spans 4 forms"):
        kept.seed(3, two, bounds, 7)
    with pytest.raises(SoundnessError, match="columns"):
        kept.seed(4, two, (2, 3, 3), 6)
    assert {e: entry[2] for e, entry in kept.bases.items()} == held
    j, basis = kept.seed(3, four, bounds, 7)
    assert j == 4 and basis is large[3] and set(kept.bases) == {4, 5}
    assert kept.seed(3, four, bounds, 7) is None
    assert kept.seed(4, four, bounds, 6)[1] is small[4] and set(kept.bases) == {5}


def test_the_reducer_alone_holds_the_seed_it_starts_from(monkeypatch):
    """While degree e is eliminated, a kept basis that lost to x_n's seed
    is already freed, and the seed taken, kept or x_n's, is held by the
    reducer alone (its only reference besides getrefcount's argument)."""
    rng = np.random.default_rng(4)
    cubes = pure_power_family(3, 3).forms
    forms = tuple(random_form(3, 3, rng) for _ in range(3))
    watched, checks = [], []
    real_add = modp.RowReducer.add_rows

    def add_rows(self, block):
        if not checks:  # the first add_rows call since checks was cleared
            checks.append((sys.getrefcount(self._echelon), [ref() for ref in watched]))
        return real_add(self, block)

    monkeypatch.setattr(modp.RowReducer, "add_rows", add_rows)
    # the kept basis of two forms (rank 2 of 7) seeds degree 3 of three,
    # which has no chain
    kept = KeptBases()
    ideal_dimension_at_degree(FormFamily(3, cubes + forms[:2]), 3, kept=kept)
    checks.clear()
    ideal_dimension_at_degree(FormFamily(3, cubes + forms), 3, kept=kept)
    assert checks == [(2, [])]
    # the kept basis of the pure powers alone has no rows: x_n's seed wins
    kept = KeptBases()
    ideal_dimension_at_degree(FormFamily(3, cubes), 4, kept=kept)
    watched.append(weakref.ref(kept.bases[4][2][2]))
    chain = {}
    family = FormFamily(3, cubes + forms)
    ideal_dimension_at_degree(family, 3, chain)
    checks.clear()
    ideal_dimension_at_degree(family, 4, chain, kept=kept)
    assert checks == [(2, [None])]


def test_a_kept_basis_the_family_may_not_span_is_refused():
    """A kept basis of more forms than the family has, of other forms, or
    over other standard columns raises SoundnessError, not an assert."""
    rng = np.random.default_rng(5)
    cubes = pure_power_family(3, 3).forms
    forms = tuple(random_form(3, 3, rng) for _ in range(4))
    small = FormFamily(3, cubes + forms[:1])
    large = FormFamily(3, cubes + forms[:3])
    kept = KeptBases()
    ideal_dimension_at_degree(large, 5, kept=kept)
    with pytest.raises(SoundnessError, match="spans 3 forms"):
        ideal_dimension_at_degree(small, 5, kept=kept)
    swapped = FormFamily(3, cubes + (forms[3],) + forms[1:3])
    with pytest.raises(SoundnessError, match="spans 3 forms"):
        ideal_dimension_at_degree(swapped, 5, kept=kept)
    # x_1^2 in place of x_1^3: the same forms over other standard columns
    other = FormFamily(3, (pure_power(3, 0, 2),) + cubes[1:] + forms[:3])
    with pytest.raises(SoundnessError, match="columns"):
        ideal_dimension_at_degree(other, 5, kept=kept)
    # the family it was kept from, and any family that extends it, take it
    grown = FormFamily(3, cubes + forms)
    assert ideal_dimension_at_degree(grown, 5, kept=kept) == reference_dimension(grown, 5)


@pytest.mark.parametrize("n, a, k", [(1, 3, 1), (2, 2, 2), (3, 4, 2), (3, 2, 3), (4, 3, 4)])
def test_pure_power_complete_intersection_matches_the_sieve(n, a, k):
    """k <= n pure powers (i + 7) x_i^a: the quotient series is the
    monomial ideal's, by the divisibility sieve."""
    family = FormFamily(n, tuple(pure_power(n, i, a, c=i + 7) for i in range(k)))
    max_deg = k * (a - 1) + 1
    series = quotient_series(family, max_deg)
    ideal = MonomialIdeal.from_generators(n, [tuple(a * (j == i) for j in range(n))
                                              for i in range(k)])
    assert series == quotient_hilbert_function(ideal, max_deg)
    assert series == reference_quotient_series(family, max_deg)
