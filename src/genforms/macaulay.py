"""Random homogeneous forms over a prime field and their quotient series.

A form of degree d is one read-only int64 vector of coefficients in
[0, p), indexed by the fixed-degree monomial order, from its random draw
to its Macaulay rows. A family's k forms are drawn by one call, and a
form caches whether it is a pure power (`ModPPoly.pure_power`), so forms
that many families share are tested once. The degree-e graded piece of
the ideal generated by a family of forms is spanned by monomial multiples
of the generators; its dimension is the rank of the Macaulay matrix whose
rows are those multiples, computed over Z/p. The rows are built a group
of forms of one degree at a time, by one scatter through the group's
scatter table (`macaulay_rows`). Forms are multiplied only to be
powered: `power` squares a whole family at once, each product one
batched `_products` call through the same scatter tables as the
Macaulay rows.
The first-order bound, coefficient >= cols - rows of that degree's
Macaulay matrix, holds at every specialization and is checked per degree.

Pure powers are divided out in closed form. Let a_i be the least a such
that some c*x_i^a (c != 0) is in the family, J the monomial ideal of
those x_i^{a_i}, and call a monomial standard when every exponent e_i is
below a_i (no bound for a variable with no pure power). The standard
monomials of degree e are a basis of (R/J)_e, and the family's other
forms h meet it in the span of the rows u*h for standard multipliers u,
cut down to the standard columns (u*h lies in J for any other u). So

    dim I_e = #{degree-e monomials that are not standard} + rank,

the rank that of those rows over the standard columns only. A family
with no pure powers has every monomial standard, and this is the whole
Macaulay matrix.

Below the least generator degree no form has a multiple, so I_e = 0
and nothing is eliminated. From that degree on every degree is
eliminated, once, and consecutive degrees share work.
With B_e the image of I_e in (R/J)_e, for e >= 1
B_e = x_n B_{e-1} + span{u*h : u standard, x_n does not divide u}, since
u*h = x_n (u/x_n * h) when x_n | u. Multiplying by a monomial keeps the
lex order, so x_n maps the standard monomials of degree e - 1 in order
onto standard monomials of degree e, except those that x_n kills
(x_n-exponent a_n - 1), which it sends to zero (`_xn_column`). Moved
through that map, the rows of the reduced echelon basis of B_{e-1}
whose pivot survives are a reduced echelon basis of part of x_n B_{e-1},
found with no arithmetic. It seeds degree e's elimination. The basis
rows whose pivot x_n killed are fed again, moved the same way, then the
x_n-free standard rows.

Why x_n and not x_1: the reduced echelon basis puts its pivots on the
earliest lex columns, which have the highest x_1-exponents, so x_1
would kill the very columns that carry pivots, while the monomials that
x_n kills come last in lex order. At the pure-power points of the five
`ci-deep` cases of perfbench x_1 would move 594 basis rows off the seed,
x_n moves 113; on (7,2,2) k=8 it is 2098 against 744. (All are k = n+1,
which `verifier.verify_case` settles by theorem; these are the counts of
their elimination.) For (4,2,4) k=5 at degree 18 with no pure powers no
row is fed again and 330 of the 1430 rows are. So a seeded degree costs
little, and every rank reported is computed.

Families that extend one another share work too. When the forms of one
family are a prefix of another's and both have the same pure powers,
the first one's B_e lies in the second one's, so the first one's reduced
echelon basis of degree e can seed the second one's degree e as it
stands; then only the standard multiples of the forms it lacks are fed.
This is the second seed (`KeptBases`): a sweep keeps, for each degree,
the basis of its last pure-power case with k >= n and hands it to the
next larger k, whose family extends it. Each degree takes whichever
seed, x_n's or the kept one, has more rows, so fewer pivots are left to
find; the other is dropped before any row is fed. On (3,7,2)
k = 4..120, a slice of the perfbench `sweep-n3` workload, the pivot
loop finds 1023 pivots, against 2268 with the x_n seed alone; on
(5,2,3) k = 1..210, 3756 against 9089; on (5,2,4) k = 1..495, 15059
(k = n+1, settled by theorem, eliminating nothing).

Why a random prime-field point says anything about generic forms: the
rank of the Macaulay matrix at any specialization is at most the generic
rank (lower semicontinuity), and rank mod p of an integer specialization
is at most the rank in characteristic 0. So the quotient series computed
here is coefficientwise >= the generic characteristic-0 series, which in
turn is lexicographically >= the conjectured ceiling series. If the
computed series equals the conjectured one, the generic series is pinned
between them and the case is certified.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import draws, modp
# perfbench/tracing.py wraps enumerate_monomials where this module looks
# it up, so it stays imported though no code here calls it
from .monomials import (
    enumerate_monomials,  # noqa: F401
    exponent_array,
    lex_exponents,
    lex_rank,
    monomial_count,
)
from .series import TruncatedSeries


# Terms per slice of a batched product: its int64 and float64
# temporaries stay near 512 KB each, whatever the number of forms.
_PRODUCT_ENTRIES = 2**16


class ResourceLimit(RuntimeError):
    """The matrix to eliminate at a degree would exceed the entry budget
    (see `eliminated_shape`); degree is that degree."""

    def __init__(self, message, degree):
        super().__init__(message)
        self.degree = degree


class SoundnessError(ArithmeticError):
    """A computed rank or verdict broke a bound that holds at every
    specialization; the result must not be reported."""


@dataclass(frozen=True, eq=False)
class ModPPoly:
    """Homogeneous polynomial over Z/p as a dense coefficient vector:
    coeffs, given as any integer sequence of the right length (ints
    outside int64 raise OverflowError), is held reduced mod p in a
    read-only int64 array. Forms are equal when all four fields are."""

    n: int
    degree: int
    coeffs: np.ndarray
    prime: int = modp.DEFAULT_PRIME

    def __post_init__(self):
        modp.check_modulus(self.prime)
        coeffs = np.asarray(self.coeffs, dtype=np.int64) % self.prime
        expected = monomial_count(self.n, self.degree)
        if coeffs.shape != (expected,):
            raise ValueError(
                f"degree-{self.degree} form in {self.n} variables needs "
                f"{expected} coefficients, got shape {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if not isinstance(other, ModPPoly):
            return NotImplemented
        same = (self.n, self.degree, self.prime) == (other.n, other.degree, other.prime)
        return same and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.n, self.degree, self.prime, self.coeffs.tobytes()))

    @cached_property
    def pure_power(self) -> int | None:
        """i if the form is c*x_i^a with c != 0 and a = degree >= 1 (i
        counted from 0), else None. Found by one scan of the coefficients
        the first time it is asked, so a form that many families share,
        as a sweep's draws and pure powers are, is scanned once."""
        support = np.flatnonzero(self.coeffs)
        if self.degree < 1 or support.size != 1:
            return None
        exps = lex_exponents(self.n, self.degree, None)[support[0]]
        return int(exps.argmax()) if exps.max() == self.degree else None

    @classmethod
    def from_monomial_dict(cls, n, degree, terms, prime=modp.DEFAULT_PRIME):
        """Build from {exponent tuple: coefficient}, each coefficient
        reduced mod p first. Raises ValueError for a monomial of another
        length or degree, or with a negative exponent."""
        coeffs = np.zeros(monomial_count(n, degree), dtype=np.int64)
        index = lex_rank(exponent_array(terms, n, degree))
        coeffs[index] = [c % prime for c in terms.values()]
        return cls(n, degree, coeffs, prime)


@dataclass(frozen=True)
class FormFamily:
    """An immutable family of forms sharing n and prime.

    seed is metadata: together with the prime and the draw order (forms
    in index order, coefficients in monomial-rank order) it makes every
    run replayable bit-exactly.
    """

    n: int
    forms: tuple[ModPPoly, ...]
    prime: int = modp.DEFAULT_PRIME
    seed: int | None = None
    # (degree, count) pairs of the forms, in increasing degree, counted
    # once: every Macaulay shape reads these, not the k forms
    degree_counts: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = {}
        for f in self.forms:
            if f.n != self.n or f.prime != self.prime:
                raise ValueError("all forms must share n and prime")
            counts[f.degree] = counts.get(f.degree, 0) + 1
        object.__setattr__(self, "degree_counts", tuple(sorted(counts.items())))

    @property
    def k(self) -> int:
        return len(self.forms)

    @property
    def degree(self) -> int:
        """The one degree of the forms; ValueError if they have none or
        more than one."""
        if len(self.degree_counts) != 1:
            raise ValueError(
                f"need forms of one degree, got {[d for d, _ in self.degree_counts]}"
            )
        return self.degree_counts[0][0]

    @cached_property
    def pure_powers(self):
        """(least, others, other_counts), found once per family: least[i]
        is the least a >= 1 such that some c*x_i^a with c != 0 is in the
        family, or None; others are the forms that are not such a pure
        power, in family order; other_counts their (degree, count) pairs,
        which the entry budget reads (`eliminated_shape`). Each form is
        tested by its cached `ModPPoly.pure_power`, so families that
        share forms scan each of them once."""
        least, others = [None] * self.n, []
        for f in self.forms:
            i = f.pure_power
            if i is None:
                others.append(f)
            else:
                least[i] = min(least[i] or f.degree, f.degree)
        counts = Counter(f.degree for f in others)
        return tuple(least), tuple(others), tuple(sorted(counts.items()))

    @classmethod
    def random(cls, n, d, k, seed, prime=modp.DEFAULT_PRIME):
        """k independent uniform random forms of degree d: every
        coefficient drawn independently and uniformly from [0, p), the
        first k x S draws of seed's stream (`draws.integers`) for S
        monomials, form i taking draws iS..(i+1)S - 1. So the first j
        forms of a seed do not depend on k. ValueError for d < 1, and for
        a negative seed or k (`draws.integers`)."""
        if d < 1:
            raise ValueError("form degree must be >= 1")
        size = monomial_count(n, d)
        coeffs = draws.integers(seed, prime, k * size).reshape(-1, size)
        return cls(n, tuple(ModPPoly(n, d, row, prime) for row in coeffs), prime, seed)


def power(f: FormFamily, m: int) -> FormFamily:
    """The family of the m-th powers of f's forms, which must share one
    degree (`FormFamily.degree`, ValueError otherwise), by repeated
    squaring.

    The family is powered as a whole: every squaring and every product is
    one batched `_products` call over all its forms, not one call per
    form. Each call is exact while min(S_a, S_b)(p - 1) < 2^53 for
    operands of S_a and S_b coefficients, which holds for every p < 2^31
    and operand below 2^22 monomials, and is checked (OverflowError).
    """
    if m < 1:
        raise ValueError("exponent must be >= 1")
    d = f.degree
    rows = _power_rows(np.stack([g.coeffs for g in f.forms]), f.n, d, m, f.prime)
    forms = tuple(ModPPoly(f.n, d * m, row, f.prime) for row in rows)
    return FormFamily(f.n, forms, f.prime, f.seed)


def _power_rows(rows: np.ndarray, n: int, d: int, m: int, p: int) -> np.ndarray:
    """Row i of the result is the m-th power of the degree-d form rows[i]."""
    result, result_degree = None, 0
    base, base_degree = rows, d
    while m:
        if m & 1:
            if result is None:
                result, result_degree = base, base_degree
            else:
                result = _products(result, base, n, result_degree, base_degree, p)
                result_degree += base_degree
        m >>= 1
        if m:
            base = _products(base, base, n, base_degree, base_degree, p)
            base_degree *= 2
    return result


def _products(a: np.ndarray, b: np.ndarray, n: int, da: int, db: int, p: int) -> np.ndarray:
    """Row i of the result is the product of the forms a[i] (degree da)
    and b[i] (degree db), coefficients in [0, p).

    With T the scatter table of degree db into degree da + db,
    out[i, T[x, y]] += a[i, x] * b[i, y]. Each term is reduced mod p and
    the terms are summed by one float64 `np.bincount` per slice of
    _PRODUCT_ENTRIES terms. An output coefficient gets one term per way of
    splitting its monomial into a degree-da and a degree-db part, at most
    min(S_a, S_b) of them for S monomials per operand, each below p: the
    sum is exact while min(S_a, S_b)(p - 1) < 2^53, and each term while
    (p - 1)^2 < 2^63. Both are checked by a raise of OverflowError.
    """
    k, sa = a.shape
    sb = b.shape[1]
    if (p - 1) ** 2 >= 2**63 or min(sa, sb) * (p - 1) >= 2**53:
        raise OverflowError(
            f"products of {sa} and {sb} coefficients below {p} leave the "
            "exact range (terms below 2^63, sums below 2^53)"
        )
    table = _scatter_table(n, db, da + db, False)
    cols = monomial_count(n, da + db)
    out = np.empty((k, cols), dtype=np.int64)
    step = max(1, _PRODUCT_ENTRIES // (sa * sb))
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        terms = a[lo:hi, :, None] * b[lo:hi, None, :]
        terms %= p
        index = table + (np.arange(hi - lo) * cols)[:, None, None]
        sums = np.bincount(index.ravel(), terms.ravel(), (hi - lo) * cols)
        out[lo:hi] = sums.reshape(hi - lo, cols).astype(np.int64) % p
    return out


@lru_cache(maxsize=None)
def _standard(n: int, e: int, bounds: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """(column, count) of the degree-e standard monomials: column[j] is
    the index of the j-th degree-e monomial among the standard ones, in
    lex order, or count for a monomial that is not standard. The standard
    ones are listed by `monomials.lex_exponents` under bounds, so the
    others are never listed."""
    standard = lex_exponents(n, e, bounds)
    count = len(standard)
    column = np.full(monomial_count(n, e), count, dtype=np.intp)
    column[lex_rank(standard)] = np.arange(count)
    column.flags.writeable = False
    return column, count


@lru_cache(maxsize=None)
def _scatter_table(n: int, dg: int, e: int, xn_free: bool, bounds=None) -> np.ndarray:
    """Index matrix T with T[i, j] = rank(multiplier_i * monomial_j) in
    degree e, for multipliers of degree e - dg (with xn_free, only those
    not divisible by x_n) and source monomials of degree dg.

    With bounds, a tuple of n exponent bounds, only the standard
    multipliers are listed (every exponent e_i < bounds[i], the bounds of
    degree e - dg passed to `monomials.lex_exponents`), and T[i, j] is
    the product's column among the standard monomials of degree e, or
    their count when it is not standard (see `_standard`).

    Built by one broadcast `lex_rank(U[:, None, :] + V[None, :, :])` over
    the `lex_exponents` arrays U of the multipliers and V of the sources.
    The rank is the closed form of the combinatorial number system,
    rank(m) = sum_{i=0}^{n-2} monomial_count(n - i, r_i - m_i - 1) with
    r_i the degree left after the first i exponents (a negative degree
    counts 0), so no monomial is looked up.
    """
    mult = lex_exponents(n, e - dg, None if bounds is None else _bounds_at(bounds, e - dg))
    if xn_free:
        mult = mult[mult[:, -1] == 0]
    table = lex_rank(mult[:, None, :] + lex_exponents(n, dg, None)[None, :, :])
    if bounds is not None:
        table = _standard(n, e, bounds)[0][table]
    table.flags.writeable = False
    return table


def macaulay_rows(family: FormFamily, e: int, xn_free: bool = False, bounds=None) -> np.ndarray:
    """Rows of the degree-e Macaulay matrix contributed by a family of
    forms of one degree (`FormFamily.degree`): form by form, in family
    order, all monomial multiples of degree e - degree, or with xn_free
    only the multiples u*form with x_n not dividing u, in the same order.
    With bounds, only the standard multiples and columns (see
    `_scatter_table`). One scatter through the table writes every form's
    rows."""
    n, dg = family.n, family.degree
    cols = monomial_count(n, e) if bounds is None else _standard(n, e, bounds)[1]
    if e < dg:
        return np.zeros((0, cols), dtype=np.int64)
    t = _scatter_table(n, dg, e, xn_free, bounds)
    coeffs = np.array([f.coeffs for f in family.forms])
    # products outside the standard columns land in one extra column
    block = np.zeros((family.k, t.shape[0], cols + 1), dtype=np.int64)
    block[:, np.arange(t.shape[0])[:, None], t] = coeffs[:, None, :]
    return block.reshape(-1, cols + 1)[:, :cols]


def _bounds_at(least, e: int) -> tuple[int, ...]:
    """The exponent bounds of degree e: each of least capped at e + 1,
    which bounds nothing in degree e, as does None. Capping makes equal
    bounds of one degree one cache key."""
    return tuple(e + 1 if a is None else min(a, e + 1) for a in least)


@lru_cache(maxsize=None)
def _xn_column(n: int, e: int, bounds: tuple[int, ...]) -> np.ndarray:
    """sigma: x_n times each standard monomial of degree e - 1, as its
    column among the standard monomials of degree e (bounds those of
    degree e), or their count when x_n kills it (the x_n column of the
    scatter table of degree 1 into degree e, alone). The standard
    monomials of degree e - 1 are `monomials.lex_exponents` under that
    degree's bounds."""
    shifted = lex_exponents(n, e - 1, _bounds_at(bounds, e - 1)).copy()
    shifted[:, -1] += 1
    sigma = _standard(n, e, bounds)[0][lex_rank(shifted)]
    sigma.flags.writeable = False
    return sigma


def _xn_seed(basis: modp.Echelon, lost: np.ndarray, n: int, e: int, bounds):
    """x_n times degree e - 1's basis, as degree e's seed over all of
    degree e's standard columns (bounds), and the block of rows to feed
    again, in a list (see the module docstring).

    The rows whose pivot survives keep it and their surviving free
    entries, moved through sigma (`_xn_column`): with no arithmetic they
    are still a reduced echelon basis. The rows whose pivot x_n kills
    (lost, a mask of the basis rows) are returned, moved the same way, to
    be fed again.
    """
    pivots, free, block = basis
    sigma = _xn_column(n, e, bounds)
    cols = _standard(n, e, bounds)[1]
    kept = sigma[free] < cols
    targets = sigma[free[kept]]
    tails = block[:, kept]
    seed_pivots = sigma[pivots[~lost]]
    is_free = np.ones(cols, dtype=bool)
    is_free[seed_pivots] = False
    seed_free = np.flatnonzero(is_free)
    seed_block = np.zeros((seed_pivots.size, seed_free.size), dtype=np.int64)
    seed_block[:, np.searchsorted(seed_free, targets)] = tails[~lost]
    again = np.zeros((int(lost.sum()), cols), dtype=np.int64)
    again[:, targets] = tails[lost]
    return (seed_pivots, seed_free, seed_block), [again]


class KeptBases:
    """For each degree e, the reduced echelon basis of degree e of the
    last family computed with it, for a later family that extends that
    one to seed degree e with (see `ideal_dimension_at_degree`). Like
    the x_n chain within one family, it holds one basis per degree, the
    latest.

    bases maps e to (others, bounds, basis): the family's forms other
    than pure powers, the exponent bounds of degree e, and the basis over
    degree e's standard columns. A family whose pure powers are the same
    and whose other forms start with others spans, in degree e, a space
    that contains the basis.
    """

    def __init__(self):
        self.bases = {}

    def seed(self, e: int, others, bounds, cols: int):
        """(j, basis) kept for degree e, basis spanned by the rows of
        others[:j], or None. A basis it returns leaves the store, so the
        caller holds the only reference while it eliminates degree e. A
        basis of forms that are not the first j of others, or over other
        standard columns (bounds, cols), raises SoundnessError and stays
        kept: it would seed a space the family's rows may not span."""
        entry = self.bases.get(e)
        if entry is None:
            return None
        forms, kept_bounds, basis = entry
        j = len(forms)
        if j > len(others) or others[:j] != forms:
            raise SoundnessError(
                f"degree-{e} kept basis spans {j} forms that are not the first of "
                f"the family's {len(others)}"
            )
        width = basis[0].size + basis[1].size
        if kept_bounds != bounds or width != cols:
            raise SoundnessError(
                f"degree-{e} kept basis is over {width} columns with bounds "
                f"{kept_bounds}, not {cols} with {bounds}"
            )
        del self.bases[e]
        return j, basis

    def keep(self, e: int, others, bounds, basis: modp.Echelon) -> None:
        """Keep basis for degree e in place of the one kept before."""
        self.bases[e] = (others, bounds, basis)

    def drop_from(self, e: int) -> None:
        """Drop the bases of degree e and above."""
        for degree in [d for d in self.bases if d >= e]:
            del self.bases[degree]


def macaulay_shape(family: FormFamily, e: int) -> tuple[int, int]:
    """(rows, cols) of the degree-e Macaulay matrix, without building it."""
    rows = sum(
        count * monomial_count(family.n, e - dg)
        for dg, count in family.degree_counts
        if dg <= e
    )
    return rows, monomial_count(family.n, e)


def eliminated_shape(n: int, e: int, least, other_counts, budget=None) -> tuple[int, int]:
    """(rows, cols) of the matrix `ideal_dimension_at_degree` eliminates
    at degree e, from the pure-power bounds least and the (degree, count)
    pairs of the other forms alone (`FormFamily.pure_powers`), without
    building a row: each count of standard monomials is the length of
    `monomials.lex_exponents` under the bounds of its degree, the arrays
    the elimination then builds from. Over budget, if given,
    ResourceLimit carrying e: the one budget rule, of `quotient_series`
    and of `verifier.verify_case`."""
    rows = sum(
        count * len(lex_exponents(n, e - dg, _bounds_at(least, e - dg)))
        for dg, count in other_counts
        if dg <= e
    )
    cols = len(lex_exponents(n, e, _bounds_at(least, e)))
    if budget is not None and rows * cols > budget:
        raise ResourceLimit(
            f"degree-{e} Macaulay matrix has {rows}x{cols} = {rows * cols} "
            f"entries, over budget {budget}", e
        )
    return rows, cols


def ideal_dimension_at_degree(
    family: FormFamily,
    e: int,
    chain: dict[int, modp.Echelon] | None = None,
    kept: KeptBases | None = None,
) -> int:
    """dim of the degree-e graded piece of the ideal generated by the family.

    The family's pure powers are divided out in closed form: the result
    is the count of degree-e monomials that are not standard plus the
    rank of the other forms' rows over the standard columns (see the
    module docstring). Those rows are merged into one `modp.RowReducer`
    in groups, and this is the one place that groups them. The items, the
    rows fed again, then the forms, are taken in order, each one's height
    known before its rows are built. The group held is merged first if
    the next item would take it past `modp.CHUNK` rows, and merged as
    soon as it reaches CHUNK rows or could bring the basis to full column
    rank; once the basis has full column rank no further item is taken.
    A merge builds its forms' rows by one `macaulay_rows` call per run of
    forms of one degree and feeds the group by one `add_rows` call.

    chain, if given, is a dict that one family's calls share across
    degrees: it maps the last degree eliminated with it to that degree's
    basis. If that degree is e - 1, x_n times its basis seeds the reducer
    and only its rows whose pivot x_n killed and the rows u*h with x_n
    not dividing u are fed (see the module docstring); a basis over
    another number of columns raises SoundnessError. On return it maps e
    to degree e's basis, and nothing else.

    kept, if given, is a `KeptBases` shared with families that this one
    extends. Its degree-e basis, of the rows of others[:j], is the second
    seed: the reducer starts from it as it stands and is fed every
    standard multiple of others[j:], and nothing else. Of the two seeds
    the one with more rows is taken (on a tie, x_n's), since each row it
    lacks is a pivot to find; both counts are known before any
    arithmetic. The kept basis leaves kept when it is offered, so the
    seed that is not taken is dropped before any row is fed, and the
    reducer holds the only reference to the one that is. A kept basis of
    forms that are not the first j of others, or over other standard
    columns, raises SoundnessError. On return kept holds degree e's basis.
    """
    bases = {} if chain is None else chain
    seed = bases.pop(e - 1, None)
    bases.clear()
    if e < 0:
        return 0
    rows_total, total = macaulay_shape(family, e)
    if rows_total == 0:
        return 0
    least, others, _ = family.pure_powers
    bounds = _bounds_at(least, e)
    cols = _standard(family.n, e, bounds)[1]
    prefix = None if kept is None else kept.seed(e, others, bounds, cols)
    if seed is not None:
        # x_n moves off degree e's seed the rows whose pivot it kills
        sigma = _xn_column(family.n, e, bounds)
        width = seed[0].size + seed[1].size
        if width != sigma.size:
            raise SoundnessError(f"degree-{e - 1} seed has {width} columns, not {sigma.size}")
        lost = sigma[seed[0]] == cols
        # of the two seeds, the one with more rows leaves fewer pivots to find
        if prefix is not None and prefix[1][0].size <= seed[0].size - int(lost.sum()):
            prefix = None
    again, fed, xn_free = [], others, False
    if prefix is not None:
        j, seed = prefix
        fed = others[j:]
    elif seed is not None:
        seed, again = _xn_seed(seed, lost, family.n, e, bounds)
        xn_free = True
    reducer = modp.RowReducer(cols, family.prime, seed)
    del seed, prefix  # the reducer holds the seed; keep one basis alive

    def merge(group):
        # one add_rows call: the rows fed again, then one macaulay_rows
        # call per run of forms of one degree
        blocks = [item for item in group if isinstance(item, np.ndarray)]
        for _, run in itertools.groupby(group[len(blocks) :], attrgetter("degree")):
            family_run = FormFamily(family.n, tuple(run), family.prime)
            blocks.append(macaulay_rows(family_run, e, xn_free, bounds))
        if blocks:
            reducer.add_rows(blocks[0] if len(blocks) == 1 else np.vstack(blocks))

    # again, then fed's forms of degree <= e, each item's height known
    # before its rows are built
    group, height = [], 0
    for item in itertools.chain(again, fed):
        if reducer.full_column_rank:
            break
        if isinstance(item, np.ndarray):
            size = item.shape[0]
        elif item.degree <= e:
            size = _scatter_table(family.n, item.degree, e, xn_free, bounds).shape[0]
        else:
            continue
        if height + size > modp.CHUNK:
            merge(group)
            group, height = [], 0
        group.append(item)
        height += size
        if height >= modp.CHUNK or reducer.rank + height >= cols:
            merge(group)
            group, height = [], 0
    merge(group)
    dim = total - cols + reducer.rank
    if dim > rows_total or dim > total:
        raise SoundnessError(
            f"degree-{e} rank {dim} exceeds the {rows_total}x{total} matrix"
        )
    bases[e] = reducer.echelon
    if kept is not None:
        kept.keep(e, others, bounds, reducer.echelon)
    return dim


def quotient_series(family, max_deg, budget=None, kept=None) -> TruncatedSeries:
    """Hilbert series of R/(family) up to max_deg.

    Coefficient e = C(n+e-1, e) - dim I_e, each dim I_e eliminated in
    degree order from the least generator degree on; below it I_e is zero
    and the coefficient is written with no elimination. Once a
    coefficient is zero the ideal contains that power of the maximal
    ideal, so the tail is zero without further elimination.
    x_n times each degree's basis seeds the next (see the module
    docstring); kept, a `KeptBases` of a family that this one extends,
    offers each degree a second seed, and takes this family's bases in
    return (see `ideal_dimension_at_degree`). budget, if given, caps the
    entries of each degree's matrix, every standard multiple of the other
    forms however few a seed leaves to feed (`eliminated_shape`), and is
    checked here, before each degree is eliminated.
    """
    start = family.degree_counts[0][0] if family.forms else max_deg + 1
    coeffs = [monomial_count(family.n, e) for e in range(min(start, max_deg + 1))]
    least, _, other_counts = family.pure_powers
    chain = {}  # the last eliminated degree -> its basis
    for e in range(len(coeffs), max_deg + 1):
        if budget is not None:
            eliminated_shape(family.n, e, least, other_counts, budget)
        rows, cols = macaulay_shape(family, e)
        dim = ideal_dimension_at_degree(family, e, chain, kept)
        coeff = cols - dim
        # first-order lower bound holds at every specialization
        if coeff < cols - rows:
            raise SoundnessError(
                f"degree-{e} coefficient {coeff} is below the first-order "
                f"bound {cols - rows}"
            )
        coeffs.append(coeff)
        if coeff == 0:
            coeffs.extend([0] * (max_deg - e))
            break
    return TruncatedSeries(tuple(coeffs), terminated=coeffs[-1] == 0)
