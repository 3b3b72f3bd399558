"""Random homogeneous forms over a prime field and their quotient series.

A form of degree d is one read-only int64 vector of coefficients in
[0, p), indexed by the fixed-degree monomial order, from its random draw
to its Macaulay rows. The degree-e graded piece of the ideal generated by
a family of forms is spanned by monomial multiples of the generators; its
dimension is the rank of the Macaulay matrix whose rows are those
multiples, computed over Z/p.

Every degree is eliminated, once, and consecutive degrees share work.
For e >= 1, I_e = x_1 I_{e-1} + span{u*g : x_1 does not divide u}, since
a row u*g with x_1 | u lies in x_1 I_{e-1}. In the lex order x_1 comes
first, so x_1 times the j-th degree-(e-1) monomial is the j-th degree-e
monomial, and the monomials free of x_1 are the last ones. The reduced
echelon basis of I_{e-1}, padded with zero columns, is therefore already
a reduced echelon basis of x_1 I_{e-1}, found with no arithmetic. It
seeds degree e's elimination, and only the x_1-free rows are fed on top
of it: for (4,2,4) k=5 at degree 18, 330 of the 1430 rows. So a seeded
degree costs little, and every rank reported is computed.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import modp
from .monomials import enumerate_monomials, exponent_array, lex_rank, monomial_count
from .series import TruncatedSeries, binomial


# Terms per slice of a batched product: its int64 and float64
# temporaries stay near 512 KB each, whatever the number of forms.
_PRODUCT_ENTRIES = 2**16


class ResourceLimit(RuntimeError):
    """A Macaulay matrix would exceed the configured entry budget."""


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

    def __post_init__(self):
        for f in self.forms:
            if f.n != self.n or f.prime != self.prime:
                raise ValueError("all forms must share n and prime")

    @property
    def k(self) -> int:
        return len(self.forms)

    @classmethod
    def random(cls, n, d, k, seed, prime=modp.DEFAULT_PRIME):
        """k independent uniform random forms of degree d."""
        rng = np.random.default_rng(seed)
        forms = tuple(random_form(n, d, rng, prime) for _ in range(k))
        return cls(n, forms, prime, seed)


def random_form(n, d, rng, prime=modp.DEFAULT_PRIME) -> ModPPoly:
    """Every coefficient drawn independently and uniformly from [0, p)."""
    if d < 1:
        raise ValueError("form degree must be >= 1")
    coeffs = rng.integers(0, prime, size=monomial_count(n, d), dtype=np.int64)
    return ModPPoly(n, d, coeffs, prime)


def multiply(f: ModPPoly, g: ModPPoly) -> ModPPoly:
    """Exact product f*g: the one-form case of the batched `_products`,
    which scatters each term through the degree-(deg f + deg g) table
    and is exact while min(S_f, S_g)(p - 1) < 2^53 (S_f, S_g the
    coefficient counts; checked, raising OverflowError)."""
    if f.n != g.n or f.prime != g.prime:
        raise ValueError("operands must share n and prime")
    rows = _products(f.coeffs[None], g.coeffs[None], f.n, f.degree, g.degree, f.prime)
    return ModPPoly(f.n, f.degree + g.degree, rows[0], f.prime)


def power(f: ModPPoly | FormFamily, m: int):
    """f^m by repeated squaring, for a form or a family of forms of one
    degree.

    A FormFamily gives the family of its forms' m-th powers, and is
    powered as a whole: every squaring and every product is one batched
    `_products` call over all its forms, not one call per form. Each call
    is exact while min(S_a, S_b)(p - 1) < 2^53 for operands of S_a and
    S_b coefficients, which holds for every p < 2^31 and operand below
    2^22 monomials, and is checked (OverflowError).
    """
    if m < 1:
        raise ValueError("exponent must be >= 1")
    if isinstance(f, ModPPoly):
        return power(FormFamily(f.n, (f,), f.prime), m).forms[0]
    degrees = {g.degree for g in f.forms}
    if len(degrees) != 1:
        raise ValueError(f"power needs forms of one degree, got {sorted(degrees)}")
    (d,) = degrees
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
def _exponents(n: int, d: int) -> np.ndarray:
    """Exponent vectors of the degree-d monomials, in lex order."""
    exps = np.array(enumerate_monomials(n, d), dtype=np.int64).reshape(-1, n)
    exps.flags.writeable = False
    return exps


@lru_cache(maxsize=None)
def _scatter_table(n: int, dg: int, e: int, x1_free: bool) -> np.ndarray:
    """Index matrix T with T[i, j] = rank(multiplier_i * monomial_j) in
    degree e, for multipliers of degree e - dg (with x1_free, only those
    not divisible by x_1) and source monomials of degree dg.

    Built by one broadcast `lex_rank(U[:, None, :] + V[None, :, :])` over
    the exponent arrays U of the multipliers and V of the sources. The
    rank is the closed form of the combinatorial number system,
    rank(m) = sum_{i=0}^{n-2} monomial_count(n - i, r_i - m_i - 1) with
    r_i the degree left after the first i exponents (a negative degree
    counts 0), so no monomial is looked up.
    """
    mult = _exponents(n, e - dg)
    if x1_free:
        mult = mult[len(mult) - _x1_free_count(n, e - dg) :]
    table = lex_rank(mult[:, None, :] + _exponents(n, dg)[None, :, :])
    table.flags.writeable = False
    return table


def macaulay_rows(form: ModPPoly, e: int, x1_free: bool = False) -> np.ndarray:
    """Rows of the degree-e Macaulay matrix contributed by one form:
    all monomial multiples of degree e - deg(form), or with x1_free only
    the multiples u*form with x_1 not dividing u, which come last."""
    n = form.n
    if e < form.degree:
        return np.zeros((0, monomial_count(n, e)), dtype=np.int64)
    t = _scatter_table(n, form.degree, e, x1_free)
    block = np.zeros((t.shape[0], monomial_count(n, e)), dtype=np.int64)
    block[np.arange(t.shape[0])[:, None], t] = form.coeffs
    return block


def _x1_free_count(n: int, e: int) -> int:
    """Degree-e monomials not divisible by x_1: the last ones in lex
    order, after x_1 times each degree-(e - 1) monomial."""
    return monomial_count(n, e) - (monomial_count(n, e - 1) if e else 0)


def macaulay_shape(family: FormFamily, e: int) -> tuple[int, int]:
    """(rows, cols) of the degree-e Macaulay matrix, without building it."""
    rows = sum(
        monomial_count(family.n, e - f.degree)
        for f in family.forms
        if f.degree <= e
    )
    return rows, monomial_count(family.n, e)


def ideal_dimension_at_degree(
    family: FormFamily, e: int, chain: dict[int, modp.Echelon] | None = None
) -> int:
    """dim of the degree-e graded piece of the ideal generated by the family.

    Streams the generators' blocks of Macaulay rows, built lazily one
    generator at a time, into one `modp.RowReducer` (`add_blocks`, which
    merges them in groups of at most `modp.CHUNK` rows into a reduced
    echelon basis). Once the ideal has full column rank no further block
    is built.

    chain, if given, is a dict that one family's calls share across
    degrees: it maps the last degree eliminated with it to that degree's
    basis. If that degree is e - 1, x_1 times its basis seeds the reducer
    and only the rows u*g with x_1 not dividing u are fed (see the module
    docstring). On return it maps e to degree e's basis, and nothing else.
    """
    bases = {} if chain is None else chain
    seed = bases.pop(e - 1, None)
    bases.clear()
    if e < 0:
        return 0
    cols = monomial_count(family.n, e)
    rows_total, _ = macaulay_shape(family, e)
    if rows_total == 0:
        return 0
    if seed is not None:
        width = seed[0].size + seed[1].size
        below = monomial_count(family.n, e - 1) if e else 0
        if width != below:
            raise SoundnessError(
                f"degree-{e - 1} seed has {width} columns, not {below}"
            )
    reducer = modp.RowReducer(cols, family.prime, seed)
    x1_free = seed is not None
    del seed  # the reducer holds x_1 times it; keep one basis alive
    reducer.add_blocks(
        macaulay_rows(form, e, x1_free) for form in family.forms if form.degree <= e
    )
    dim = reducer.rank
    if dim > rows_total or dim > cols:
        raise SoundnessError(
            f"degree-{e} rank {dim} exceeds the {rows_total}x{cols} matrix"
        )
    bases[e] = reducer.echelon
    return dim


@dataclass(frozen=True)
class DegreeStat:
    """Matrix size and rank at one degree."""

    e: int
    rows: int
    cols: int
    rank: int


def quotient_series_with_stats(family, max_deg, budget=None):
    """Hilbert series of R/(family) up to max_deg plus per-degree stats.

    Coefficient e = C(n+e-1, e) - dim I_e, each dim I_e eliminated in
    degree order. Once a coefficient is zero the ideal contains that power
    of the maximal ideal, so the tail is zero without further elimination.
    Each degree's basis is carried to the next: x_1 times it seeds degree
    e + 1, and only the x_1-free rows are fed (see the module docstring).
    budget caps the entry count of any single Macaulay matrix, the full
    one whatever the rows fed, checked as each degree is reached.
    """
    coeffs = []
    stats = []
    chain = {}  # the last eliminated degree -> its basis
    for e in range(max_deg + 1):
        rows, cols = macaulay_shape(family, e)
        if budget is not None and rows * cols > budget:
            raise ResourceLimit(
                f"degree-{e} Macaulay matrix has {rows}x{cols} = {rows * cols} "
                f"entries, over budget {budget}"
            )
        dim = ideal_dimension_at_degree(family, e, chain)
        coeff = cols - dim
        # first-order lower bound holds at every specialization
        if coeff < cols - rows:
            raise SoundnessError(
                f"degree-{e} coefficient {coeff} is below the first-order "
                f"bound {cols - rows}"
            )
        coeffs.append(coeff)
        stats.append(DegreeStat(e, rows, cols, dim))
        if coeff == 0:
            coeffs.extend([0] * (max_deg - e))
            break
    terminated = coeffs[-1] == 0
    return TruncatedSeries(tuple(coeffs), terminated=terminated), stats


def hilbert_series_of_quotient(family: FormFamily, max_deg: int) -> TruncatedSeries:
    series, _ = quotient_series_with_stats(family, max_deg)
    return series


def first_order_lower_bound(family: FormFamily, e: int) -> int:
    """C(n+e-1,e) - sum_g C(n+e-deg g-1, e-deg g); valid over any field."""
    n = family.n
    total = binomial(n + e - 1, e)
    for f in family.forms:
        if f.degree <= e:
            total -= binomial(n + e - f.degree - 1, e - f.degree)
    return total
