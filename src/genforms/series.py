"""Truncated integer power series.

Everything here is exact big-integer arithmetic: Taylor expansion of
prod(1 - t^d_i) / (1 - t)^n, the ceiling operator that cuts a series at
its first nonpositive coefficient, and lexicographic comparison of series.

The expansion is in closed form. The numerator is built once per
distinct degree D of multiplicity c, as the binomial expansion
(1 - t^D)^c = sum_j (-1)^j C(c, j) t^{jD}, and coefficient e of the
series is sum_i a_i C(n - 1 + e - i, n - 1) over the numerator's
nonzero coefficients a_i with i <= e. So k generators of one degree D
cost O(trunc^2 / D) steps, not the O(k trunc) of one factor at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# The largest truncation of a complete intersection (k <= n), and the
# first window of `default_truncation` for k > n: the series is expanded
# through this degree, then through twice as far until it holds the first
# nonpositive coefficient.
DEFAULT_CAP = 64


class IncomparableTruncation(ValueError):
    """Two series over different ranges with no zero-extension available."""


@dataclass(frozen=True, init=False)
class DegreeList:
    """Generator degrees d_1..d_k in a polynomial ring with n variables,
    held as (degree, count) pairs in increasing degree: k generators of
    one degree are one pair, so neither building the list nor expanding
    its series walks all k of them."""

    n: int
    counts: tuple[tuple[int, int], ...]

    def __init__(self, n: int, degrees=(), counts=()):
        """The degrees one by one and (degree, count) pairs counts, e.g.
        `DegreeList(3, (2, 3))`, or `DegreeList(3, counts=[(14, 26)])`
        for 26 forms of degree 14."""
        if n < 1:
            raise ValueError("need at least one variable")
        merged = {}
        for dg in degrees:
            merged[dg] = merged.get(dg, 0) + 1
        for dg, count in counts:
            if count < 0:
                raise ValueError("generator counts must be nonnegative")
            if count:
                merged[dg] = merged.get(dg, 0) + count
        if min(merged, default=1) < 1:
            raise ValueError("generator degrees must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", tuple(sorted(merged.items())))

    @property
    def k(self) -> int:
        return sum(count for _, count in self.counts)


@dataclass(frozen=True)
class SignedSeries:
    """Raw expansion coefficients; entries may be negative."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class TruncatedSeries:
    """Nonnegative coefficients up to an inclusive truncation degree.

    `terminated` means every coefficient beyond the stored range is zero,
    i.e. the series is actually a polynomial.
    """

    coeffs: tuple[int, ...]
    terminated: bool = False

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        if any(c < 0 for c in coeffs):
            raise ValueError("TruncatedSeries coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        if e <= self.trunc:
            return self.coeffs[e]
        if self.terminated:
            return 0
        raise IncomparableTruncation(
            f"coefficient {e} beyond truncation {self.trunc} of open series"
        )


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _numerator_terms(counts, trunc: int) -> list[tuple[int, int]]:
    """(i, a_i) for the nonzero coefficients a_i, i <= trunc, of
    prod(1 - t^d)^count over the (d, count) pairs of counts, in
    increasing i: one binomial expansion per distinct degree, multiplied
    into the terms so far."""
    terms = {0: 1}
    for dg, count in counts:
        factor = [
            (j * dg, (-1) ** j * math.comb(count, j))
            for j in range(min(count, trunc // dg) + 1)
        ]
        product = {}
        for i, a in terms.items():
            for shift, b in factor:
                if i + shift > trunc:
                    break
                product[i + shift] = product.get(i + shift, 0) + a * b
        terms = {i: a for i, a in product.items() if a}
    return sorted(terms.items())


def _expansion(spec: DegreeList, trunc: int):
    """Taylor coefficients 0..trunc of prod(1 - t^d_i) / (1 - t)^n, one
    at a time, each the numerator's terms against the coefficients
    C(n - 1 + j, j) of 1/(1 - t)^n, j = e - i. Those are built only as
    far as the coefficients taken, by the recurrence
    c_j = c_{j-1} * (n - 1 + j) // j."""
    numerator = _numerator_terms(spec.counts, trunc)
    inverse = [1]
    for e in range(trunc + 1):
        if e:
            inverse.append(inverse[-1] * (spec.n - 1 + e) // e)
        yield sum(a * inverse[e - i] for i, a in numerator if i <= e)


def expand_rational(spec: DegreeList, trunc: int) -> SignedSeries:
    """Taylor coefficients of prod(1 - t^d_i) / (1 - t)^n up to trunc,
    from the numerator's binomial expansion per distinct degree (see the
    module docstring)."""
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    return SignedSeries(tuple(_expansion(spec, trunc)))


def ceiling(series: SignedSeries) -> TruncatedSeries:
    """Keep coefficients while every earlier one is strictly positive.

    The first nonpositive coefficient and everything after it become zero;
    a coefficient that is exactly zero also terminates the series.
    """
    out = []
    alive = True
    for a in series.coeffs:
        if alive and a > 0:
            out.append(a)
        else:
            alive = False
            out.append(0)
    return TruncatedSeries(tuple(out), terminated=not alive)


def conjectured_series(spec: DegreeList, trunc: int | None = None) -> TruncatedSeries:
    """ceiling(prod(1 - t^d_i) / (1 - t)^n): the conjectured Hilbert series
    of a quotient by generic forms with the given degrees, through degree
    trunc, or with trunc None through `default_truncation(spec)`, found in
    the same pass. For k > n that pass is `_positive_prefix`: it stops at
    the first nonpositive coefficient, and the series is the positive
    coefficients before it and two zeros, at that degree and one past
    it. For k <= n the truncation is known up front and the series is
    expanded through it."""
    if trunc is None:
        if spec.k > spec.n:
            return TruncatedSeries((*_positive_prefix(spec), 0, 0), terminated=True)
        trunc = default_truncation(spec)
    return ceiling(expand_rational(spec, trunc))


def lex_compare(f: TruncatedSeries, g: TruncatedSeries) -> Ordering:
    """Compare by the first differing coefficient.

    Shorter series are zero-extended only when terminated; otherwise the
    ranges are incomparable.
    """
    hi = max(f.trunc, g.trunc)
    for e in range(hi + 1):
        a = f.coefficient(e)
        b = g.coefficient(e)
        if a != b:
            return Ordering.GREATER if a > b else Ordering.LESS
    return Ordering.EQUAL


def default_truncation(spec: DegreeList) -> int:
    """Truncation degree of the conjectured series of spec: the one rule
    for how far a computed series is checked against it.

    For k > n it is one past the first nonpositive coefficient. There
    always is one, at degree at most sum(d_i) - n: the series is the
    polynomial (1 - t)^(k-n) * prod(1 + t + ... + t^(d_i - 1)) of that
    degree, which vanishes at t = 1, so its coefficients are not all
    positive. It is found by `_positive_prefix`, which expands no
    further than that first nonpositive coefficient; `conjectured_series`
    with no trunc takes the series from the same pass.

    For k <= n (a complete intersection) the series is
    prod(1 + t + ... + t^(d_i - 1)) / (1 - t)^(n-k): positive through
    its numerator degree sum(d_i - 1), and zero after it only if k = n.
    The check stops one past that degree, or at DEFAULT_CAP if that
    comes first.
    """
    if spec.k <= spec.n:
        return min(DEFAULT_CAP, sum((dg - 1) * count for dg, count in spec.counts) + 1)
    return len(_positive_prefix(spec)) + 1


def _positive_prefix(spec: DegreeList) -> list[int]:
    """The coefficients of prod(1 - t^d_i) / (1 - t)^n before its first
    nonpositive one, which exists for k > n (`default_truncation`). They
    are expanded one at a time through degree DEFAULT_CAP, then
    2 DEFAULT_CAP, 4 DEFAULT_CAP, ... until a window holds that
    coefficient; a series that has it by degree DEFAULT_CAP is expanded
    once."""
    window = DEFAULT_CAP
    while True:
        prefix = []
        for a in _expansion(spec, window):
            if a <= 0:
                return prefix
            prefix.append(a)
        window *= 2


def format_series(series: TruncatedSeries) -> str:
    """ASCII rendering, e.g. "1 + 4t + 5t^2". Zero coefficients are skipped
    (a zero series renders as "0")."""
    terms = []
    for e, c in enumerate(series.coeffs):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append(f"{c}t" if c != 1 else "t")
        else:
            terms.append(f"{c}t^{e}" if c != 1 else f"t^{e}")
    return " + ".join(terms) if terms else "0"


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient (zero when out of range)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)
