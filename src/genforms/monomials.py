"""Monomials of a fixed degree, their ordering, and monomial ideals.

A monomial is an exponent tuple of length n. Within a fixed degree we
order monomials lexicographically on the exponent vector, largest first,
so x1^d has rank 0. The rank has a closed form (`lex_rank`), so arrays
of monomials are ranked in numpy without a lookup table. Quotient Hilbert
functions of monomial ideals are computed by a divisibility sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import TruncatedSeries

Monomial = tuple[int, ...]


def monomial_count(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables: C(n+d-1, d)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1, d >= 0")
    return math.comb(n + d - 1, d)


@lru_cache(maxsize=None)
def enumerate_monomials(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n variables, lex order, x1^d first."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1, d >= 0")
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in enumerate_monomials(n - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


def lex_rank(exps) -> np.ndarray:
    """Positions of monomials in the fixed-degree enumeration, in closed form.

    exps is an integer array of shape (..., n), one exponent vector per
    last-axis row, each ranked among the monomials of its own degree. The
    monomials of degree d that precede m are those whose first exponent
    that differs from m's is larger. Counting them by the first position i
    that differs (the combinatorial number system, Knuth, TAOCP 7.2.1.3):

        rank(m) = sum_{i=0}^{n-2} monomial_count(n - i, r_i - m_i - 1),

    where r_i = d - m_0 - ... - m_{i-1} and a negative degree counts 0.
    With t = n - 1 - i and s_t = r_i - m_i, the sum of the last t
    exponents, the term is C(s_t + t - 1, t). Entries are not checked:
    a negative exponent gives a wrong rank, not an error (see `rank`).
    """
    exps = np.asarray(exps, dtype=np.int64)
    n = exps.shape[-1]
    if n < 2 or exps.size == 0:
        return np.zeros(exps.shape[:-1], dtype=np.intp)
    tails = np.cumsum(exps[..., :0:-1], axis=-1)  # s_1, ..., s_{n-1}
    # binom[t - 1, a] = C(a, t); the term for s_t sits at a = s_t + t - 1
    width = int(tails.max()) + n - 1
    binom = np.array(
        [[math.comb(a, t) for a in range(width)] for t in range(1, n)],
        dtype=np.int64,
    )
    offsets = np.arange(n - 1)
    return binom[offsets, tails + offsets].sum(axis=-1, dtype=np.intp)


def exponent_array(monos, n: int, d: int) -> np.ndarray:
    """The monomials as an int64 array of shape (len(monos), n).

    Raises ValueError unless each is a length-n vector of nonnegative
    integers of degree d, the domain on which `lex_rank` is exact.
    """
    rows = [tuple(m) for m in monos]
    for m in rows:
        if len(m) != n:
            raise ValueError(f"monomial {m} has length {len(m)}, not {n}")
        if not all(isinstance(x, (int, np.integer)) and x >= 0 for x in m):
            raise ValueError(f"monomial {m} needs nonnegative integer exponents")
        if sum(m) != d:
            raise ValueError(f"monomial {m} has degree {sum(m)}, not {d}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def rank(m: Monomial) -> int:
    """Position of a monomial in the fixed-degree enumeration.

    Raises ValueError for an empty tuple or a negative exponent.
    """
    m = tuple(m)
    if not m:
        raise ValueError("a monomial needs at least one variable")
    return int(lex_rank(exponent_array([m], len(m), sum(m)))[0])


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(gens) -> tuple[Monomial, ...]:
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    out = []
    for m in gens:
        if not any(divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by a minimalized generator set.

    The empty generator set is the zero ideal.
    """

    n: int
    generators: tuple[Monomial, ...]

    @classmethod
    def from_generators(cls, n: int, gens) -> "MonomialIdeal":
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g} for n={n}")
        return cls(n, _minimalize(gens))

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.generators)


def maximal_ideal_power(n: int, e: int) -> MonomialIdeal:
    """m^e where m = (x1, ..., xn)."""
    return MonomialIdeal.from_generators(n, enumerate_monomials(n, e))


def quotient_hilbert_function(ideal: MonomialIdeal, max_deg: int) -> TruncatedSeries:
    """Dimensions of the graded quotient: degree-e monomials outside the ideal.

    Once a coefficient hits zero the quotient is zero in all later degrees,
    so the tail is filled without sieving.
    """
    coeffs = []
    for e in range(max_deg + 1):
        count = sum(1 for m in enumerate_monomials(ideal.n, e) if not ideal.contains(m))
        coeffs.append(count)
        if count == 0:
            coeffs.extend([0] * (max_deg - e))
            break
    terminated = coeffs[-1] == 0
    return TruncatedSeries(tuple(coeffs), terminated=terminated)


def contains_power_of_maximal_ideal(ideal: MonomialIdeal, e: int) -> bool:
    """True iff every degree-e monomial is divisible by some generator."""
    return all(ideal.contains(m) for m in enumerate_monomials(ideal.n, e))


def monomial_to_str(m: Monomial) -> str:
    """Render like "x1^2*x3"; the empty monomial renders as "1"."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"
