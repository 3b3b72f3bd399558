"""Monomials of a fixed degree, their ordering, and monomial ideals.

A monomial is an exponent tuple of length n. Within a fixed degree we
order monomials lexicographically on the exponent vector, largest first,
so x1^d has rank 0. Quotient Hilbert functions of monomial ideals are
computed by a divisibility sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _rank_table(n: int, d: int) -> dict:
    return {m: i for i, m in enumerate(enumerate_monomials(n, d))}


def rank(m: Monomial) -> int:
    """Position of a monomial in the fixed-degree enumeration."""
    return _rank_table(len(m), sum(m))[m]


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
