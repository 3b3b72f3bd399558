"""Explicit monomial-ideal constructions with large numbers of generators.

The family here takes all monomials of degree d except x1*x2^(d-1), ...,
x1*xl^(d-1). When its degree-d dimension r clears the threshold
n*r >= C(n+d, d+1), the quotient series is the first d coefficients of
1/(1-t)^n followed by C(n+d-1,d) - r at degree d and nothing after, which
is exactly the conjectured ceiling series for r generic forms of degree d.

Also here: the range of k the family covers, and the exhaustive search
showing small k cannot always be covered by monomial ideals. Why not: a
terminating series forces every pure power x_i^d among the generators,
and a mixed generator m divisible by x_i then gives the trivial syzygy
x_i^(d-1) * m = x_i^d * (m / x_i), two equal rows of the degree-(2d - 1)
Macaulay matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .monomials import (
    MonomialIdeal,
    contains_power_of_maximal_ideal,
    enumerate_monomials,
    monomial_count,
    quotient_hilbert_function,
)
from .series import (
    DegreeList,
    Ordering,
    TruncatedSeries,
    binomial,
    conjectured_series,
    lex_compare,
)


class InvalidParams(ValueError):
    pass


class HypothesisFailed(RuntimeError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class FrobergFamilyParams:
    n: int
    d: int
    l: int

    def __post_init__(self):
        if self.n < 4 or self.d < 2 or not 1 <= self.l <= self.n:
            raise InvalidParams(
                f"need n >= 4, d >= 2, 1 <= l <= n; got n={self.n}, d={self.d}, l={self.l}"
            )

    @property
    def k(self) -> int:
        return monomial_count(self.n, self.d) - self.l + 1


@dataclass(frozen=True)
class Theorem1Report:
    n: int
    d: int
    r: int
    threshold: int  # C(n+d, d+1); hypothesis is n*r >= threshold
    predicted: TruncatedSeries


def froberg_monomial_ideal(params: FrobergFamilyParams) -> MonomialIdeal:
    """All degree-d monomials except x1*xj^(d-1) for 2 <= j <= l.

    l = 1 excludes nothing and gives the d-th power of the maximal ideal.
    """
    n, d, l = params.n, params.d, params.l
    excluded = set()
    for j in range(2, l + 1):
        mono = [0] * n
        mono[0] += 1
        mono[j - 1] += d - 1
        excluded.add(tuple(mono))
    gens = [m for m in enumerate_monomials(n, d) if m not in excluded]
    return MonomialIdeal.from_generators(n, gens)


def check_theorem1(ideal: MonomialIdeal, n: int, d: int) -> Theorem1Report:
    """Verify the large-r hypotheses and the closed-form quotient series.

    r is the number of degree-d monomials lying in the ideal (robust to
    redundant generators), the threshold is checked in cleared-denominator
    integer form, and the predicted series is cross-checked against both
    the ceiling formula and the divisibility sieve.
    """
    if any(sum(g) != d for g in ideal.generators):
        raise HypothesisFailed(f"ideal is not generated in degree {d} exactly")
    if not contains_power_of_maximal_ideal(ideal, d + 1):
        raise HypothesisFailed(f"m^{d + 1} is not contained in the ideal")
    r = sum(1 for m in enumerate_monomials(n, d) if ideal.contains(m))
    threshold = binomial(n + d, d + 1)
    # implied by m^(d+1) in the ideal: its degree-(d+1) part is spanned by
    # the n*r products x_j * g of the degree-d monomials g it contains
    if n * r < threshold:
        raise HypothesisFailed(f"n*r = {n * r} < C(n+d, d+1) = {threshold}")

    coeffs = [binomial(n + i - 1, i) for i in range(d)]
    coeffs.append(binomial(n + d - 1, d) - r)
    coeffs.append(0)
    predicted = TruncatedSeries(tuple(coeffs), terminated=True)

    ceiling_form = conjectured_series(DegreeList(n, (d,) * r), d + 1)
    if lex_compare(predicted, ceiling_form) is not Ordering.EQUAL:
        raise HypothesisFailed("predicted series disagrees with the ceiling formula")
    sieved = quotient_hilbert_function(ideal, d + 1)
    if lex_compare(predicted, sieved) is not Ordering.EQUAL:
        raise HypothesisFailed("predicted series disagrees with the sieve")

    return Theorem1Report(n, d, r, threshold, predicted)


def corollary1_range(n: int, d: int) -> tuple[int, int]:
    """Generator counts k covered by the monomial family:
    C(n+d-1,d) - n < k <= C(n+d-1,d)."""
    if n < 4 or d < 2:
        raise InvalidParams("range is stated for n >= 4, d >= 2")
    top = monomial_count(n, d)
    return top - n + 1, top


def _canonical(gens: frozenset, n: int) -> tuple:
    """Lex-least image of a generator set under variable permutations."""
    best = None
    for perm in itertools.permutations(range(n)):
        image = tuple(sorted(tuple(g[perm[i]] for i in range(n)) for g in gens))
        if best is None or image < best:
            best = image
    return best


def exhaustive_monomial_search(
    n: int,
    d: int,
    k: int,
    target: TruncatedSeries,
    budget: int = 2_000_000,
    prune: bool = True,
):
    """Search for a monomial ideal of k degree-d generators whose quotient
    Hilbert function equals target; None if no candidate works.

    With pruning, a terminating target forces every pure power x_i^d into
    the generator set (x_i^e is divisible only by pure powers of x_i), and
    candidates are explored up to variable-permutation symmetry.
    """
    monos = enumerate_monomials(n, d)
    max_deg = target.trunc
    terminating = any(c == 0 for c in target.coeffs)

    if prune and terminating:
        pure = [tuple(d if i == j else 0 for i in range(n)) for j in range(n)]
        if k < n:
            return None  # cannot contain all pure powers, so never terminates
        mixed = [m for m in monos if m not in set(pure)]
        total = math.comb(len(mixed), k - n)
        if total > budget:
            raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
        seen = set()
        combos = (tuple(pure) + extra for extra in itertools.combinations(mixed, k - n))
    else:
        total = math.comb(len(monos), k)
        if total > budget:
            raise BudgetExceeded(f"{total} candidates exceed budget {budget}")
        seen = None
        combos = itertools.combinations(monos, k)

    for gens in combos:
        if seen is not None:
            key = _canonical(frozenset(gens), n)
            if key in seen:
                continue
            seen.add(key)
        ideal = MonomialIdeal.from_generators(n, gens)
        series = quotient_hilbert_function(ideal, max_deg)
        if lex_compare(series, target) is Ordering.EQUAL:
            return ideal
    return None
