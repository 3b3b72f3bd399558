"""Case-by-case conjecture verification.

A case (n, d, m, k) is Verified when the quotient by the m-th powers of
k degree-d forms at one point matches the conjectured ceiling series for
k generic forms of degree m*d. By semicontinuity this match certifies the
generic case (see macaulay module docstring). The first point tried is
the pure-power one, x_i^d for i <= min(k, n) and random forms after
them, whose powers x_i^{md} the quotient divides out in closed form;
then random points. A mismatch is never a disproof: the point may be
non-generic mod p, so failed trials are retried with fresh seeds and the
final verdict is NotAttained, not false.

The interval engine replays the sandwich deduction from two records of
one (n, d, m): a verified low endpoint makes the ideal surjective from
some degree on, a verified high endpoint with full-row-rank Macaulay
matrices makes the row subsets of every smaller k independent, and when
those two facts pin every coefficient for an intermediate k that k is
certified without any new linear algebra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from . import __version__, modp
from .macaulay import (
    DegreeStat,
    FormFamily,
    ModPPoly,
    ResourceLimit,
    SoundnessError,
    power,
    quotient_series_with_stats,
)
from .monomials import monomial_count
from .series import (
    DEFAULT_CAP,
    DegreeList,
    Ordering,
    TruncatedSeries,
    conjectured_series,
    default_truncation,
    lex_compare,
)

DEFAULT_TRIALS = 3
DEFAULT_BUDGET = 40_000_000

VERIFIED = "Verified"
NOT_ATTAINED = "NotAttained"


class DeductionInapplicable(RuntimeError):
    def __init__(self, message, k=None, degree=None):
        super().__init__(message)
        self.k = k
        self.degree = degree


@dataclass(frozen=True)
class CaseSpec:
    n: int
    d: int
    m: int
    k: int
    trunc: int | None = None
    seed: int = 0
    prime: int = modp.DEFAULT_PRIME
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise ValueError("n, d, m must be positive")
        top = monomial_count(self.n, self.m * self.d)
        if not 1 <= self.k <= top:
            raise ValueError(
                f"k must lie in [1, {top}] (more forms of degree {self.m * self.d} "
                f"in {self.n} variables are linearly dependent)"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        modp.check_modulus(self.prime)

    @property
    def effective_degree(self) -> int:
        return self.m * self.d

    @property
    def degree_list(self) -> DegreeList:
        return DegreeList(self.n, (self.effective_degree,) * self.k)


@dataclass(frozen=True)
class VerificationRecord:
    spec: CaseSpec
    trunc: int
    conjectured: TruncatedSeries
    computed: TruncatedSeries
    verdict: str
    degree_stats: tuple[DegreeStat, ...]
    seeds_tried: tuple[int, ...]
    millis: float
    version: str = __version__

    def to_dict(self) -> dict:
        s = self.spec
        return {
            "n": s.n,
            "d": s.d,
            "m": s.m,
            "k": s.k,
            "prime": s.prime,
            "seed": s.seed,
            "trunc": self.trunc,
            "conjectured": list(self.conjectured.coeffs),
            "computed": list(self.computed.coeffs),
            "verdict": self.verdict,
            "ranks": [[st.e, st.rows, st.cols, st.rank] for st in self.degree_stats],
            "seeds_tried": list(self.seeds_tried),
            "millis": self.millis,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, rec: dict, spec: CaseSpec) -> "VerificationRecord":
        """The record `to_dict` wrote for spec, read back: the one check
        of a stored record. Its conjectured series must be spec's at its
        truncation. A Verified record must have computed exactly that
        series, with the ranks it implies, since interval deduction reads
        them; a NotAttained record must have tried at least spec.trials
        seeds. ValueError for any other record."""

        def series(coeffs):
            return TruncatedSeries(tuple(coeffs), terminated=coeffs[-1] == 0)

        record = cls(
            spec, rec["trunc"], series(rec["conjectured"]), series(rec["computed"]),
            rec["verdict"], tuple(DegreeStat(*row) for row in rec["ranks"]),
            tuple(rec["seeds_tried"]), rec["millis"], rec["version"],
        )
        conjectured = conjectured_series(spec.degree_list, record.trunc).coeffs
        if record.conjectured.coeffs != conjectured:
            raise ValueError("record of another conjectured series")
        if record.verdict == VERIFIED:
            if record.computed.coeffs != conjectured:
                raise ValueError("Verified record that computed another series")
            if record.degree_stats != _implied_stats(spec, conjectured):
                raise ValueError("Verified record with ranks its series does not imply")
        elif record.verdict != NOT_ATTAINED or len(record.seeds_tried) < spec.trials:
            raise ValueError(
                f"{record.verdict} record after {len(record.seeds_tried)} of "
                f"{spec.trials} seeds"
            )
        return record


def _rows(n, md, k, e) -> int:
    """Row count of the degree-e Macaulay matrix of k forms of degree md."""
    return k * monomial_count(n, e - md) if e >= md else 0


def _implied_stats(spec: CaseSpec, coeffs) -> tuple[DegreeStat, ...]:
    """The stats of a computation that found coeffs: rank = cols -
    coefficient, up to the first zero coefficient."""
    stats = []
    for e, coeff in enumerate(coeffs):
        cols = monomial_count(spec.n, e)
        rows = _rows(spec.n, spec.effective_degree, spec.k, e)
        stats.append(DegreeStat(e, rows, cols, cols - coeff))
        if coeff == 0:
            break
    return tuple(stats)


def default_family(spec: CaseSpec, seed: int) -> FormFamily:
    """k random degree-d forms, each raised to the m-th power, all k in
    one batched `power` call."""
    return power(FormFamily.random(spec.n, spec.d, spec.k, seed, spec.prime), spec.m)


def pure_power_family(spec: CaseSpec, seed: int) -> FormFamily:
    """The pure-power point: x_i^d for i <= min(k, n), then draws
    min(k, n)+1..k of `FormFamily.random(n, d, k, seed)`, so the same
    draws as `default_family`'s; all k raised to the m-th power in one
    batched `power` call."""
    n, d = spec.n, spec.d
    pure = min(spec.k, n)
    drawn = FormFamily.random(n, d, spec.k, seed, spec.prime)
    forms = tuple(
        ModPPoly.from_monomial_dict(
            n, d, {tuple(d * (j == i) for j in range(n)): 1}, spec.prime
        )
        for i in range(pure)
    )
    return power(FormFamily(n, forms + drawn.forms[pure:], spec.prime, seed), spec.m)


def degenerate_family(spec: CaseSpec, seed: int) -> FormFamily:
    """k copies of one form: a guaranteed non-generic specialization,
    used to regression-test that the verifier never reports false wins."""
    (f,) = power(FormFamily.random(spec.n, spec.d, 1, seed, spec.prime), spec.m).forms
    return FormFamily(spec.n, (f,) * spec.k, spec.prime, seed)


@lru_cache(maxsize=None)
def case_truncation(n: int, md: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Truncation degree of k forms of degree md in n variables.

    Above n it is one past the first zero of the conjectured series
    (`default_truncation`). A complete intersection (k <= n) never
    terminates by a zero coefficient, so its check range stops at its
    numerator degree k(md - 1), plus one, instead of burning the full cap.
    """
    if k <= n:
        return min(cap, k * (md - 1) + 1)
    return default_truncation(DegreeList(n, (md,) * k), cap)


def resolve_truncation(spec: CaseSpec, cap: int = DEFAULT_CAP) -> int:
    if spec.trunc is not None:
        return spec.trunc
    return case_truncation(spec.n, spec.effective_degree, spec.k, cap)


def _at_pure_powers(spec, trunc, conjectured, budget):
    """(computed, stats) at `pure_power_family(spec, spec.seed)` if its
    series is the conjectured one, else None: also when it meets the
    budget, which the random trials then meet or not as they would have."""
    family = pure_power_family(spec, spec.seed)
    try:
        computed, stats = quotient_series_with_stats(family, trunc, budget=budget)
    except ResourceLimit:
        return None
    if lex_compare(computed, conjectured) is not Ordering.EQUAL:
        return None
    return computed, tuple(stats)


def verify_case(
    spec: CaseSpec,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
    family_builder=None,
) -> VerificationRecord:
    """Run one case: first at the pure-power point, then at random
    points, retrying with fresh seeds on mismatch.

    With the default builder the first attempt is `pure_power_family` at
    spec.seed: m-th powers of x_1^d, ..., x_min(k,n)^d and of the other
    draws. It lies in the family of m-th powers of degree-d forms, so the
    sandwich certifies it like any other point, and its pure powers are
    divided out in closed form (`macaulay`); for k <= n nothing is left to
    eliminate. If it attains, the record is Verified with seeds_tried
    (spec.seed,). Otherwise, or if it meets the budget, it is discarded
    and the random trials run as if it had not been tried, so a
    NotAttained record never depends on it. A given family_builder (for
    example `degenerate_family`) skips it.

    A random specialization can be unlucky; only after `trials` failures
    is the verdict NotAttained, with every seed recorded.
    """
    build = family_builder or default_family
    start = time.perf_counter()
    trunc = resolve_truncation(spec, cap)
    conjectured = conjectured_series(spec.degree_list, trunc)

    seeds = []
    computed = None
    stats = ()
    verdict = NOT_ATTAINED
    attained = None if family_builder else _at_pure_powers(spec, trunc, conjectured, budget)
    if attained is not None:
        computed, stats = attained
        seeds, verdict = [spec.seed], VERIFIED
    else:
        for trial in range(spec.trials):
            seed_t = spec.seed + trial
            seeds.append(seed_t)
            family = build(spec, seed_t)
            computed, stat_list = quotient_series_with_stats(family, trunc, budget=budget)
            stats = tuple(stat_list)
            if lex_compare(computed, conjectured) is Ordering.EQUAL:
                verdict = VERIFIED
                break
    millis = (time.perf_counter() - start) * 1000.0
    if verdict == VERIFIED and computed.coeffs != conjectured.coeffs:
        raise SoundnessError(
            f"Verified verdict for {spec} but computed {computed.coeffs} "
            f"!= conjectured {conjectured.coeffs}"
        )
    return VerificationRecord(
        spec, trunc, conjectured, computed, verdict, stats, tuple(seeds), millis
    )


@dataclass(frozen=True)
class IntervalWitness:
    """Certificate that every k in [k_low, k_high] is Verified.

    Endpoint records are directly computed; intermediate k are deduced
    (surjectivity inherited upward from k_low, row independence inherited
    downward from k_high), with every conjectured coefficient re-pinned
    per k rather than trusting the prose argument.
    """

    k_low: int
    k_high: int
    e_surj: int
    e_ind: int
    record_low: VerificationRecord
    record_high: VerificationRecord
    deduced: tuple[int, ...]
    verdict: str = VERIFIED


def _pin_intermediate(n, md, k, conjectured_k, e_surj, high_stats):
    """Check every coefficient of one intermediate k is forced.

    Returns the pinning method per degree; raises DeductionInapplicable at
    the first degree where neither rule gives a matching upper bound. Both
    rules cap the coefficient from above; the lex lower bound from the
    generic theory then forces equality degree by degree.
    """
    methods = []
    for e, target in enumerate(conjectured_k.coeffs):
        if target == 0 and e >= e_surj:
            methods.append("surjectivity")
            continue
        stat = high_stats.get(e)
        if stat is not None and stat.rank == stat.rows and stat.rows <= stat.cols:
            if stat.cols - _rows(n, md, k, e) == target:
                methods.append("independence")
                continue
        raise DeductionInapplicable(
            f"k={k}: degree {e} not pinned (conjectured coefficient {target})",
            k=k,
            degree=e,
        )
    return tuple(methods)


def verify_interval(
    record_low: VerificationRecord,
    record_high: VerificationRecord,
    cap: int = DEFAULT_CAP,
) -> IntervalWitness:
    """Certify every k between the two records' k from those records alone.

    The records must be of one (n, d, m), the low k at most the high k;
    ValueError if they are not.
    """
    low, high = record_low.spec, record_high.spec
    if (low.n, low.d, low.m) != (high.n, high.d, high.m) or low.k > high.k:
        raise ValueError(
            f"endpoint records of (n, d, m, k) = {(low.n, low.d, low.m, low.k)} "
            f"and {(high.n, high.d, high.m, high.k)} bound no interval"
        )
    n, md, k_low, k_high = low.n, low.effective_degree, low.k, high.k
    for rec, which in ((record_low, "low"), (record_high, "high")):
        if rec.verdict != VERIFIED:
            raise DeductionInapplicable(
                f"{which} endpoint k={rec.spec.k} not verified ({rec.verdict})"
            )

    try:
        e_surj = record_low.conjectured.coeffs.index(0)
    except ValueError:
        raise DeductionInapplicable(
            f"conjectured series at k_low={k_low} does not terminate by "
            f"degree {record_low.trunc}"
        )
    high_stats = {st.e: st for st in record_high.degree_stats}
    e_ind = max(
        (st.e for st in record_high.degree_stats
         if st.rank == st.rows and 0 < st.rows <= st.cols),
        default=0,
    )

    deduced = []
    for k in range(k_low + 1, k_high):
        trunc_k = case_truncation(n, md, k, cap)
        conjectured_k = conjectured_series(DegreeList(n, (md,) * k), trunc_k)
        _pin_intermediate(n, md, k, conjectured_k, e_surj, high_stats)
        deduced.append(k)

    return IntervalWitness(
        k_low, k_high, e_surj, e_ind, record_low, record_high, tuple(deduced)
    )


@dataclass(frozen=True)
class SweepPlan:
    cases: tuple[CaseSpec, ...]
    intervals: tuple[tuple[int, int], ...]


def certified_ks(records, witnesses) -> set[int]:
    """The k a sweep certified: each k whose direct record is Verified,
    and each k of a deduced interval witness."""
    ks = {r.spec.k for r in records if r.verdict == VERIFIED}
    for w in witnesses:
        ks.update(range(w.k_low, w.k_high + 1))
    return ks


def plan_sweep(
    n: int,
    d: int,
    m: int,
    k_lo: int,
    k_hi: int,
    seed: int = 0,
    prime: int = modp.DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    cap: int = DEFAULT_CAP,
) -> SweepPlan:
    """Endpoint cases plus intervals covering [k_lo, k_hi].

    k <= n are complete intersections and get individual cases. Above n,
    consecutive k sharing the termination degree of their conjectured
    series form one interval, verified at its two endpoints.
    """
    md = m * d
    top = monomial_count(n, md)
    if not 1 <= k_lo <= k_hi <= top:
        raise ValueError(f"k range must lie within [1, {top}]")

    def make(k):
        trunc = case_truncation(n, md, k, cap)
        return CaseSpec(n, d, m, k, trunc=trunc, seed=seed, prime=prime, trials=trials)

    cases = [make(k) for k in range(k_lo, min(n, k_hi) + 1)]
    intervals = []
    runs = []  # (termination degree, lo, hi)
    for k in range(max(k_lo, n + 1), k_hi + 1):
        term = case_truncation(n, md, k, cap) - 1
        if runs and runs[-1][0] == term:
            runs[-1] = (term, runs[-1][1], k)
        else:
            runs.append((term, k, k))
    for _, lo, hi in runs:
        cases.append(make(lo))
        if hi > lo:
            cases.append(make(hi))
            intervals.append((lo, hi))

    return SweepPlan(tuple(cases), tuple(intervals))


def run_sweep(
    plan: SweepPlan,
    cap=DEFAULT_CAP,
    budget=DEFAULT_BUDGET,
    served: dict[int, VerificationRecord] | None = None,
):
    """Execute a plan: direct cases first, then interval deductions
    reusing the endpoint records. served maps k to a record already at
    hand (a cache hit), which is used instead of computing that case.

    Returns (records, witnesses, failures, skipped). A case that raises
    ResourceLimit (a matrix over the budget) has no record and is skipped
    as (spec, reason); an interval is deduced only when both its endpoint
    records exist.
    """
    served = served or {}
    records = {}
    skipped = []
    for spec in plan.cases:
        try:
            records[spec.k] = served.get(spec.k) or verify_case(spec, cap, budget)
        except ResourceLimit as exc:
            skipped.append((spec, str(exc)))
    witnesses = []
    failures = []
    for lo, hi in plan.intervals:
        if lo not in records or hi not in records:
            continue
        try:
            witnesses.append(verify_interval(records[lo], records[hi], cap))
        except DeductionInapplicable as exc:
            failures.append(((lo, hi), str(exc)))
    return list(records.values()), witnesses, failures, skipped


# The verified-cases table: (n, d, m) cells. The stretch cells are the
# two largest.
TABLE_CELLS = ((4, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 2))
STRETCH_CELLS = ((4, 2, 4), (4, 3, 3))


def suite_k_values(n, d, m, cap=DEFAULT_CAP):
    """Desk-scale k sample per table cell: just above the complete
    intersection range, mid-range (snapped to a planned endpoint), and
    the maximal useful generator count."""
    top = monomial_count(n, m * d)
    plan = plan_sweep(n, d, m, 1, top, cap=cap)
    mid_target = (n + 1 + top) // 2
    endpoints = sorted({c.k for c in plan.cases})
    mid = min(endpoints, key=lambda k: abs(k - mid_target))
    return sorted({n + 1, mid, top})
