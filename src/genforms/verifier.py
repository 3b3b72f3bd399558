"""Case-by-case conjecture verification.

A case (n, d, m, k) is Verified when the quotient by the m-th powers of
k degree-d forms at one point matches the conjectured ceiling series for
k generic forms of degree m*d. By semicontinuity this match certifies the
generic case (see macaulay module docstring). The first point tried is
the pure-power one, x_i^d for i <= min(k, n) and random forms after
them, whose powers x_i^{md} the quotient divides out in closed form;
then random points. A mismatch is never a disproof: the point may be
non-generic mod p, so failed trials are retried with fresh seeds and the
final verdict is NotAttained, not false. A record's `method` says how it
was reached: "theorem", "pure-power", or "random" (also for every
NotAttained record).

k = n+1 is settled by a theorem, with no point computed. Let D = md and
l = x_1 + ... + x_n. In characteristic 0, A = K[x]/(x_1^D, ..., x_n^D)
has the strong Lefschetz property with l as a Lefschetz element
(Stanley, SIAM J. Algebraic Discrete Methods 1, 1980; Reid, Roberts and
Roitman, Canad. Math. Bull. 34, 1991): multiplication by l^D has maximal
rank in every degree. So the family x_1^D, ..., x_n^D, l^D, the m-th
powers of x_1^d, ..., x_n^d, l^d, has the series max(0, a_e - a_{e-D}),
a the coefficients of ((1 - t^D)/(1 - t))^n, which is the conjectured
series [(1 - t^D)^{n+1}/(1 - t)^n]_+ of n+1 forms. That point lies in
the family of m-th powers of degree-d forms over Q, so the sandwich
certifies the generic case as it does for a point computed mod p. The
claim is about characteristic 0, so it holds at every prime a record is
computed at; the record's prime only keys it.

The interval engine replays the sandwich deduction from two records of
one (n, d, m): a verified low endpoint makes the ideal surjective from
some degree on, a verified high endpoint with full-row-rank Macaulay
matrices makes the row subsets of every smaller k independent, and when
those two facts pin every coefficient for an intermediate k that k is
certified without any new linear algebra.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from typing import NamedTuple

from . import __version__, modp
from .macaulay import (
    FormFamily,
    KeptBases,
    ModPPoly,
    ResourceLimit,
    SoundnessError,
    power,
    quotient_series,
)
from .monomials import monomial_count
# perfbench/tracing.py wraps conjectured_series, default_truncation and
# lex_compare where this module looks them up, so all three stay imported
from .series import (
    DegreeList,
    Ordering,
    TruncatedSeries,
    conjectured_series,
    default_truncation,  # noqa: F401
    lex_compare,
)

DEFAULT_TRIALS = 3
DEFAULT_BUDGET = 40_000_000

VERIFIED = "Verified"
NOT_ATTAINED = "NotAttained"
METHODS = ("theorem", "pure-power", "random")


class DeductionInapplicable(RuntimeError):
    def __init__(self, message, k=None, degree=None):
        super().__init__(message)
        self.k = k
        self.degree = degree


@lru_cache(maxsize=None)
def case_series(n: int, md: int, k: int) -> TruncatedSeries:
    """The conjectured series of k forms of degree md in n variables
    through its truncation, `default_truncation`, both from one
    expansion (`conjectured_series` with no trunc), memoized: a process
    asks for it per planned k, per case, per deduced k and per record
    read back, and expands it once. The k forms are one (md, k) pair of
    the degree list, so a k costs no O(k) step. The series are immutable,
    so every caller may share one."""
    return conjectured_series(DegreeList(n, counts=[(md, k)]))


@dataclass(frozen=True)
class CaseSpec:
    """One case (n, d, m, k): k m-th powers of degree-d forms in n
    variables, drawn from seed mod prime, with up to `trials` random
    points. Its conjectured series `conjectured` and its truncation
    `trunc` are no fields: they follow from (n, md, k) alone, and both
    are read from `case_series`, which expands them once per process."""

    n: int
    d: int
    m: int
    k: int
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
    def trunc(self) -> int:
        return self.conjectured.trunc

    @property
    def conjectured(self) -> TruncatedSeries:
        return case_series(self.n, self.effective_degree, self.k)


class DegreeStat(NamedTuple):
    """Matrix size and rank at one degree."""

    e: int
    rows: int
    cols: int
    rank: int


@dataclass(frozen=True)
class VerificationRecord:
    """What `verify_case` found for spec: the series computed at the last
    point tried, the verdict, the seeds tried, the time and how it was
    reached. The rest of a record is derived, never stored: its
    truncation and conjectured series are spec's, and its per-degree
    ranks those its computed series implies (`_implied_stats`)."""

    spec: CaseSpec
    computed: TruncatedSeries
    verdict: str
    seeds_tried: tuple[int, ...]
    millis: float
    version: str = __version__
    method: str | None = None  # None for a record written before methods

    @property
    def trunc(self) -> int:
        return self.spec.trunc

    @property
    def conjectured(self) -> TruncatedSeries:
        return self.spec.conjectured

    @cached_property
    def degree_stats(self) -> tuple[DegreeStat, ...]:
        return _implied_stats(self.spec, self.computed.coeffs)

    def to_dict(self) -> dict:
        s = self.spec
        out = {
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
            "ranks": [list(st) for st in self.degree_stats],
            "seeds_tried": list(self.seeds_tried),
            "millis": self.millis,
            "version": self.version,
        }
        if self.method is not None:
            out["method"] = self.method
        return out

    @classmethod
    def from_dict(cls, rec: dict, spec: CaseSpec) -> "VerificationRecord":
        """The record `to_dict` wrote for spec, read back: the one check
        of a stored record, the same for every verdict. Its computed
        series must run through spec's truncation, and the record rebuilt
        from spec, that series and as many seeds as it lists, taken
        consecutively from spec.seed as `verify_case` tries them, must
        write the same trunc, conjectured, computed, ranks and
        seeds_tried. Its method must allow its verdict and that many
        seeds (`_tried_fits`); a record with no method, written before
        records had one, must fit one of the methods. A Verified record
        must have computed the conjectured series. A NotAttained record
        must have computed a series lexicographically above it, as every
        point that misses does: the computed series is coefficientwise at
        or above the generic one, which is at or above the conjectured
        one. ValueError for any other record."""
        coeffs = tuple(rec["computed"])
        if len(coeffs) != spec.trunc + 1:
            raise ValueError(f"record of {len(coeffs)} coefficients, not {spec.trunc + 1}")
        seeds = range(spec.seed, spec.seed + len(rec["seeds_tried"]))
        record = cls(
            spec, TruncatedSeries(coeffs, terminated=coeffs[-1] == 0), rec["verdict"],
            tuple(seeds), rec["millis"], rec["version"], rec.get("method"),
        )
        derived = record.to_dict()
        for key in ("trunc", "conjectured", "computed", "ranks", "seeds_tried"):
            if rec[key] != derived[key]:
                raise ValueError(f"record with a stored {key} other than the derived one")
        if record.method not in (None, *METHODS):
            raise ValueError(f"record of unknown method {record.method!r}")
        if record.verdict not in (VERIFIED, NOT_ATTAINED):
            raise ValueError(f"{record.verdict} record of no known verdict")
        methods = METHODS if record.method is None else (record.method,)
        if not any(_tried_fits(spec, method, record.verdict, len(seeds)) for method in methods):
            if record.method == "theorem":
                raise ValueError(
                    f"{record.verdict} theorem record of k={spec.k} (n+1 = {spec.n + 1}) "
                    f"after {len(seeds)} seeds"
                )
            raise ValueError(
                f"{record.verdict} record of method {record.method} after {len(seeds)} of "
                f"{spec.trials} seeds"
            )
        if record.verdict == VERIFIED:
            if record.computed.coeffs != record.conjectured.coeffs:
                raise ValueError("Verified record that computed another series")
        elif lex_compare(record.computed, record.conjectured) is not Ordering.GREATER:
            raise ValueError("NotAttained record of a series not above the conjectured one")
        return record


def _tried_fits(spec: CaseSpec, method: str, verdict: str, tried: int) -> bool:
    """Whether a record of spec reached by method may have this verdict
    after trying this many seeds, as `verify_case` tries them: "theorem"
    none, for a Verified record of k = n+1; "pure-power" one, for a
    Verified record; "random" exactly spec.trials for a NotAttained
    record, and 1 to spec.trials for a Verified one."""
    if method == "theorem":
        return verdict == VERIFIED and spec.k == spec.n + 1 and tried == 0
    if method == "pure-power":
        return verdict == VERIFIED and tried == 1
    return tried == spec.trials if verdict == NOT_ATTAINED else 1 <= tried <= spec.trials


def _rows(n, md, k, e) -> int:
    """Row count of the degree-e Macaulay matrix of k forms of degree md."""
    return k * monomial_count(n, e - md) if e >= md else 0


def _implied_stats(spec: CaseSpec, coeffs) -> tuple[DegreeStat, ...]:
    """The stats of a computation that found coeffs: rank = cols -
    coefficient, up to the first zero coefficient. The one place a
    record's ranks are built."""
    stats = []
    for e, coeff in enumerate(coeffs):
        cols = monomial_count(spec.n, e)
        rows = _rows(spec.n, spec.effective_degree, spec.k, e)
        stats.append(DegreeStat(e, rows, cols, cols - coeff))
        if coeff == 0:
            break
    return tuple(stats)


def powered_draws(spec: CaseSpec, seed: int) -> tuple[ModPPoly, ...]:
    """The m-th powers of draws 1..k of `FormFamily.random(n, d, k, seed,
    prime)`, powered in one batched `power` call. Draw i of a stream does
    not depend on how many forms are drawn, so the first j of them are
    the powered draws of every j <= k."""
    family = FormFamily.random(spec.n, spec.d, spec.k, seed, spec.prime)
    return power(family, spec.m).forms


def default_family(spec: CaseSpec, seed: int, draws=None) -> FormFamily:
    """k random degree-d forms, each raised to the m-th power: the first
    k of draws, the powered draws of seed for some k' >= k, or, if draws
    is None, the `powered_draws` of seed drawn here."""
    if draws is None:
        draws = powered_draws(spec, seed)
    return FormFamily(spec.n, draws[: spec.k], spec.prime, seed)


def pure_power_family(spec: CaseSpec, seed: int, draws=None) -> FormFamily:
    """The pure-power point: the m-th powers of x_i^d for i <= min(k, n),
    that is x_i^{md}, then those of draws min(k, n)+1..k of
    `FormFamily.random(n, d, k, seed)`, so the same draws as
    `default_family`'s, taken from draws as there. For k >= n every
    family has all n pure powers, and the family of k is a prefix of the
    family of every larger k: so `run_sweep`, which passes every case
    the draws of its largest k, can seed each degree of a larger k with
    the bases of a smaller one (the second seed, `macaulay.KeptBases`)."""
    n, md = spec.n, spec.effective_degree
    pure = min(spec.k, n)
    forms = tuple(
        ModPPoly.from_monomial_dict(
            n, md, {tuple(md * (j == i) for j in range(n)): 1}, spec.prime
        )
        for i in range(pure)
    )
    if spec.k > pure:
        if draws is None:
            draws = powered_draws(spec, seed)
        forms += draws[pure : spec.k]
    return FormFamily(n, forms, spec.prime, seed)


def _at_pure_powers(spec, budget, kept, draws):
    """The series at `pure_power_family(spec, spec.seed, draws())` if it
    is the conjectured one, else None. draws is called only for k > n,
    the one case in which the point has random forms.

    Over the budget at degree e, it raises ResourceLimit again when the
    conjectured series has no zero below e: a trial that attains it must
    eliminate degree e, and its matrix there (the whole Macaulay matrix,
    unless the trial drew pure powers) is no smaller than the one met
    here. Otherwise it returns None, and the random trials meet the
    budget or not as they would have.

    kept, for k >= n only, seeds each degree with the basis a smaller k
    of the same draws left there, and keeps this k's bases in its place
    (`pure_power_family`)."""
    family = pure_power_family(spec, spec.seed, draws() if spec.k > spec.n else None)
    kept = kept if spec.k >= spec.n else None
    try:
        computed = quotient_series(family, spec.trunc, budget, kept)
    except ResourceLimit as exc:
        if 0 not in spec.conjectured.coeffs[: exc.degree]:
            raise
        return None
    if lex_compare(computed, spec.conjectured) is not Ordering.EQUAL:
        return None
    return computed


def verify_case(
    spec: CaseSpec,
    budget: int = DEFAULT_BUDGET,
    kept: KeptBases | None = None,
    draws: Callable[[], tuple[ModPPoly, ...]] | None = None,
) -> VerificationRecord:
    """Run one case: k = n+1 by theorem, any other k first at the
    pure-power point, then at random points, retrying with fresh seeds
    on mismatch.

    k = n+1 is Verified by Stanley's theorem (module docstring) before any
    form is drawn or eliminated: the record has method "theorem", the
    conjectured series as computed, and no seed tried.

    For any other k the first attempt is `pure_power_family` at
    spec.seed: m-th powers of x_1^d, ..., x_min(k,n)^d and of the other
    draws. It lies in the family of m-th powers of degree-d forms, so the
    sandwich certifies it like any other point, and its pure powers are
    divided out in closed form (`macaulay`); for k <= n nothing is left
    to eliminate. If it attains, the record is Verified with method
    "pure-power" and seeds_tried (spec.seed,). Otherwise, or if it meets
    the budget, it is discarded and the random trials run as if it had
    not been tried, so a NotAttained record never depends on it.

    One exception: if it meets the budget at a degree below which the
    conjectured series has no zero, ResourceLimit is raised with no
    random trial, since a trial that attains would meet the budget too.
    Trials that would stop below that degree could only be NotAttained,
    never Verified, so such a case raises (a sweep lists it as Skipped)
    where it could have ended NotAttained.

    A random specialization can be unlucky; only after `trials` failures
    is the verdict NotAttained, with every seed recorded. A record of the
    random trials, Verified or not, has method "random".

    draws returns the `powered_draws` of spec.seed for some k' >= k, of
    which the pure-power point of k > n and the first trial take a
    prefix; it is called only by those, and if None the draws of k are
    powered here on that first use. kept and draws are `run_sweep`'s:
    kept holds the bases that the pure-power point of a smaller k of the
    same draws left, which seed this one's degrees and which its own
    bases replace (see `_at_pure_powers`). The draws are the same forms
    and rank does not depend on the seed, so the record is the same with
    or without them. Called alone, verify_case keeps nothing.
    """
    start = time.perf_counter()
    trunc, conjectured = spec.trunc, spec.conjectured

    if draws is None:
        draws = cache(partial(powered_draws, spec, spec.seed))
    if spec.k == spec.n + 1:
        computed = conjectured
        seeds, verdict, method = [], VERIFIED, "theorem"
    elif (computed := _at_pure_powers(spec, budget, kept, draws)) is not None:
        seeds, verdict, method = [spec.seed], VERIFIED, "pure-power"
    else:
        seeds, verdict, method = [], NOT_ATTAINED, "random"
        for trial in range(spec.trials):
            seed_t = spec.seed + trial
            seeds.append(seed_t)
            family = default_family(spec, seed_t, None if trial else draws())
            computed = quotient_series(family, trunc, budget=budget)
            if lex_compare(computed, conjectured) is Ordering.EQUAL:
                verdict = VERIFIED
                break
    millis = (time.perf_counter() - start) * 1000.0
    if verdict == VERIFIED and computed.coeffs != conjectured.coeffs:
        raise SoundnessError(
            f"Verified verdict for {spec} but computed {computed.coeffs} "
            f"!= conjectured {conjectured.coeffs}"
        )
    return VerificationRecord(spec, computed, verdict, tuple(seeds), millis, method=method)


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
    deduced: tuple[int, ...]


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
        _pin_intermediate(n, md, k, case_series(n, md, k), e_surj, high_stats)
        deduced.append(k)

    return IntervalWitness(k_low, k_high, e_surj, e_ind, tuple(deduced))


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
        return CaseSpec(n, d, m, k, seed=seed, prime=prime, trials=trials)

    cases = [make(k) for k in range(k_lo, min(n, k_hi) + 1)]
    intervals = []
    runs = []  # (termination degree, lo, hi)
    for k in range(max(k_lo, n + 1), k_hi + 1):
        term = case_series(n, md, k).trunc - 1
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
    budget=DEFAULT_BUDGET,
    served: dict[int, VerificationRecord] | None = None,
):
    """Execute a plan: direct cases first, then interval deductions
    reusing the endpoint records. served maps k to a record already at
    hand (a cache hit), which is used instead of computing that case.

    The plan's cases must share (n, d, m, seed, prime), as every plan of
    `plan_sweep` does (ValueError otherwise). The forms of the largest k
    left to compute are drawn and powered once, when a case first uses
    them (a pure-power point of k > n+1, or a random trial), and every
    case takes a prefix of them (`pure_power_family`); a sweep of only
    k <= n+1 powers none. The cases then run from the smallest k up, and
    each hands the next the reduced echelon bases of its pure-power point
    in a `KeptBases`: for k >= n the family of k is a prefix of the
    family of every larger k, so its row space in each degree lies in
    theirs and seeds their elimination. k = n+1, settled by theorem, is
    an endpoint like any other but keeps no bases: k = n+2 takes those of
    k = n, if the sweep ran it. The draws and the bases live only in this
    call, the bases one per degree, and before each case those of its
    truncation and above are dropped. Records and skipped cases are
    returned in plan order, as if each case had run alone.

    Returns (records, witnesses, failures, skipped). A case that raises
    ResourceLimit (a matrix over the budget) has no record and is skipped
    as (spec, reason); an interval is deduced only when both its endpoint
    records exist.
    """
    if len({(s.n, s.d, s.m, s.seed, s.prime) for s in plan.cases}) > 1:
        raise ValueError("a sweep plan's cases must share (n, d, m, seed, prime)")
    found = dict(served or {})
    limits = {}
    todo = sorted((s for s in plan.cases if s.k not in found), key=lambda s: s.k)
    draws = cache(partial(powered_draws, todo[-1], todo[-1].seed)) if todo else None
    kept = KeptBases()
    for spec in todo:
        # a point that attains stops at degree trunc - 1, and the
        # truncation does not grow with k, so only a missed point could
        # use a basis of degree trunc or above
        kept.drop_from(spec.trunc)
        try:
            found[spec.k] = verify_case(spec, budget, kept=kept, draws=draws)
        except ResourceLimit as exc:
            limits[spec.k] = str(exc)
    records = {s.k: found[s.k] for s in plan.cases if s.k in found}
    skipped = [(s, limits[s.k]) for s in plan.cases if s.k in limits]
    witnesses = []
    failures = []
    for lo, hi in plan.intervals:
        if lo not in records or hi not in records:
            continue
        try:
            witnesses.append(verify_interval(records[lo], records[hi]))
        except DeductionInapplicable as exc:
            failures.append(((lo, hi), str(exc)))
    return list(records.values()), witnesses, failures, skipped


# The verified-cases table: (n, d, m) cells, the last two the largest.
TABLE_CELLS = ((4, 2, 2), (4, 2, 3), (4, 3, 2), (5, 2, 2), (4, 2, 4), (4, 3, 3))
