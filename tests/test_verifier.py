"""Tests for case verification, the interval engine, and sweep planning."""

import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genforms

from genforms import verifier
from genforms.macaulay import DegreeStat, ResourceLimit, pure_powers, quotient_series_with_stats
from genforms.monomials import MonomialIdeal, quotient_hilbert_function
from genforms.series import DegreeList, conjectured_series
from genforms.verifier import (
    NOT_ATTAINED,
    VERIFIED,
    CaseSpec,
    DeductionInapplicable,
    VerificationRecord,
    certified_ks,
    default_family,
    degenerate_family,
    plan_sweep,
    pure_power_family,
    resolve_truncation,
    run_sweep,
    suite_k_values,
    verify_case,
    verify_interval,
)


def test_verify_plain_forms_case():
    record = verify_case(CaseSpec(3, 2, 1, 4))
    assert record.verdict == VERIFIED
    assert record.computed.coeffs == (1, 3, 2, 0, 0)


def test_verify_power_case():
    record = verify_case(CaseSpec(4, 2, 2, 5))
    assert record.verdict == VERIFIED
    assert record.conjectured == conjectured_series(
        DegreeList(4, (4,) * 5), record.trunc
    )


def test_verify_complete_intersection_of_powers():
    record = verify_case(CaseSpec(2, 3, 2, 2, trunc=10))
    assert record.verdict == VERIFIED
    # (1 + t + ... + t^5)^2
    assert record.computed.coeffs == (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)


def test_degenerate_family_never_verifies():
    record = verify_case(CaseSpec(3, 2, 1, 6, trials=3), family_builder=degenerate_family)
    assert record.verdict == NOT_ATTAINED
    assert record.seeds_tried == (0, 1, 2)


def test_record_reads_back_and_refuses_ranks_its_series_does_not_imply():
    spec = CaseSpec(3, 2, 2, 5)
    record = verify_case(spec)
    rec = record.to_dict()
    assert VerificationRecord.from_dict(rec, spec) == record
    rec["ranks"][-1][3] -= 1
    with pytest.raises(ValueError, match="ranks"):
        VerificationRecord.from_dict(rec, spec)
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=1), family_builder=degenerate_family)
    rec = bad.to_dict()
    rec["ranks"][-1][3] -= 1  # a NotAttained record is never deduced from
    assert VerificationRecord.from_dict(rec, bad.spec).verdict == NOT_ATTAINED


def test_record_read_back_refuses_a_not_attained_record_of_fewer_seeds():
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=2), family_builder=degenerate_family)
    rec = bad.to_dict()
    assert VerificationRecord.from_dict(rec, bad.spec).seeds_tried == (0, 1)
    with pytest.raises(ValueError, match="2 of 3 seeds"):
        VerificationRecord.from_dict(rec, dataclasses.replace(bad.spec, trials=3))


def test_record_read_back_refuses_another_conjectured_series():
    spec = CaseSpec(3, 2, 2, 5)
    rec = verify_case(spec).to_dict()
    with pytest.raises(ValueError, match="conjectured series"):
        VerificationRecord.from_dict(rec, dataclasses.replace(spec, k=6))
    rec["conjectured"][2] += 1
    with pytest.raises(ValueError, match="conjectured series"):
        VerificationRecord.from_dict(rec, spec)


def test_record_read_back_refuses_a_verified_record_of_another_computed_series():
    spec = CaseSpec(3, 2, 2, 5)
    rec = verify_case(spec).to_dict()
    rec["computed"][2] -= 1
    rec["ranks"][2][3] += 1  # the ranks that computed series implies
    with pytest.raises(ValueError, match="computed another series"):
        VerificationRecord.from_dict(rec, spec)


def test_record_read_back_refuses_an_unknown_verdict():
    spec = CaseSpec(3, 2, 2, 5)
    rec = verify_case(spec).to_dict()
    rec["verdict"] = "Deduced"
    with pytest.raises(ValueError, match="Deduced record"):
        VerificationRecord.from_dict(rec, spec)


def test_replay_determinism():
    spec = CaseSpec(3, 2, 2, 8, seed=42)
    a = verify_case(spec)
    b = verify_case(spec)
    assert dataclasses.replace(a, millis=0.0) == dataclasses.replace(b, millis=0.0)


# Records of verify_case at p = 2^31 - 1, the default prime before
# 1048573, pinned as that version wrote them (millis left out).
_OLD_PRIME_RECORDS = (
    {"n": 4, "d": 2, "m": 2, "k": 5, "prime": 2147483647, "seed": 0, "trunc": 9,
     "conjectured": [1, 4, 10, 20, 30, 36, 34, 20, 0, 0],
     "computed": [1, 4, 10, 20, 30, 36, 34, 20, 0, 0], "verdict": "Verified",
     "ranks": [[0, 0, 1, 0], [1, 0, 4, 0], [2, 0, 10, 0], [3, 0, 20, 0],
               [4, 5, 35, 5], [5, 20, 56, 20], [6, 50, 84, 50],
               [7, 100, 120, 100], [8, 175, 165, 165]],
     "seeds_tried": [0], "version": "0.1.0"},
    {"n": 3, "d": 1, "m": 3, "k": 5, "prime": 2147483647, "seed": 0, "trunc": 5,
     "conjectured": [1, 3, 6, 5, 0, 0], "computed": [1, 3, 6, 5, 1, 0],
     "verdict": "NotAttained",
     "ranks": [[0, 0, 1, 0], [1, 0, 3, 0], [2, 0, 6, 0], [3, 5, 10, 5],
               [4, 15, 15, 14], [5, 30, 21, 21]],
     "seeds_tried": [0, 1, 2], "version": "0.1.0"},
)


def test_default_family_replays_its_coefficients():
    """The first 16 hex digits of the SHA-256 of the (4,2,4) k=5 family at
    seed 0 and the default prime, as little-endian int64, forms in order."""
    family = default_family(CaseSpec(4, 2, 4, 5), 0)
    coeffs = np.stack([f.coeffs for f in family.forms]).astype("<i8")
    assert hashlib.sha256(coeffs.tobytes()).hexdigest()[:16] == "e441e37d3cd73bf2"


@pytest.mark.parametrize("pinned", _OLD_PRIME_RECORDS, ids=lambda r: str(r["k"]))
def test_old_default_prime_replays_its_records(pinned):
    spec = CaseSpec(*(pinned[f] for f in ("n", "d", "m", "k")), prime=2**31 - 1)
    record = verify_case(spec).to_dict()
    del record["millis"]
    assert record == pinned


def test_monotone_surjectivity():
    low = verify_case(CaseSpec(3, 2, 1, 4, seed=3))
    assert low.verdict == VERIFIED
    last_nonzero = max(e for e, c in enumerate(low.computed.coeffs) if c)
    high = verify_case(CaseSpec(3, 2, 1, 5, seed=3, trunc=low.trunc))
    assert all(c == 0 for c in high.computed.coeffs[last_nonzero + 1 :])


def test_power_compatibility_of_targets():
    # d*m fixed: the conjectured series only sees the product
    for n, k in [(3, 5), (4, 7)]:
        a = conjectured_series(DegreeList(n, (2 * 8,) * k), 20)
        b = conjectured_series(DegreeList(n, (4 * 4,) * k), 20)
        assert a == b


def test_case_spec_validation():
    with pytest.raises(ValueError):
        CaseSpec(3, 2, 1, 0)
    with pytest.raises(ValueError):
        CaseSpec(3, 2, 1, 7)  # only 6 quadric monomials in 3 variables
    with pytest.raises(ValueError):
        CaseSpec(3, 2, 1, 4, trials=0)


def test_resource_limit_propagates():
    # the pure-power point eliminates at most 1x3 and 3x1 entries, the
    # random trial 4x6 at degree 2
    with pytest.raises(ResourceLimit):
        verify_case(CaseSpec(3, 2, 1, 4), budget=2)


def test_trivial_interval():
    r4 = verify_case(CaseSpec(3, 2, 1, 4))
    w = verify_interval(r4, r4)
    assert w.k_low == w.k_high == 4
    assert w.deduced == ()
    assert w.record_low.verdict == VERIFIED


def test_interval_small_case():
    # md = 4, n = 3: k in [7, 14] all share termination degree 5
    low, high = verify_case(CaseSpec(3, 2, 2, 7)), verify_case(CaseSpec(3, 2, 2, 14))
    w = verify_interval(low, high)
    assert w.deduced == tuple(range(8, 14))
    assert w.e_surj == 5


def test_interval_rejects_unverified_endpoint():
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=1), family_builder=degenerate_family)
    good = verify_case(CaseSpec(3, 2, 1, 4))
    with pytest.raises(DeductionInapplicable, match="endpoint"):
        verify_interval(good, bad)


def test_interval_rejects_unpinned_degree():
    low = verify_case(CaseSpec(3, 2, 2, 7))
    high = verify_case(CaseSpec(3, 2, 2, 14))
    # degrade the degree-4 rank: rule (b) no longer applies there and the
    # intermediate conjectured coefficients at degree 4 are positive
    stats = tuple(
        DegreeStat(s.e, s.rows, s.cols, s.rank - 1) if s.e == 4 else s
        for s in high.degree_stats
    )
    tampered = dataclasses.replace(high, degree_stats=stats)
    with pytest.raises(DeductionInapplicable) as err:
        verify_interval(low, tampered)
    assert err.value.degree == 4


def test_plan_sweep_degree14_cell():
    plan = plan_sweep(3, 2, 7, 1, 120)
    planned = {c.k for c in plan.cases}
    for lo, hi in plan.intervals:
        planned.update(range(lo, hi + 1))
    assert planned >= set(range(1, 121))
    assert (26, 45) in plan.intervals
    endpoint_ks = {c.k for c in plan.cases}
    assert {26, 45} <= endpoint_ks


def test_plan_sweep_single_point():
    plan = plan_sweep(3, 2, 1, 5, 5)
    assert [c.k for c in plan.cases] == [5]
    assert plan.intervals == ()


def test_plan_sweep_complete_intersections_no_intervals():
    plan = plan_sweep(3, 2, 1, 1, 3)
    assert [c.k for c in plan.cases] == [1, 2, 3]
    assert plan.intervals == ()
    assert all(c.trunc is not None for c in plan.cases)


def test_verify_and_sweep_share_the_complete_intersection_truncation():
    # k <= n stops at the numerator degree k(md - 1) + 1, in both paths
    assert resolve_truncation(CaseSpec(4, 2, 2, 3)) == 10
    assert [c.trunc for c in plan_sweep(4, 2, 2, 3, 3).cases] == [10]
    assert resolve_truncation(CaseSpec(4, 2, 2, 3, trunc=7)) == 7


def test_run_sweep_deduces_no_interval_across_a_skipped_endpoint():
    """At a budget of 200 entries only k=14 is over it: at the pure-power
    point (33x12 standard entries at degree 5) and then in the random
    trial (14x15 at degree 4). It is skipped with the trial's message,
    7..14 is not deduced, and 5..6 still is."""
    plan = plan_sweep(3, 2, 2, 4, 15)
    assert [c.k for c in plan.cases] == [4, 5, 6, 7, 14, 15]
    assert plan.intervals == ((5, 6), (7, 14))
    records, witnesses, failures, skipped = run_sweep(plan, budget=200)
    assert [r.spec.k for r in records] == [4, 5, 6, 7, 15]
    assert all(r.verdict == VERIFIED for r in records)
    assert [(w.k_low, w.k_high) for w in witnesses] == [(5, 6)] and failures == []
    assert [(spec.k, reason) for spec, reason in skipped] == [
        (14, "degree-4 Macaulay matrix has 14x15 = 210 entries, over budget 200")
    ]
    assert certified_ks(records, witnesses) == {4, 5, 6, 7, 15}


@pytest.mark.parametrize("n, d, m", [(4, 3, 3), (4, 2, 4), (5, 2, 2)])
def test_run_sweep_certifies_k_equal_n_under_the_default_budget(n, d, m):
    """k = n is a monomial complete intersection at the pure-power point,
    with no rows left to eliminate, however large its whole Macaulay
    matrices (83538000 entries for (4,3,3) k=4)."""
    records, witnesses, failures, skipped = run_sweep(plan_sweep(n, d, m, n, n))
    assert [(r.spec.k, r.verdict, r.seeds_tried) for r in records] == [(n, VERIFIED, (0,))]
    assert witnesses == failures == skipped == []


def test_plan_sweep_range_validation():
    with pytest.raises(ValueError):
        plan_sweep(3, 2, 7, 1, 136)  # only 120 degree-14 monomials


def test_run_sweep_end_to_end():
    plan = plan_sweep(3, 2, 1, 1, 6)
    records, witnesses, failures, skipped = run_sweep(plan)
    assert failures == skipped == []
    assert all(r.verdict == VERIFIED for r in records)
    assert certified_ks(records, witnesses) == set(range(1, 7))


def test_suite_k_values_shape():
    ks = suite_k_values(4, 2, 2)
    assert ks[0] == 5 and ks[-1] == 35
    assert len(ks) == 3


def test_pure_power_family_keeps_the_later_draws():
    spec = CaseSpec(3, 2, 3, 5, seed=4)
    family = pure_power_family(spec, 4)
    assert family.forms[3:] == default_family(spec, 4).forms[3:]
    assert pure_powers(family) == ((6, 6, 6), family.forms[3:])
    assert family.seed == 4 and family.prime == spec.prime


def test_verify_case_certifies_at_the_pure_power_point():
    spec = CaseSpec(3, 2, 2, 4, seed=5)
    record = verify_case(spec)
    assert record.verdict == VERIFIED and record.seeds_tried == (5,)
    series, stats = quotient_series_with_stats(pure_power_family(spec, 5), record.trunc)
    assert record.computed == series and record.degree_stats == tuple(stats)
    assert VerificationRecord.from_dict(record.to_dict(), spec) == record


@pytest.mark.parametrize("n, d, m, k", [(2, 3, 2, 2), (3, 2, 2, 3), (4, 1, 3, 2), (3, 2, 3, 1)])
def test_complete_intersections_certify_as_the_monomial_sieve(n, d, m, k):
    spec = CaseSpec(n, d, m, k)
    record = verify_case(spec)
    ideal = MonomialIdeal.from_generators(
        n, [tuple(m * d * (j == i) for j in range(n)) for i in range(k)])
    assert record.verdict == VERIFIED and record.seeds_tried == (0,)
    assert record.computed == quotient_hilbert_function(ideal, record.trunc)


def test_a_family_builder_skips_the_pure_power_point(monkeypatch):
    def refuse(spec, seed):
        raise AssertionError("the pure-power point was tried")

    monkeypatch.setattr(verifier, "pure_power_family", refuse)
    record = verify_case(CaseSpec(3, 2, 2, 4, seed=5), family_builder=default_family)
    assert record.verdict == VERIFIED and record.seeds_tried == (5,)


def test_a_first_attempt_over_budget_falls_through_to_the_random_trials(monkeypatch):
    """(3,2,1,4) at the degenerate point does not terminate at degree 3,
    and its degree-4 matrix (24x15) is over a budget of 200 entries; the
    random trials stop at degree 3 (12x10) and certify."""
    monkeypatch.setattr(verifier, "pure_power_family", degenerate_family)
    record = verify_case(CaseSpec(3, 2, 1, 4), budget=200)
    assert record.verdict == VERIFIED and record.seeds_tried == (0,)
    with pytest.raises(ResourceLimit):
        verify_case(CaseSpec(3, 2, 1, 4), budget=200, family_builder=degenerate_family)


# The pure-power point certifies (4,2,2,5) at the first seed; it fails on
# the four Alexander-Hirschowitz sporadic cases, which must end
# NotAttained after every random trial, also with assertions stripped.
_PURE_POWER_POINT = """
import sys
from genforms.verifier import CaseSpec, verify_case
assert False, "assertions must be off"
record = verify_case(CaseSpec(4, 2, 2, 5))
if (record.verdict, record.seeds_tried) != ("Verified", (0,)):
    sys.exit(f"(4,2,2,5): {record.verdict} after {record.seeds_tried}")
for case in ((3, 1, 3, 5), (4, 1, 3, 9), (5, 1, 3, 14), (5, 1, 2, 7)):
    record = verify_case(CaseSpec(*case))
    if (record.verdict, record.seeds_tried) != ("NotAttained", (0, 1, 2)):
        sys.exit(f"{case}: {record.verdict} after {record.seeds_tried}")
"""


def test_pure_power_point_under_python_O():
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PURE_POWER_POINT],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_case_spec_rejects_prime_above_2_31():
    with pytest.raises(ValueError, match="2\\^31"):
        CaseSpec(3, 2, 1, 4, prime=4294967311)


# Plants an over-reported rank, an ideal dimension above the row count, a
# seed basis narrower than the degree below, and a Verified verdict with
# computed != conjectured; each must raise even with assertions stripped.
_PLANTED = """
import sys
from genforms import macaulay, modp, verifier
from genforms.macaulay import SoundnessError
assert False, "assertions must be off"

class OverReporting(modp.RowReducer):
    @property
    def rank(self):
        return self.cols + 1

family = macaulay.FormFamily.random(3, 2, 2, seed=0)
failures = []
reducer = modp.RowReducer
modp.RowReducer = OverReporting
try:
    macaulay.ideal_dimension_at_degree(family, 3)
    failures.append("rank above cols")
except SoundnessError:
    pass
modp.RowReducer = reducer

real = macaulay.ideal_dimension_at_degree
macaulay.ideal_dimension_at_degree = lambda fam, e, *_: real(fam, e) + 100
try:
    macaulay.quotient_series_with_stats(family, 4)
    failures.append("first-order bound")
except SoundnessError:
    pass
macaulay.ideal_dimension_at_degree = real

chain = {}
macaulay.ideal_dimension_at_degree(family, 3, chain)
pivots, free, basis = chain[3]
chain[3] = (pivots, free[:-1], basis[:, :-1])
try:
    macaulay.ideal_dimension_at_degree(family, 4, chain)
    failures.append("seed of the wrong width")
except SoundnessError:
    pass

verifier.lex_compare = lambda a, b: verifier.Ordering.EQUAL
try:
    verifier.verify_case(
        verifier.CaseSpec(3, 2, 1, 2, trunc=4, trials=1),
        family_builder=verifier.degenerate_family,
    )
    failures.append("verified mismatch")
except SoundnessError:
    pass
if failures:
    sys.exit("not raised: " + ", ".join(failures))
"""


def test_soundness_checks_survive_python_O():
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# Endpoint records that bound no interval: of another (n, d, m), even one
# of the same degree m*d, or with the low k above the high k. Each must be
# refused with a ValueError, also with assertions stripped, while records
# that do bound an interval still deduce.
_MISMATCHED_ENDPOINTS = """
import sys
import pytest
from genforms.verifier import CaseSpec, verify_case, verify_interval

r5 = verify_case(CaseSpec(4, 2, 2, 5))
r6 = verify_case(CaseSpec(4, 2, 2, 6))
for low, high in (
    (verify_case(CaseSpec(4, 1, 4, 5)), r6),
    (r5, verify_case(CaseSpec(3, 2, 2, 6))),
    (r6, r5),
):
    with pytest.raises(ValueError, match="bound no interval"):
        verify_interval(low, high)
w = verify_interval(r5, r6)
if (w.k_low, w.k_high, w.deduced) != (5, 6, ()):
    sys.exit(f"matching records gave {w}")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_interval_refuses_endpoint_records_of_another_case(flags):
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MISMATCHED_ENDPOINTS],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_n3_script_smoke():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "sweep_n3.py"), "--max-dm", "4"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "covered=  15/  15" in proc.stdout
