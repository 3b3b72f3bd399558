"""Tests for case verification, the interval engine, and sweep planning."""

import ast
import dataclasses
import functools
import hashlib
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genforms

from genforms import macaulay, modp, verifier
from genforms.macaulay import (
    FormFamily,
    KeptBases,
    ResourceLimit,
    macaulay_shape,
    power,
    quotient_series,
)
from genforms.monomials import MonomialIdeal, monomial_count, quotient_hilbert_function
from genforms.series import DegreeList, conjectured_series
from genforms.verifier import (
    NOT_ATTAINED,
    VERIFIED,
    CaseSpec,
    DeductionInapplicable,
    DegreeStat,
    VerificationRecord,
    certified_ks,
    default_family,
    plan_sweep,
    pure_power_family,
    run_sweep,
    verify_case,
    verify_interval,
)


def degenerate_family(spec, seed, draws=None):
    """k copies of one powered form: a point that is never generic, so no
    case run at it may be Verified."""
    (f,) = power(FormFamily.random(spec.n, spec.d, 1, seed, spec.prime), spec.m).forms
    return FormFamily(spec.n, (f,) * spec.k, spec.prime, seed)


def at_degenerate_points(monkeypatch):
    """Make `verify_case` try `degenerate_family` at the pure-power point
    and at every random trial."""
    monkeypatch.setattr(verifier, "pure_power_family", degenerate_family)
    monkeypatch.setattr(verifier, "default_family", degenerate_family)


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
    record = verify_case(CaseSpec(2, 3, 2, 2))
    assert record.verdict == VERIFIED
    # (1 + t + ... + t^5)^2, through one past its degree 10
    assert record.computed.coeffs == (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0)


def test_degenerate_family_never_verifies(monkeypatch):
    at_degenerate_points(monkeypatch)
    record = verify_case(CaseSpec(3, 2, 1, 6, trials=3))
    assert record.verdict == NOT_ATTAINED
    assert record.seeds_tried == (0, 1, 2)


def test_record_reads_back_and_refuses_ranks_its_series_does_not_imply(monkeypatch):
    spec = CaseSpec(3, 2, 2, 5)
    record = verify_case(spec)
    rec = record.to_dict()
    assert VerificationRecord.from_dict(rec, spec) == record
    rec["ranks"][-1][3] -= 1
    with pytest.raises(ValueError, match="stored ranks"):
        VerificationRecord.from_dict(rec, spec)
    at_degenerate_points(monkeypatch)
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=1))
    rec = bad.to_dict()
    assert VerificationRecord.from_dict(rec, bad.spec) == bad
    rec["ranks"][-1][3] -= 1  # checked for every verdict
    with pytest.raises(ValueError, match="stored ranks"):
        VerificationRecord.from_dict(rec, bad.spec)


def test_record_read_back_refuses_a_not_attained_record_of_fewer_seeds(monkeypatch):
    at_degenerate_points(monkeypatch)
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=2))
    rec = bad.to_dict()
    assert VerificationRecord.from_dict(rec, bad.spec).seeds_tried == (0, 1)
    with pytest.raises(ValueError, match="2 of 3 seeds"):
        VerificationRecord.from_dict(rec, dataclasses.replace(bad.spec, trials=3))


def test_record_read_back_refuses_a_record_cut_short_of_the_cases_truncation():
    """(4,2,2) k=7 truncates at 8. Its record cut at degree 3, as a run
    that checked only degrees 0-3 would write it, is consistent in
    itself, and still refused: none of those degrees holds a form."""
    spec = CaseSpec(4, 2, 2, 7)
    rec = verify_case(spec).to_dict()
    assert rec["trunc"] == spec.trunc == 8
    for key in ("conjectured", "computed", "ranks"):
        rec[key] = rec[key][:4]
    rec["trunc"] = 3
    with pytest.raises(ValueError, match="record of 4 coefficients, not 9"):
        VerificationRecord.from_dict(rec, spec)


def test_record_read_back_refuses_another_conjectured_series():
    spec = CaseSpec(3, 2, 2, 5)
    rec = verify_case(spec).to_dict()
    with pytest.raises(ValueError, match="stored conjectured "):
        VerificationRecord.from_dict(rec, dataclasses.replace(spec, k=6))
    rec["conjectured"][2] += 1
    with pytest.raises(ValueError, match="stored conjectured "):
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


@pytest.mark.parametrize(
    "k, edit, message",
    [
        (5, {"method": "theorem", "seeds_tried": []}, "Verified theorem record of k=5 "),
        (4, {"seeds_tried": [0]}, "theorem record of k=4 .* after 1 seeds"),
        (4, {"verdict": NOT_ATTAINED}, "NotAttained theorem record"),
        (5, {"method": "lemma"}, "unknown method 'lemma'"),
    ],
    ids=["theorem-of-another-k", "theorem-with-a-seed", "theorem-not-verified",
         "unknown-method"],
)
def test_record_read_back_refuses_a_record_its_method_rules_out(k, edit, message):
    """A "theorem" record is a Verified one of k = n+1 with no seed
    tried; (3,2,2) k=4 is one, k=5 a "pure-power" record."""
    spec = CaseSpec(3, 2, 2, k)
    rec = verify_case(spec).to_dict()
    served = VerificationRecord.from_dict(rec, spec)
    assert served.method == ("theorem" if k == 4 else "pure-power")
    rec.update(edit)
    with pytest.raises(ValueError, match=message):
        VerificationRecord.from_dict(rec, spec)


def _corruptions(rec, spec, data):
    """Copies of rec, each with one stored fact changed: its truncation,
    one conjectured coefficient or rank entry, or its computed series
    without its last coefficient; its seeds, as ones never tried or one
    more than its method tries; or a NotAttained verdict for the
    conjectured series, with the seeds and ranks that verdict implies."""
    trunc = dict(rec, trunc=rec["trunc"] + data.draw(st.sampled_from((-1, 1))))
    conjectured = list(rec["conjectured"])
    conjectured[data.draw(st.integers(0, len(conjectured) - 1))] += 1
    ranks = [list(row) for row in rec["ranks"]]
    ranks[data.draw(st.integers(0, len(ranks) - 1))][data.draw(st.integers(0, 3))] += 1
    short = dict(rec, computed=rec["computed"][:-1])
    tried = rec["seeds_tried"]
    seeds = data.draw(st.sampled_from((
        ["a", "b", "c"][: max(1, len(tried))], tried + [spec.seed + len(tried)]
    )))
    attained = dict(
        rec, verdict=NOT_ATTAINED, method="random", computed=rec["conjectured"],
        ranks=[list(stat) for stat in verifier._implied_stats(spec, rec["conjectured"])],
        seeds_tried=list(range(spec.seed, spec.seed + spec.trials)),
    )
    return (trunc, dict(rec, conjectured=conjectured), dict(rec, ranks=ranks), short,
            dict(rec, seeds_tried=seeds), attained)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), d=st.integers(1, 2), m=st.integers(1, 2),
       degenerate=st.booleans())
def test_record_read_back_refuses_any_stored_fact_its_case_does_not_give(
    data, n, d, m, degenerate
):
    """A record of a small case, at the degenerate point or not, reads
    back as itself, and is refused with one stored fact changed,
    whatever its verdict."""
    k = data.draw(st.integers(1, min(monomial_count(n, d * m), 8)))
    spec = CaseSpec(n, d, m, k, trials=1)
    with pytest.MonkeyPatch.context() as patch:
        if degenerate:
            at_degenerate_points(patch)
        record = verify_case(spec)
    rec = record.to_dict()
    assert VerificationRecord.from_dict(rec, spec) == record
    for corrupt in _corruptions(rec, spec, data):
        with pytest.raises(ValueError, match="stored|coefficients|seeds|not above"):
            VerificationRecord.from_dict(corrupt, spec)


@pytest.mark.parametrize("k", [4, 5])
def test_record_read_back_serves_a_record_with_no_method(k):
    """A record written before records had a method, as the one verify
    computed at the first seed, is served, and written back as it was."""
    spec = CaseSpec(3, 2, 2, k)
    rec = verify_case(spec).to_dict()
    del rec["method"]
    rec["seeds_tried"] = [0]
    served = VerificationRecord.from_dict(rec, spec)
    assert served.method is None and served.to_dict() == rec


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
    """Each pinned record, which has no method, is served from a cache as
    it stands, and verify_case replays it bit for bit. (4,2,2,5) is now
    Verified by theorem with no seed tried, so its elimination is
    replayed at the pure-power point directly."""
    spec = CaseSpec(*(pinned[f] for f in ("n", "d", "m", "k")), prime=2**31 - 1)
    served = VerificationRecord.from_dict({**pinned, "millis": 0.0}, spec)
    assert served.method is None and _without_millis(served) == pinned
    record = _without_millis(verify_case(spec))
    method = record.pop("method")
    if spec.k == spec.n + 1:
        assert (method, record["seeds_tried"]) == ("theorem", [])
        series = quotient_series(pure_power_family(spec, 0), pinned["trunc"])
        assert list(series.coeffs) == pinned["computed"]
        record["seeds_tried"] = [0]
    else:
        assert method == "random"
    assert record == pinned


def test_monotone_surjectivity():
    low = verify_case(CaseSpec(3, 2, 1, 4, seed=3))
    assert low.verdict == VERIFIED
    last_nonzero = max(e for e, c in enumerate(low.computed.coeffs) if c)
    high = verify_case(CaseSpec(3, 2, 1, 5, seed=3))
    assert high.trunc == low.trunc
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
    # the pure-power point of k = n+2 meets the budget at degree 2 (2x3
    # standard entries), below the first zero of the conjectured series
    with pytest.raises(ResourceLimit, match="^degree-2 .* 2x3"):
        verify_case(CaseSpec(3, 2, 1, 5), budget=2)


def test_trivial_interval():
    r4 = verify_case(CaseSpec(3, 2, 1, 4))
    w = verify_interval(r4, r4)
    assert w.k_low == w.k_high == 4
    assert w.deduced == ()
    assert r4.verdict == VERIFIED


def test_interval_small_case():
    # md = 4, n = 3: k in [7, 14] all share termination degree 5
    low, high = verify_case(CaseSpec(3, 2, 2, 7)), verify_case(CaseSpec(3, 2, 2, 14))
    w = verify_interval(low, high)
    assert w.deduced == tuple(range(8, 14))
    assert w.e_surj == 5


def test_interval_rejects_unverified_endpoint(monkeypatch):
    good = verify_case(CaseSpec(3, 2, 1, 4))
    at_degenerate_points(monkeypatch)
    bad = verify_case(CaseSpec(3, 2, 1, 6, trials=1))
    with pytest.raises(DeductionInapplicable, match="endpoint"):
        verify_interval(good, bad)


def test_interval_rejects_unpinned_degree():
    """k=8 between the (3,2,2) endpoints k=7 and k=14 is pinned by their
    stats, and not once the degree-4 rank of k=14 is degraded: rule (b)
    no longer applies there, and k=8's conjectured coefficient at degree
    4 is positive."""
    low = verify_case(CaseSpec(3, 2, 2, 7))
    high = verify_case(CaseSpec(3, 2, 2, 14))
    e_surj = low.conjectured.coeffs.index(0)
    k8 = CaseSpec(3, 2, 2, 8)
    conjectured = k8.conjectured
    stats = {s.e: s for s in high.degree_stats}
    verifier._pin_intermediate(3, 4, 8, conjectured, e_surj, stats)
    stats[4] = DegreeStat(4, stats[4].rows, stats[4].cols, stats[4].rank - 1)
    with pytest.raises(DeductionInapplicable) as err:
        verifier._pin_intermediate(3, 4, 8, conjectured, e_surj, stats)
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
    assert [c.trunc for c in plan.cases] == [2, 3, 4]


def test_verify_and_sweep_share_the_complete_intersection_truncation():
    # k <= n stops at the numerator degree k(md - 1) + 1, in both paths
    assert CaseSpec(4, 2, 2, 3).trunc == 10
    assert [c.trunc for c in plan_sweep(4, 2, 2, 3, 3).cases] == [10]


def test_run_sweep_deduces_no_interval_across_a_skipped_endpoint():
    """At a budget of 200 entries only k=14 is over it, at the pure-power
    point (33x12 standard entries at degree 5). Its conjectured series
    has no zero below degree 5, so no random trial could attain within
    the budget: it is skipped with the pure-power point's message, 7..14
    is not deduced, and 5..6 still is."""
    plan = plan_sweep(3, 2, 2, 4, 15)
    assert [c.k for c in plan.cases] == [4, 5, 6, 7, 14, 15]
    assert plan.intervals == ((5, 6), (7, 14))
    records, witnesses, failures, skipped = run_sweep(plan, budget=200)
    assert [r.spec.k for r in records] == [4, 5, 6, 7, 15]
    assert all(r.verdict == VERIFIED for r in records)
    assert [(w.k_low, w.k_high) for w in witnesses] == [(5, 6)] and failures == []
    assert [(spec.k, reason) for spec, reason in skipped] == [
        (14, "degree-5 Macaulay matrix has 33x12 = 396 entries, over budget 200")
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


def test_pure_power_family_keeps_the_later_draws():
    spec = CaseSpec(3, 2, 3, 5, seed=4)
    family = pure_power_family(spec, 4)
    assert family.forms[3:] == default_family(spec, 4).forms[3:]
    assert family.pure_powers[:2] == ((6, 6, 6), family.forms[3:])
    assert family.seed == 4 and family.prime == spec.prime


def test_a_sweep_shares_its_pure_powers(monkeypatch):
    """Over (3,7,2) k = 4..120 every pure-power point takes its pure
    powers from one tuple of n forms, built by at most n
    `from_monomial_dict` calls."""
    built, families = [], []
    real_build = macaulay.ModPPoly.from_monomial_dict.__func__
    real_family = verifier.pure_power_family

    def build(cls, *args):
        built.append(args)
        return real_build(cls, *args)

    def family(spec, *args):
        families.append(real_family(spec, *args))
        return families[-1]

    monkeypatch.setattr(macaulay.ModPPoly, "from_monomial_dict", classmethod(build))
    monkeypatch.setattr(verifier, "pure_power_family", family)
    run_sweep(plan_sweep(3, 7, 2, 4, 120))
    assert len(families) == 16 and len(built) <= 3
    first = families[0].forms[:3]
    for fam in families:
        assert all(f is g for f, g in zip(fam.forms[:3], first, strict=True))


def test_a_sweep_tests_each_form_for_a_pure_power_once(monkeypatch):
    """Over (3,7,2) k = 4..120 each of the 3 pure powers and of the 117
    shared draws that the pure-power points hold is scanned once by the
    cached `ModPPoly.pure_power`, however many cases' families hold it."""
    scanned = []
    real = macaulay.ModPPoly.pure_power.func

    def scan(form):
        scanned.append(form)
        return real(form)

    counted = functools.cached_property(scan)
    counted.__set_name__(macaulay.ModPPoly, "pure_power")
    monkeypatch.setattr(macaulay.ModPPoly, "pure_power", counted)
    verifier._pure_powers.cache_clear()
    families = []
    real_family = verifier.pure_power_family

    def family(spec, *args):
        families.append(real_family(spec, *args))
        return families[-1]

    monkeypatch.setattr(verifier, "pure_power_family", family)
    run_sweep(plan_sweep(3, 7, 2, 4, 120))
    held = {id(f): f for fam in families for f in fam.forms}
    assert len(held) == 3 + 117
    assert sorted(map(id, scanned)) == sorted(held)


@pytest.mark.parametrize("cell", [(3, 7, 2, 4, 120), (5, 2, 2, 1, 70)])
def test_sweep_records_replay_with_the_draws_of_each_case_alone(cell):
    # (5,2,2): 15 coefficients per quadric in five variables, an odd count
    records, _, _, skipped = run_sweep(plan_sweep(*cell))
    assert skipped == []
    for record in records:
        alone = verify_case(record.spec).to_dict()
        shared = record.to_dict()
        del alone["millis"], shared["millis"]
        assert shared == alone


def _without_millis(record) -> dict:
    row = record.to_dict()
    del row["millis"]
    return row


def assert_each_record_as_alone(records, budget=verifier.DEFAULT_BUDGET):
    """Each record equals its case verified alone, apart from millis."""
    for record in records:
        alone = verify_case(record.spec, budget=budget)
        assert _without_millis(record) == _without_millis(alone)


@pytest.mark.parametrize("cell", [(3, 2, 7, 4, 120), (4, 3, 3, 1, 220)])
def test_sweep_seeded_by_smaller_k_records_each_case_as_alone(cell):
    records, _, _, skipped = run_sweep(plan_sweep(*cell))
    assert skipped == [] and len(records) == len(plan_sweep(*cell).cases)
    assert_each_record_as_alone(records)


def _watch_seeds(monkeypatch):
    """Counts, while the test runs, of the degrees seeded by a kept basis
    and by x_n, and of the pivots `modp._gauss_jordan` finds."""
    counts = {"kept": 0, "xn": 0, "pivots": 0}
    offered = []
    real_kept, real_xn = KeptBases.seed, macaulay._xn_seed
    real_init, real_gj = modp.RowReducer.__init__, modp._gauss_jordan

    def kept_seed(self, *args):
        prefix = real_kept(self, *args)
        offered.append(None if prefix is None else prefix[1])
        return prefix

    def xn_seed(*args):
        counts["xn"] += 1
        return real_xn(*args)

    def init(self, cols, p=modp.DEFAULT_PRIME, seed=None):
        counts["kept"] += seed is not None and any(seed is b for b in offered)
        offered.clear()
        real_init(self, cols, p, seed)

    def gauss_jordan(m, p):
        rows, pivots = real_gj(m, p)
        counts["pivots"] += len(pivots)
        return rows, pivots

    monkeypatch.setattr(KeptBases, "seed", kept_seed)
    monkeypatch.setattr(macaulay, "_xn_seed", xn_seed)
    monkeypatch.setattr(modp.RowReducer, "__init__", init)
    monkeypatch.setattr(modp, "_gauss_jordan", gauss_jordan)
    return counts


def test_sweep_takes_both_seeds_and_finds_fewer_pivots(monkeypatch):
    """(3,7,2) k = 4..120, a slice of the perfbench sweep-n3 workload:
    some degrees take the kept basis of a smaller k, others x_n times
    the degree below, and the pivot loop finds 1023 pivots, where the
    x_n seed alone finds 2268 (k=4, by theorem, eliminates nothing)."""
    counts = _watch_seeds(monkeypatch)
    records, _, _, skipped = run_sweep(plan_sweep(3, 7, 2, 4, 120))
    assert skipped == [] and all(r.verdict == VERIFIED for r in records)
    assert counts["kept"] >= 1 and counts["xn"] >= 1
    assert counts["pivots"] <= 1100


def test_run_sweep_keeps_no_basis_after_it_returns(monkeypatch):
    run_sweep(plan_sweep(3, 7, 2, 4, 120))
    counts = _watch_seeds(monkeypatch)
    after = verify_case(CaseSpec(3, 7, 2, 4))
    assert counts["kept"] == 0
    assert _without_millis(after) == _without_millis(verify_case(CaseSpec(3, 7, 2, 4)))
    modules = (verifier, macaulay, modp)
    assert not any(isinstance(v, KeptBases) for mod in modules for v in vars(mod).values())


def test_sweep_records_as_alone_around_a_cache_hit():
    """A record served for a middle k: the cases above it take the bases
    of the case below it, and every record is still as computed alone."""
    plan = plan_sweep(3, 7, 2, 4, 120)
    middle = plan.cases[len(plan.cases) // 2]
    hit = verify_case(middle)
    records, _, _, skipped = run_sweep(plan, served={middle.k: hit})
    assert skipped == [] and hit in records
    assert_each_record_as_alone(records)


def test_sweep_records_as_alone_around_a_case_skipped_by_the_budget():
    """(3,2,2) k = 4..15 at a budget of 200 entries skips k=14 (see
    test_run_sweep_deduces_no_interval_across_a_skipped_endpoint); k=15
    still records as alone."""
    records, _, _, skipped = run_sweep(plan_sweep(3, 2, 2, 4, 15), budget=200)
    assert [spec.k for spec, _ in skipped] == [14]
    assert [r.spec.k for r in records] == [4, 5, 6, 7, 15]
    assert_each_record_as_alone(records, budget=200)


def test_sweep_keeps_every_degree_at_a_small_budget(monkeypatch):
    """At 50000 entries every matrix of (3,7,2) k = 4..120 is eliminated,
    and the budget caps nothing else: the one store of the sweep offers
    each case no degree at or above its truncation, ends with every
    degree kept below the truncation of its last case, and every record
    is as alone."""
    stores, degrees, offered = [], set(), []
    real_keep, real_verify = KeptBases.keep, verifier.verify_case

    def keep(self, e, *args):
        real_keep(self, e, *args)
        stores.append(self)
        degrees.add(e)

    def verify(spec, budget, kept, draws):
        offered.append((spec.trunc, set(kept.bases)))
        return real_verify(spec, budget, kept, draws)

    monkeypatch.setattr(KeptBases, "keep", keep)
    monkeypatch.setattr(verifier, "verify_case", verify)
    plan = plan_sweep(3, 7, 2, 4, 120)
    records, _, _, skipped = run_sweep(plan, budget=50_000)
    assert skipped == [] and len({id(store) for store in stores}) == 1
    assert all(e < trunc for trunc, kept in offered for e in kept)
    assert any(kept for _, kept in offered)
    last = max(plan.cases, key=lambda spec: spec.k)
    assert set(stores[0].bases) == {e for e in degrees if e < last.trunc} != set()
    monkeypatch.undo()
    assert_each_record_as_alone(records, budget=50_000)


P = modp.DEFAULT_PRIME


@pytest.mark.parametrize(
    "n, d, m, seed, prime",
    [(3, 2, 2, 0, P), (3, 2, 2, 1, P), (3, 2, 2, 0, 2**31 - 1), (3, 3, 2, 0, P),
     (3, 2, 3, 0, P), (4, 2, 2, 0, P)],
)
def test_powered_draws_serve_only_their_own_key(n, d, m, seed, prime):
    """run_sweep powers one set of draws for every case of its plan, so a
    plan whose top case is of another (n, d, m, seed, prime) than the
    rest is refused; one of a single key runs, each record as alone."""
    plan = plan_sweep(3, 2, 2, 4, 10)
    assert plan.cases[-1].k == 10
    top = CaseSpec(n, d, m, 10, seed=seed, prime=prime)
    mixed = dataclasses.replace(plan, cases=plan.cases[:-1] + (top,))
    if (n, d, m, seed, prime) == (3, 2, 2, 0, P):
        records, _, _, skipped = run_sweep(mixed)
        assert skipped == [] and [r.spec.k for r in records] == [c.k for c in plan.cases]
        assert_each_record_as_alone(records)
    else:
        with pytest.raises(ValueError, match="must share"):
            run_sweep(mixed)


def _count_powers(monkeypatch):
    """The k of each family `verifier.power` powers while the test runs."""
    calls = []
    real = verifier.power

    def counted(family, m):
        calls.append(family.k)
        return real(family, m)

    monkeypatch.setattr(verifier, "power", counted)
    return calls


def test_a_sweep_powers_its_draws_once(monkeypatch):
    calls = _count_powers(monkeypatch)
    records, _, _, skipped = run_sweep(plan_sweep(3, 7, 2, 4, 120))
    assert skipped == [] and calls == [120]


@pytest.mark.parametrize("n, d, m, k", [(4, 2, 2, 5), (4, 2, 3, 5), (4, 3, 2, 5),
                                        (5, 2, 2, 6), (4, 2, 4, 5), (4, 2, 2, 4),
                                        (4, 2, 2, 6), (5, 2, 2, 7)])
def test_verify_case_alone_powers_its_draws_once(monkeypatch, n, d, m, k):
    """The five ci-deep cases of perfbench, all k = n+1, are Verified by
    theorem and power no draws, as k <= n powers none at its pure-power
    point; above n+1 the pure-power point takes draws n+1..k of the one
    powered family of k forms."""
    calls = _count_powers(monkeypatch)
    assert verify_case(CaseSpec(n, d, m, k)).seeds_tried == (() if k == n + 1 else (0,))
    assert calls == ([] if k <= n + 1 else [k])


def test_a_missed_pure_power_point_does_not_power_the_top_draws_again(monkeypatch):
    """k=5 of (3,7,2) k = 4..120 with its pure-power point and its first
    trial forced to miss: k=4, by theorem, powers nothing, the first
    trial of k=5 powers the sweep's draws, the second draws and powers
    seed 1 for its 5 forms, and no later case powers the draws of k=120
    again."""
    plan = plan_sweep(3, 7, 2, 4, 120)
    real_at, real_default = verifier._at_pure_powers, verifier.default_family

    def at_pure_powers(spec, *args):
        return None if spec.k == 5 else real_at(spec, *args)

    def default_family(spec, seed, draws=None):
        if spec.k == 5 and seed == 0:
            assert draws is not None and len(draws) == 120
            return FormFamily(spec.n, (draws[0],) * 5, spec.prime, seed)
        return real_default(spec, seed, draws)

    monkeypatch.setattr(verifier, "_at_pure_powers", at_pure_powers)
    monkeypatch.setattr(verifier, "default_family", default_family)
    calls = _count_powers(monkeypatch)
    records, _, _, skipped = run_sweep(plan)
    assert skipped == [] and all(r.verdict == VERIFIED for r in records)
    assert [(r.spec.k, r.seeds_tried) for r in records[:2]] == [(4, ()), (5, (0, 1))]
    assert calls == [120, 5]


def test_a_sweep_of_k_up_to_n_plus_one_powers_no_draws(monkeypatch):
    calls = _count_powers(monkeypatch)
    records, _, _, skipped = run_sweep(plan_sweep(4, 2, 2, 1, 5))
    assert skipped == [] and [r.verdict for r in records] == [VERIFIED] * 5
    assert calls == []


def test_verify_case_certifies_at_the_pure_power_point():
    spec = CaseSpec(3, 2, 2, 5, seed=5)
    record = verify_case(spec)
    assert record.verdict == VERIFIED and record.seeds_tried == (5,)
    assert record.method == "pure-power"
    family = pure_power_family(spec, 5)
    assert record.computed == quotient_series(family, record.trunc)
    for st in record.degree_stats:
        assert (st.rows, st.cols) == macaulay_shape(family, st.e)
        assert st.rank == st.cols - record.computed.coeffs[st.e]
    assert VerificationRecord.from_dict(record.to_dict(), spec) == record


# (2,35,2,2): md = 70 is past the truncation, 64, so no degree is eliminated
@pytest.mark.parametrize(
    "n, d, m, k", [(2, 3, 2, 2), (3, 2, 2, 3), (4, 1, 3, 2), (3, 2, 3, 1), (2, 35, 2, 2)])
def test_complete_intersections_certify_as_the_monomial_sieve(n, d, m, k):
    spec = CaseSpec(n, d, m, k)
    record = verify_case(spec)
    ideal = MonomialIdeal.from_generators(
        n, [tuple(m * d * (j == i) for j in range(n)) for i in range(k)])
    assert record.verdict == VERIFIED and record.seeds_tried == (0,)
    assert record.computed == quotient_hilbert_function(ideal, record.trunc)


def test_a_first_attempt_over_budget_falls_through_to_the_random_trials(monkeypatch):
    """(3,2,1,5) at the degenerate point does not terminate at degree 3,
    the conjectured series' first zero and so the point's stop: it misses
    there and never reaches degree 4, where its matrix (30x15) would be
    over a budget of 200 entries. The random trials stop at degree 3
    (15x10) and certify. Random trials at the degenerate point do not
    terminate at degree 3 either, meet the budget at degree 4 and raise."""
    monkeypatch.setattr(verifier, "pure_power_family", degenerate_family)
    record = verify_case(CaseSpec(3, 2, 1, 5), budget=200)
    assert record.verdict == VERIFIED and record.seeds_tried == (0,)
    assert record.method == "random"
    at_degenerate_points(monkeypatch)
    with pytest.raises(ResourceLimit, match="^degree-4 .* 30x15"):
        verify_case(CaseSpec(3, 2, 1, 5), budget=200)


def refuse_to_draw_or_eliminate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a form was drawn or a RowReducer built")

    for owner, name in ((modp, "RowReducer"), (FormFamily, "random"),
                        (verifier, "default_family")):
        monkeypatch.setattr(owner, name, refuse)


def test_no_random_family_is_built_after_a_limit_no_later_than_the_first_zero(monkeypatch):
    """(3,2,2,14) at a budget of 200 meets it at the pure-power point at
    degree 5, and its conjectured series has its first zero at degree 5:
    ResourceLimit is raised from the spec, with no random draw and no
    RowReducer built, and the trial's own limit (degree 4, 14x15) is
    never reached."""
    spec = CaseSpec(3, 2, 2, 14)
    conjectured = spec.conjectured
    assert conjectured.coeffs.index(0) == 5
    refuse_to_draw_or_eliminate(monkeypatch)
    with pytest.raises(ResourceLimit, match="^degree-5 Macaulay matrix has 33x12") as exc:
        verify_case(spec, budget=200)
    assert exc.value.degree == 5


# The six (8,2,2) cases over the default budget at the pure-power point:
# k -> (degree, rows, cols) at the first degree over it, through the
# conjectured first zero.
_OVER_BUDGET_822 = {
    10: (12, 7646, 8092), 11: (11, 7416, 7728), 12: (11, 9888, 7728),
    13: (10, 7140, 6728), 15: (10, 9996, 6728), 20: (9, 8736, 5328),
}


@pytest.mark.parametrize("k", sorted(_OVER_BUDGET_822))
def test_an_over_budget_case_is_decided_from_its_spec(monkeypatch, k):
    """Each (8,2,2) case over the default budget raises from its spec
    alone, before any form is drawn or any RowReducer built."""
    refuse_to_draw_or_eliminate(monkeypatch)
    e, rows, cols = _OVER_BUDGET_822[k]
    with pytest.raises(ResourceLimit) as exc:
        verify_case(CaseSpec(8, 2, 2, k))
    assert str(exc.value) == (
        f"degree-{e} Macaulay matrix has {rows}x{cols} = {rows * cols} entries, "
        "over budget 40000000"
    )
    assert exc.value.degree == e


def test_a_planted_miss_below_the_over_budget_degree_is_skipped(monkeypatch):
    """(3,2,2,14) at a budget of 200 with `degenerate_family` planted at
    the pure-power point, a point that misses at degree 4, below the
    spec's over-budget degree 5: the sweep skips the case with the
    spec's message, and no random trial runs."""
    monkeypatch.setattr(verifier, "pure_power_family", degenerate_family)
    refuse_to_draw_or_eliminate(monkeypatch)
    records, witnesses, failures, skipped = run_sweep(plan_sweep(3, 2, 2, 14, 14), budget=200)
    assert records == witnesses == failures == []
    assert [(spec.k, reason) for spec, reason in skipped] == [
        (14, "degree-5 Macaulay matrix has 33x12 = 396 entries, over budget 200")
    ]


# The pure-power point certifies (4,2,2,6) at the first seed; it fails on
# the four Alexander-Hirschowitz sporadic cases, which must end
# NotAttained after every random trial, also with assertions stripped.
_PURE_POWER_POINT = """
import sys
from genforms.verifier import CaseSpec, verify_case
assert False, "assertions must be off"
record = verify_case(CaseSpec(4, 2, 2, 6))
if (record.verdict, record.seeds_tried, record.method) != ("Verified", (0,), "pure-power"):
    sys.exit(f"(4,2,2,6): {record.verdict} after {record.seeds_tried}")
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


def test_a_missed_pure_power_point_stops_where_its_spec_check_did(monkeypatch):
    """(3,1,3,5), an Alexander-Hirschowitz case: its conjectured series
    1, 3, 6, 5, 0, 0 has its first zero at degree 4, the last degree the
    spec's budget check reaches. The pure-power point misses there, and
    its quotient_series call ends at degree 4, eliminating no degree
    above it; each random trial runs through the truncation, 5. The
    record does not depend on the point: NotAttained after seeds
    (0, 1, 2), with the last trial's series."""
    calls, eliminated = [], []
    real_series, real_dimension = verifier.quotient_series, macaulay.ideal_dimension_at_degree

    def series(family, max_deg, *args, **kwargs):
        calls.append(max_deg)
        eliminated.append([])
        return real_series(family, max_deg, *args, **kwargs)

    def dimension(family, e, *args, **kwargs):
        eliminated[-1].append(e)
        return real_dimension(family, e, *args, **kwargs)

    monkeypatch.setattr(verifier, "quotient_series", series)
    monkeypatch.setattr(macaulay, "ideal_dimension_at_degree", dimension)
    record = verify_case(CaseSpec(3, 1, 3, 5)).to_dict()
    assert calls == [4, 5, 5, 5]
    assert eliminated == [[3, 4]] + [[3, 4, 5]] * 3
    del record["millis"]
    assert record == {
        "n": 3, "d": 1, "m": 3, "k": 5, "prime": modp.DEFAULT_PRIME, "seed": 0, "trunc": 5,
        "conjectured": [1, 3, 6, 5, 0, 0], "computed": [1, 3, 6, 5, 1, 0],
        "verdict": NOT_ATTAINED,
        "ranks": [[0, 0, 1, 0], [1, 0, 3, 0], [2, 0, 6, 0], [3, 5, 10, 5],
                  [4, 15, 15, 14], [5, 30, 21, 21]],
        "seeds_tried": [0, 1, 2], "version": genforms.__version__, "method": "random",
    }


def test_case_spec_rejects_prime_above_2_31():
    with pytest.raises(ValueError, match="2\\^31"):
        CaseSpec(3, 2, 1, 4, prime=4294967311)


@pytest.mark.parametrize("k", (2, 3, 4, 5, 7), ids=lambda k: f"k={k}")
def test_case_spec_refuses_a_negative_seed_whatever_the_path(k):
    """A negative seed is refused when the case is built, as the CLI
    refuses it, whether the case would draw forms (k > n+1), settle by
    theorem (k = n+1) or stop at the pure powers alone (k <= n)."""
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        CaseSpec(3, 2, 2, k, seed=-1)


# Plants an over-reported rank, an ideal dimension above the row count, a
# seed basis narrower than the degree below, and a Verified verdict with
# computed != conjectured at a degenerate pure-power point (the real one
# of (3,2,1,2) attains); each must raise even with assertions stripped.
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
    macaulay.quotient_series(family, 4)
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

twice = macaulay.FormFamily(3, family.forms[:1] * 2, family.prime, 0)
verifier.pure_power_family = lambda spec, seed, draws: twice
verifier.lex_compare = lambda a, b: verifier.Ordering.EQUAL
try:
    verifier.verify_case(verifier.CaseSpec(3, 2, 1, 2, trials=1))
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


def test_no_assert_in_the_package():
    """`python -O` strips assert statements, so no check in the package may
    be one: every check raises an exception of its own."""
    package = Path(genforms.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Definitions that nothing in the package or its scripts references, and
# why they stay: argparse calls `_Parser.error`, and `corollary1_range`
# waits for a caller in the certifier (a ledger of what it proves).
UNREFERENCED = {"cli._Parser.error", "constructions.corollary1_range"}


def test_no_definition_only_tests_call():
    """Every top-level function and class of the package and of
    `scripts/`, and every method but the dunders, is referenced by some
    Name or Attribute there. The check goes by name: a definition whose
    name is also a used attribute slips through, as `modp.rank` did by
    sharing its name with `RowReducer.rank`. An exempt definition that
    gains a reference fails too, so no exemption outlives its reason."""
    package = Path(genforms.__file__).resolve().parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    referenced, defined = set(), {}
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, functions) and not (
                        method.name.startswith("__") and method.name.endswith("__")
                    ):
                        defined[f"{path.stem}.{node.name}.{method.name}"] = method.name
    assert {key for key, name in defined.items() if name not in referenced} == UNREFERENCED


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


def test_sweep_n3_script_smoke(monkeypatch, capsys):
    """The campaign script run as __main__, in process, on its three cells
    with d*m <= 6: it exits 0 and covers every k of each."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_n3.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--max-dm", "6"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    covered = re.findall(r"covered=\s*(\d+)/\s*(\d+)", capsys.readouterr().out)
    assert covered == [("15", "15"), ("28", "28"), ("28", "28")]
