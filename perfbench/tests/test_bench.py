"""Tests of the benchmark's own code: percentile rule, self time, checker.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import check_pass, highest_supported, percentile  # noqa: E402
from tracing import Tracer, install, layer_metrics, self_times  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def test_percentile_is_nearest_rank_with_count_beyond():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 90) == (90, 10)
    assert percentile([7.0], 90) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
])
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert highest_supported([float(i) for i in range(count)]) == expected


def span(i, name, parent, start, end, attrs=None):
    return [i, name, parent, start, end, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "verifier.case", None, 0.0, 10.0),
        span(1, "modp", 0, 2.0, 5.0),
        span(2, "macaulay.rows", 1, 3.0, 4.0),
        span(3, "series", 0, 6.0, 7.0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_modp_counts_come_from_the_row_blocks_inside_its_span():
    rows = {"key": [3, 2, 2], "shape": [1, 6]}
    spans = [
        # degree 2, two quadrics in 3 variables: fed both blocks, rank 2
        span(0, "modp", None, 0.0, 4.0, {"n": 3, "e": 2, "degrees": [2, 2], "rank": 2}),
        span(1, "macaulay.rows", 0, 1.0, 2.0, rows),
        span(2, "macaulay.rows", 0, 2.0, 2.5, rows),
        # degree 3 exits after the first block of 3 rows, out of 6
        span(3, "modp", None, 5.0, 6.0, {"n": 3, "e": 3, "degrees": [2, 2], "rank": 3}),
        span(4, "macaulay.rows", 3, 5.0, 5.5, {"key": [3, 2, 3], "shape": [3, 10]}),
    ]
    m = layer_metrics(spans)
    assert m["modp.busy_s"] == pytest.approx(2.5 + 0.5)
    assert m["modp.max_degree_s"] == pytest.approx(2.5)
    assert (m["modp.degrees"], m["modp.rows_fed"], m["modp.rank"]) == (2, 5, 5)
    assert m["modp.entries"] == 6 + 6 + 30
    assert m["modp.early_exits"] == 1
    assert m["macaulay.rows.calls"] == 3
    assert m["macaulay.rows.cold_s"] == pytest.approx(1.0 + 0.5)


def test_traced_case_wraps_names_where_callers_look_them_up():
    sys.path.insert(0, str(HERE.parent / "src"))
    from genforms import macaulay, verifier

    tracer = Tracer()
    restore = install(tracer)
    try:
        rec = verifier.verify_case(verifier.CaseSpec(3, 2, 2, 4))
    finally:
        restore()
    assert verifier.power is macaulay.power
    m = layer_metrics(tracer.spans)
    assert m["verifier.case.calls"] == 1
    assert m["modp.rank"] == sum(st.rank for st in rec.degree_stats if st.rows)
    # FormFamily.random once, power once per form
    assert m["macaulay.forms.calls"] == 1 + 4
    assert m["monomials.calls"] > 0 and m["series.calls"] == 3


def passing_output(workload):
    """A pass output that the golden data accepts, built from the golden data."""
    out = {"cases": [], "sweeps": [], "resume": []}
    records = []
    for n, d, m, k in workloads.CASES[workload]:
        want = GOLDEN["records"][workloads.case_key(n, d, m, k)]
        rec = dict(n=n, d=d, m=m, k=k, verdict="Verified",
                   computed=want["conjectured"], **copy.deepcopy(want))
        records.append(rec)
        out["cases"].append({"case": [n, d, m, k], "record": rec})
    for rec in records:
        hit = dict(rec, cached=True, rank_calls=0)
        out["resume"].append({"argv": workloads.resume_argv(0, "c.jsonl", rec),
                              "rc": 0, "stdout": json.dumps(hit) + "\n"})
    return out


def test_golden_output_passes():
    attempted, problems = check_pass("ci-deep", passing_output("ci-deep"), GOLDEN)
    assert problems == []
    assert attempted == 2 * len(workloads.CI_DEEP)


def test_planted_rank_plus_one_is_a_failed_operation():
    out = passing_output("ci-deep")
    out["cases"][4]["record"]["ranks"][-2][3] += 1
    attempted, problems = check_pass("ci-deep", out, GOLDEN)
    assert len(problems) == 1 and "ranks" in problems[0]
    assert len(problems) / attempted > 0


def test_planted_cache_miss_is_a_failed_operation():
    out = passing_output("wide-forms")
    entry = out["resume"][-1]  # the resume pass's call for the last case
    entry["stdout"] = entry["stdout"].replace('"cached": true', '"cached": false')
    attempted, problems = check_pass("wide-forms", out, GOLDEN)
    assert problems == [f"resume {workloads.case_key(*workloads.WIDE_FORMS[-1])}: not a cache hit"]
    assert len(problems) / attempted > 0


def test_missing_and_crashed_work_counts_as_failed():
    out = passing_output("ci-deep")
    out["cases"][0] = {"case": list(workloads.CI_DEEP[0]), "error": "RuntimeError()"}
    del out["resume"][-1]
    attempted, problems = check_pass("ci-deep", out, GOLDEN)
    assert len(problems) == 2
    empty = {"cases": [], "sweeps": [], "resume": []}
    for workload in workloads.WORKLOADS:
        attempted, problems = check_pass(workload, empty, GOLDEN)
        assert attempted == len(problems) > 0


def test_rejected_interval_fails_the_sweep_check():
    argv = workloads.SWEEPS[0]
    want = GOLDEN["sweeps"][workloads.sweep_key(argv)]
    lines = []
    for k in want["ks"]:
        rec = dict(GOLDEN["records"][workloads.case_key(3, 7, 2, k)])
        lines.append(dict(n=3, d=7, m=2, k=k, verdict="Verified", computed=rec["conjectured"], **rec))
    lines += [{"interval": [lo, hi], "e_surj": s, "e_ind": i, "verdict": "Verified",
               "mode": "deduced"} for lo, hi, s, i in want["intervals"]]
    lines[-1] = {"interval": lines[-1]["interval"], "verdict": "Rejected", "reason": "x"}
    out = {"cases": [], "resume": [], "sweeps": [{
        "argv": list(argv), "rc": 0, "stdout": "\n".join(map(json.dumps, lines)),
        "stderr": f"covered {want['covered']} values of k\n"}]}
    _, problems = check_pass("sweep-n3", out, GOLDEN)
    assert [p for p in problems if "resume" not in p and "sweep not run" not in p] == [
        f"{workloads.sweep_key(argv)}: interval {lo}..{hi} is {lines[-1]}"
        for lo, hi, *_ in want["intervals"][-1:]
    ]
