"""Tests for the command-line front end and its record cache."""

import json

import pytest

from genforms import cli, modp, verifier
from genforms.cli import (
    EXIT_ERROR,
    EXIT_NOT_ATTAINED,
    EXIT_OK,
    load_cache,
    main,
    parse_degrees,
    parse_range,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_degrees():
    assert parse_degrees("2x5") == (2,) * 5
    assert parse_degrees("2,3") == (2, 3)
    assert parse_degrees("14x26")[0] == 14 and len(parse_degrees("14x26")) == 26
    assert parse_degrees("2x2,5") == (2, 2, 5)


def test_parse_range():
    assert parse_range("1..136") == (1, 136)
    assert parse_range("7") == (7, 7)


def test_series_five_quadrics(capsys):
    code, out, _ = run(capsys, "series", "--n", "4", "--deg", "2x5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "1 + 4t + 5t^2"
    assert json.loads(lines[1]) == [1, 4, 5, 0, 0]


def test_series_26_degree14_forms_tail(capsys):
    _, out, _ = run(capsys, "series", "--n", "3", "--deg", "14x26")
    assert out.splitlines()[0].endswith("+ 94t^14 + 58t^15")


def test_series_mixed_degrees(capsys):
    _, out, _ = run(capsys, "series", "--n", "2", "--deg", "2,2", "--trunc", "3")
    assert out.splitlines()[0] == "1 + 2t + t^2"


def test_series_dmk_form(capsys):
    code, out, _ = run(capsys, "series", "--n", "3", "--d", "2", "--m", "1", "--k", "4")
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[1]) == [1, 3, 2, 0, 0]


@pytest.mark.parametrize("argv", [
    ("--d", "2", "--m", "0", "--k", "4"),
    ("--deg", "2x-1"),
    ("--d", "2", "--k", "-2", "--trunc", "3"),
], ids=["m-zero", "negative-count", "negative-k"])
def test_series_rejects_bad_generators(capsys, argv):
    code, out, err = run(capsys, "series", "--n", "3", *argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ")


# k = n+1, Verified by theorem, and k = n+2, which eliminates at its
# pure-power point
VERIFY_342 = ("verify", "--n", "3", "--d", "2", "--k", "4")
VERIFY_352 = ("verify", "--n", "3", "--d", "2", "--k", "5")


def test_verify_and_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "records.jsonl")
    code, out, _ = run(capsys, "--cache", cache, *VERIFY_352)
    assert code == EXIT_OK
    first = json.loads(out)
    assert first["verdict"] == "Verified"
    assert first["cached"] is False
    assert first["rank_calls"] > 0

    # record written then read compares equal field-by-field
    stored = next(iter(load_cache(cache).values()))
    for key, value in stored.items():
        assert first[key] == value

    code, out, _ = run(capsys, "--cache", cache, *VERIFY_352)
    assert code == EXIT_OK
    second = json.loads(out)
    assert second["cached"] is True
    assert second["rank_calls"] == 0
    assert second["computed"] == first["computed"]


def test_verify_n_plus_one_forms_by_theorem_at_the_default_budget(capsys):
    """(8,2,2) k=9, whose pure-power point meets the default budget at
    degree 13, is Verified by theorem with no elimination."""
    code, out, _ = run(capsys, "verify", "--n", "8", "--d", "2", "--m", "2", "--k", "9")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert (rec["verdict"], rec["method"], rec["rank_calls"]) == ("Verified", "theorem", 0)
    assert rec["seeds_tried"] == [] and rec["computed"] == rec["conjectured"]


def test_cache_line_of_another_prime_is_served_only_at_that_prime(tmp_path, capsys):
    """A line written under --prime 2147483647, the earlier default, is a
    miss for a default run and a hit when that prime is named again."""
    cache = str(tmp_path / "records.jsonl")
    old = ("--cache", cache, "--prime", "2147483647", *VERIFY_342)
    run(capsys, *old)
    code, out, _ = run(capsys, "--cache", cache, *VERIFY_342)
    fresh = json.loads(out)
    assert code == EXIT_OK and fresh["cached"] is False
    assert fresh["prime"] == modp.DEFAULT_PRIME == 1048573
    code, out, _ = run(capsys, *old)
    assert code == EXIT_OK and json.loads(out)["cached"] is True


def cached_record(tmp_path, capsys, verify=VERIFY_342):
    """A cache holding the real record of verify, (3, 2, 1, 4) by
    default; returns its path and the record."""
    cache = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "--cache", str(cache), *verify)
    assert code == EXIT_OK
    return cache, json.loads(cache.read_text())


def test_torn_cache_line_is_a_miss(tmp_path, capsys):
    cache, rec = cached_record(tmp_path, capsys)
    with open(cache, "a") as fh:
        fh.write('{"n": 3, "d": 2, "m"')  # an interrupted append
    argv = ("--cache", str(cache), "verify", "--n", "3", "--d", "2", "--k", "5")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["cached"] is False
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["cached"] is True
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_342)
    assert code == EXIT_OK
    served = json.loads(out)
    assert served["cached"] is True and served["rank_calls"] == 0
    assert served["computed"] == rec["computed"]


# (3,2,1) k=5 truncates at 4. The ranks a computed [1, 3, 2, 0, 0] implies
# there: rows 5 of 6 columns at degree 2, 15 of 10 at degree 3.
RANKS_13200 = [[0, 0, 1, 0], [1, 0, 3, 0], [2, 5, 6, 4], [3, 15, 10, 10]]


@pytest.mark.parametrize(
    "edit",
    [
        {"verdict": "NotAttained", "computed": [1, 3, 2], "ranks": RANKS_13200[:3]},
        {"verdict": "NotAttained", "computed": [1, 3, 2, 0, 0], "ranks": [[0, 0, 1, 0]]},
        {"trunc": 2},
        {"verdict": "NotAttained"},
        {"verdict": "NotAttained", "computed": [1, 3, 2, 0, 0], "ranks": RANKS_13200,
         "seeds_tried": ["a", "b", "c"]},
    ],
    ids=["computed-cut-short", "ranks-of-another-series", "stale-trunc",
         "not-attained-that-attained", "seeds-not-tried"],
)
def test_line_the_read_back_refuses_is_recomputed(tmp_path, capsys, edit):
    """Lines for (3,2,1) k=5, a Verified case of truncation 4, that the
    read-back refuses whatever their verdict, each recomputed: one whose
    computed series is cut short, or has another series' ranks, or a
    stale trunc; a NotAttained one that computed the conjectured series,
    which a point that misses never does; one of seeds it never tried."""
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    rec.update({"seeds_tried": [0, 1, 2], "method": "random", **edit})
    cache.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    assert code == EXIT_OK
    out = json.loads(out)
    assert (out["verdict"], out["cached"], out["trunc"]) == ("Verified", False, 4)


def test_cache_line_that_is_not_text_is_skipped(tmp_path, capsys):
    """A line of bytes that are not UTF-8 is skipped like a torn line:
    verify and sweep still serve the record on the line before it."""
    cache, rec = cached_record(tmp_path, capsys)
    with open(cache, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_342)
    assert code == EXIT_OK
    served = json.loads(out)
    assert served["cached"] is True and served["computed"] == rec["computed"]
    code, out, _ = run(capsys, "--cache", str(cache),
                       "sweep", "--n", "3", "--d", "2", "--k-range", "4..4")
    assert code == EXIT_OK
    (served,) = [json.loads(line) for line in out.splitlines()]
    assert served["cached"] is True and served["computed"] == rec["computed"]


@pytest.mark.parametrize(
    "verdict, conjectured, computed",
    [
        ("Verified", [1, 3, 1, 0, 0], [1, 3, 2, 0, 0]),  # computed != conjectured
        ("Verified", [1, 3, 2, 0, 0], [1, 3, 2, 0, 0]),  # not this case's series
        ("NotAttained", [1, 3, 2, 0, 0], [1, 3, 3, 0, 0]),  # not this case's series
    ],
)
def test_inconsistent_cache_hit_is_recomputed(
    tmp_path, capsys, verdict, conjectured, computed
):
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    rec.update(
        verdict=verdict, conjectured=conjectured, computed=computed, seeds_tried=[0, 1, 2]
    )
    cache.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    assert code == EXIT_OK
    out = json.loads(out)
    assert out["cached"] is False and out["rank_calls"] > 0
    assert out["computed"] == out["conjectured"] == [1, 3, 1, 0, 0]


def test_short_not_attained_hit_is_recomputed(tmp_path, capsys):
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    rec.update(verdict="NotAttained", computed=[1, 3, 2, 0, 0], seeds_tried=[0],
               method="random", ranks=RANKS_13200)
    cache.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), "--trials", "1", *VERIFY_352)
    assert code == EXIT_NOT_ATTAINED
    assert json.loads(out)["cached"] is True
    code, out, _ = run(capsys, "--cache", str(cache), "--trials", "5", *VERIFY_352)
    assert code == EXIT_OK
    out = json.loads(out)
    assert out["cached"] is False and out["verdict"] == "Verified"


def counted_json_loads(monkeypatch):
    """Every json.loads call's argument, in order, while the test runs."""
    parsed, real = [], json.loads

    def loads(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    return parsed


def test_verify_parses_only_the_lines_of_its_own_case(tmp_path, capsys, monkeypatch):
    """Among 2000 lines of other cases, each another seed of the same
    (n, d, m, k), `verify` parses the one line of its own case."""
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    others = "".join(json.dumps(dict(rec, seed=s)) + "\n" for s in range(1, 2001))
    cache.write_text(others + json.dumps(rec) + "\n")
    parsed = counted_json_loads(monkeypatch)
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    monkeypatch.undo()
    assert code == EXIT_OK and json.loads(out)["cached"] is True
    assert parsed == [(json.dumps(rec) + "\n").encode()]


def test_verify_serves_the_last_line_of_its_case_that_parses(tmp_path, capsys):
    """Of two lines of the case the later wins; a torn line or bytes that
    are not UTF-8 after it, each beginning as a line of the case does,
    are skipped."""
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    prefix = cli._line_prefix(rec)
    with open(cache, "ab") as fh:
        fh.write(json.dumps(dict(rec, millis=12345.0)).encode() + b"\n")
        fh.write(prefix + b'"trunc": 4, "conj\n')
        fh.write(prefix + b"\xff\xfe\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    served = json.loads(out)
    assert code == EXIT_OK and served["cached"] is True and served["millis"] == 12345.0


def test_verify_recomputes_a_line_of_its_case_serialized_another_way(tmp_path, capsys):
    """A record re-serialized with sorted keys does not begin as
    `append_cache` writes its case: it is a miss, and the recomputed
    record is appended as `append_cache` writes it, then served."""
    cache, rec = cached_record(tmp_path, capsys, VERIFY_352)
    cache.write_text(json.dumps(rec, sort_keys=True) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    assert code == EXIT_OK and json.loads(out)["cached"] is False
    lines = cache.read_bytes().splitlines()
    assert len(lines) == 2 and lines[1].startswith(cli._line_prefix(rec))
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_352)
    assert code == EXIT_OK and json.loads(out)["cached"] is True


def test_every_appended_line_begins_with_the_lookup_prefix_of_its_case(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    run(capsys, "--cache", str(cache), *SWEEP_322)
    run(capsys, "--cache", str(cache), "--seed", "7", *VERIFY_352)
    lines = cache.read_bytes().splitlines()
    assert len(lines) > 2
    for line in lines:
        assert line.startswith(cli._line_prefix(json.loads(line)))


def test_a_sweep_expands_each_conjectured_series_once(monkeypatch, capsys):
    """`sweep` of (3,7,2) k = 4..120 asks for the series of each k while
    planning, per direct case, per deduced k and per record written, and
    expands each once: 117 calls for 117 values of k."""
    calls, real = [], verifier.conjectured_series

    def counted(spec, trunc=None):
        calls.append((spec.n, spec.degrees[0], spec.k))
        return real(spec, trunc)

    verifier.case_series.cache_clear()
    monkeypatch.setattr(verifier, "conjectured_series", counted)
    code, _, _ = run(capsys, "sweep", "--n", "3", "--d", "7", "--m", "2", "--k-range", "4..120")
    monkeypatch.undo()
    verifier.case_series.cache_clear()
    assert code == EXIT_OK
    assert sorted(calls) == [(3, 14, k) for k in range(4, 121)]


def test_verify_exit_code_reflects_verdict(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--d", "2", "--k", "4")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "Verified"


def test_sweep_command(tmp_path, capsys):
    code, out, err = run(
        capsys, "--cache", str(tmp_path / "c.jsonl"),
        "sweep", "--n", "3", "--d", "2", "--k-range", "4..6",
    )
    assert code == EXIT_OK
    assert "intervals deduced" in err
    verdicts = [json.loads(line).get("verdict") for line in out.splitlines()]
    assert "Verified" in verdicts


SWEEP_322 = ("sweep", "--n", "3", "--d", "2", "--m", "2", "--k-range", "4..15")


def test_repeated_sweep_is_served_from_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    code, first, _ = run(capsys, "--cache", str(cache), *SWEEP_322)
    assert code == EXIT_OK
    lines = cache.read_text().splitlines()
    modp.reset_telemetry()
    code, second, _ = run(capsys, "--cache", str(cache), *SWEEP_322)
    assert code == EXIT_OK
    assert modp.ELIMINATION_CALLS == 0
    assert cache.read_text().splitlines() == lines
    first = [json.loads(line) for line in first.splitlines()]
    second = [json.loads(line) for line in second.splitlines()]
    assert [rec.pop("cached", None) for rec in second if "n" in rec] == [True] * len(lines)
    assert second == first
    assert any("interval" in line for line in second)


def test_sweep_cell_adds_the_records_it_computes_to_its_cache_map(capsys):
    cfg, cache = cli.Config(), {}
    served, records, *_ = cli.sweep_cell(3, 2, 2, 4, 15, cfg, cache)
    assert served == {}
    assert len(cache) == len(records)
    modp.reset_telemetry()
    served, again, *_ = cli.sweep_cell(3, 2, 2, 4, 15, cfg, cache)
    assert modp.ELIMINATION_CALLS == 0
    assert sorted(served) == sorted(r.spec.k for r in records)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in records]


VERIFY_CI = ("verify", "--n", "4", "--d", "2", "--m", "2", "--k", "3")


def test_verify_complete_intersection_uses_the_sweep_truncation(capsys):
    # k <= n: checked up to the numerator degree k(md - 1) + 1 = 10, as a
    # sweep does
    code, out, _ = run(capsys, *VERIFY_CI)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["trunc"] == 10 and rec["verdict"] == "Verified"


# (4,2,2) k=7: its truncation, one past the first zero at degree 7, is 8
VERIFY_4227 = ("verify", "--n", "4", "--d", "2", "--m", "2", "--k", "7")


@pytest.mark.parametrize("trunc", ["3", "9"])
def test_verify_refuses_a_truncation_other_than_the_cases_own(tmp_path, capsys, trunc):
    """--trunc is only a check: any other value exits 3 before any work,
    with no record printed and no cache line appended."""
    cache = tmp_path / "c.jsonl"
    run(capsys, "--cache", str(cache), *VERIFY_4227)
    lines = cache.read_text()
    modp.reset_telemetry()
    code, out, err = run(capsys, "--cache", str(cache), *VERIFY_4227, "--trunc", trunc)
    assert code == EXIT_ERROR
    assert out == "" and modp.ELIMINATION_CALLS == 0
    assert err == f"error: --trunc {trunc} is not the truncation 8 of this case\n"
    assert cache.read_text() == lines


def test_verify_serves_its_own_truncation_from_the_cache(tmp_path, capsys):
    """--trunc equal to the case's truncation, as a resumed run sends it,
    is a cache hit that prints the record a run with no --trunc wrote."""
    cache = str(tmp_path / "c.jsonl")
    code, out, _ = run(capsys, "--cache", cache, *VERIFY_4227)
    assert code == EXIT_OK
    first = json.loads(out)
    assert first["trunc"] == 8 and first["cached"] is False
    code, out, _ = run(capsys, "--cache", cache, *VERIFY_4227, "--trunc", "8")
    assert code == EXIT_OK
    second = json.loads(out)
    assert second.pop("cached") is True and second.pop("rank_calls") == 0
    assert second == {key: first[key] for key in second}
    assert len(second) == len(first) - 2


def test_cap_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cap", "10", "table"])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().out == ""


def test_verify_runs_a_case_deeper_than_64_degrees(capsys):
    """(3,2,20) k=4: forms of degree 40, first zero of the series at
    degree 79."""
    code, out, _ = run(capsys, "verify", "--n", "3", "--d", "2", "--m", "20", "--k", "4")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert (rec["verdict"], rec["trunc"]) == ("Verified", 80)
    assert rec["computed"][78:] == [40, 0, 0]


def test_verify_serves_a_complete_intersection_a_sweep_cached(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    code, _, _ = run(capsys, "--cache", cache,
                     "sweep", "--n", "4", "--d", "2", "--m", "2", "--k-range", "3..3")
    assert code == EXIT_OK
    code, out, _ = run(capsys, "--cache", cache, *VERIFY_CI)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["cached"] is True and rec["rank_calls"] == 0
    assert rec["trunc"] == 10


def test_sweep_recomputes_a_record_with_wrong_ranks(tmp_path, capsys):
    # a served endpoint's ranks feed the interval deduction, so a Verified
    # record whose ranks its series does not imply is a miss
    cache = tmp_path / "c.jsonl"
    run(capsys, "--cache", str(cache), *SWEEP_322)
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    ranks = [list(row) for row in records[-1]["ranks"]]
    records[-1]["ranks"][-1][3] -= 1
    cache.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code, out, _ = run(capsys, "--cache", str(cache), *SWEEP_322)
    assert code == EXIT_OK
    printed = [json.loads(line) for line in out.splitlines() if '"n"' in line]
    assert [rec.get("cached") for rec in printed] == [True] * (len(records) - 1) + [None]
    assert printed[-1]["ranks"] == ranks
    assert len(cache.read_text().splitlines()) == len(records) + 1


@pytest.mark.parametrize(
    "case, calls",
    [
        # k = n+2, as k = n+1 eliminates nothing: forms of degree 14,
        # degrees 14..24, the series' first zero at 24
        (("--n", "3", "--d", "7", "--m", "2", "--k", "5"), 11),
        # forms of degree 4: degrees 4..9, the series' first zero at 9
        (("--n", "5", "--d", "2", "--m", "2", "--k", "7"), 6),
    ],
)
def test_verify_eliminates_each_nonempty_degree_once_up_to_the_first_zero(
    capsys, case, calls
):
    code, out, _ = run(capsys, "--seed", "0", "verify", *case)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["verdict"] == "Verified"
    assert rec["rank_calls"] == calls
    nonempty = [e for e, rows, _, _ in rec["ranks"] if rows]
    assert nonempty == list(range(nonempty[0], nonempty[0] + calls))
    assert rec["computed"][nonempty[-1]] == 0 and 0 not in rec["computed"][: nonempty[-1]]


def test_sweep_counts_only_certified_k_as_covered(capsys):
    # at p = 2 with one trial most cases miss: k = 1, 2, 3 are Verified
    # (k <= n in closed form, at the pure-power point) and k = 4 by
    # theorem, which holds in characteristic 0 whatever the prime; the
    # rest are NotAttained and both intervals rejected
    code, _, err = run(capsys, "--prime", "2", "--trials", "1",
                       "sweep", "--n", "3", "--d", "2", "--m", "2", "--k-range", "1..15")
    assert code == EXIT_NOT_ATTAINED
    assert "4/9 direct cases verified, 0 intervals deduced, 2 rejected" in err
    assert "covered 4/15 values of k" in err


def test_sweep_plans_no_interval_with_an_endpoint_over_budget(capsys):
    # k=14 is skipped over budget, so 7..14 is not deduced, and 5..6 is
    # still deduced from its two endpoints
    code, out, err = run(capsys, "--matrix-budget", "200", *SWEEP_322)
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert [rec["k"] for rec in lines if rec.get("verdict") == "Skipped"] == [14]
    assert [rec["interval"] for rec in lines if "interval" in rec] == [[5, 6]]
    assert "5/5 direct cases verified, 1 intervals deduced, 0 rejected, 1 skipped" in err
    assert "covered 5/12 values of k" in err


def test_sweep_over_budget_prints_its_records_and_skips(capsys):
    """At p = 2 with one trial most pure-power points miss, and the random
    trial then meets the budget at a degree the pure-power point never
    reached: each such case is a Skipped line, not an exit 3, and the
    records that did finish are still printed, k = 4 Verified by theorem
    with no matrix."""
    code, out, err = run(capsys, "--prime", "2", "--trials", "1", "--matrix-budget", "1000",
                         *SWEEP_322)
    assert code == EXIT_NOT_ATTAINED
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(rec["k"], rec["verdict"]) for rec in lines] == [
        (4, "Verified"), (15, "NotAttained"), (5, "Skipped"), (6, "Skipped"),
        (7, "Skipped"), (14, "Skipped"),
    ]
    assert lines[2]["reason"] == (
        "degree-7 Macaulay matrix has 50x36 = 1800 entries, over budget 1000"
    )
    assert "1/2 direct cases verified, 0 intervals deduced, 0 rejected, 4 skipped" in err
    assert "covered 1/12 values of k" in err


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_unusable_cache_path_exits_with_error(tmp_path, capsys, monkeypatch, where):
    """verify, sweep and table refuse the path before any elimination."""

    def no_elimination(*args, **kwargs):
        raise AssertionError("a RowReducer was constructed")

    monkeypatch.setattr(modp, "RowReducer", no_elimination)
    cache = tmp_path if where == "a directory" else tmp_path / "missing" / "c.jsonl"
    for argv in (VERIFY_342, SWEEP_322, ("table",)):
        code, out, err = run(capsys, "--cache", str(cache), *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and str(cache) in err


def test_construct_command(capsys):
    code, out, err = run(capsys, "construct", "--n", "4", "--d", "2", "--l", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 11  # 10 generators + the series line
    assert lines[-1] == "1 + 4t"
    assert "r = 10" in err


def test_search_found_and_not_found(capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--d", "2", "--k", "2")
    assert code == EXIT_OK
    assert set(out.splitlines()) == {"x1^2", "x2^2"}
    code, out, _ = run(
        capsys, "search", "--n", "4", "--d", "2", "--k", "5", "--target", "1,4,5,0"
    )
    assert code == EXIT_NOT_ATTAINED
    assert out.startswith("none")


def test_search_finds_a_complete_intersection(capsys):
    """k <= n: the target stops at degree k(d - 1) + 1 = 4, and the
    first monomial ideal that matches it is three pure squares."""
    code, out, _ = run(capsys, "search", "--n", "4", "--d", "2", "--k", "3")
    assert code == EXIT_OK
    assert sorted(out.splitlines()) == ["x1^2", "x2^2", "x3^2"]


@pytest.mark.parametrize("flags", [(), ("--unpruned",)], ids=["pruned", "unpruned"])
def test_search_over_its_budget_exits_3(capsys, flags):
    code, out, err = run(
        capsys, "search", "--n", "4", "--d", "2", "--k", "6", "--search-budget", "10", *flags
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "exceed budget 10" in err


def test_table_small(capsys):
    code, out, _ = run(capsys, "table", "--budget", "small")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 7  # header + six table cells
    assert lines[0].split() == ["n", "d", "m", "k", "trunc", "verdict", "seconds"]
    assert all("Verified" in line for line in lines[1:])


def test_table_full_covers_every_k_of_each_cell(tmp_path, capsys, monkeypatch):
    loads = []

    def counted_load(path):
        loads.append(path)
        return load_cache(path)

    monkeypatch.setattr(cli, "load_cache", counted_load)
    cache = tmp_path / "c.jsonl"
    code, out, err = run(capsys, "--cache", str(cache), "table", "--budget", "full")
    assert code == EXIT_OK
    assert loads == [str(cache)]  # once per command, not once per cell
    assert "NotAttained" not in out and "Skipped" not in out and "Rejected" not in out
    summaries = err.splitlines()
    tops = [35, 84, 84, 70, 165, 220]
    assert len(summaries) == len(tops)
    for line, top in zip(summaries, tops):
        assert f"k=1..{top}:" in line
        assert line.endswith(f"0 rejected, 0 skipped; covered {top}/{top} values of k")


def test_repeated_table_is_served_from_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    code, first, _ = run(capsys, "--cache", str(cache), "table", "--budget", "small")
    assert code == EXIT_OK
    lines = cache.read_text().splitlines()
    assert len(lines) == 6
    modp.reset_telemetry()
    code, second, _ = run(capsys, "--cache", str(cache), "table", "--budget", "small")
    assert code == EXIT_OK
    assert modp.ELIMINATION_CALLS == 0
    assert cache.read_text().splitlines() == lines
    rows = second.splitlines()[1:]
    assert [row.split()[:6] for row in rows] == [row.split()[:6] for row in first.splitlines()[1:]]
    assert all(row.split()[6] == "cached" for row in rows)


def test_table_over_budget_prints_skipped_rows(capsys):
    code, out, err = run(capsys, "--matrix-budget", "1", "table")
    assert code == EXIT_OK
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    assert all(row.split()[5] == "Skipped(budget)" and "over budget 1" in row for row in rows)
    assert err.count("0/0 direct cases verified") == 6


def test_bad_prime_exits_with_error(capsys):
    code, _, err = run(capsys, "--prime", "15", "verify", "--n", "3", "--d", "2", "--k", "4")
    assert code == EXIT_ERROR
    assert "not prime" in err


def test_prime_above_2_31_exits_with_error(capsys):
    # prime, but outside the range where elimination mod p is exact
    code, out, err = run(capsys, "--prime", "4294967311", *VERIFY_342)
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: modulus 4294967311 is outside [2, 2^31)")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "2", "--k", "4"])  # missing --n
    assert exc.value.code == EXIT_ERROR


def test_workers_option_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--workers", "2", "sweep", "--n", "3", "--d", "2", "--k-range", "4..6"])
    assert exc.value.code == EXIT_ERROR
