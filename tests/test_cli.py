"""Tests for the command-line front end and its record cache."""

import json

import pytest

from genforms import modp
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


def test_verify_and_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "records.jsonl")
    code, out, _ = run(
        capsys, "--cache", cache, "verify", "--n", "3", "--d", "2", "--k", "4"
    )
    assert code == EXIT_OK
    first = json.loads(out)
    assert first["verdict"] == "Verified"
    assert first["cached"] is False
    assert first["rank_calls"] > 0

    # record written then read compares equal field-by-field
    stored = next(iter(load_cache(cache).values()))
    for key, value in stored.items():
        assert first[key] == value

    code, out, _ = run(
        capsys, "--cache", cache, "verify", "--n", "3", "--d", "2", "--k", "4"
    )
    assert code == EXIT_OK
    second = json.loads(out)
    assert second["cached"] is True
    assert second["rank_calls"] == 0
    assert second["computed"] == first["computed"]


VERIFY_342 = ("verify", "--n", "3", "--d", "2", "--k", "4")


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


def cached_record(tmp_path, capsys):
    """A cache holding the real record of (3, 2, 1, 4); returns its path
    and the record."""
    cache = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "--cache", str(cache), *VERIFY_342)
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


@pytest.mark.parametrize(
    "verdict, conjectured, computed",
    [
        ("Verified", [1, 3, 2, 0, 0], [1, 3, 3, 0, 0]),  # computed != conjectured
        ("Verified", [1, 3, 3, 0, 0], [1, 3, 3, 0, 0]),  # not this case's series
        ("NotAttained", [1, 3, 3, 0, 0], [1, 3, 4, 0, 0]),  # not this case's series
    ],
)
def test_inconsistent_cache_hit_is_recomputed(
    tmp_path, capsys, verdict, conjectured, computed
):
    cache, rec = cached_record(tmp_path, capsys)
    rec.update(
        verdict=verdict, conjectured=conjectured, computed=computed, seeds_tried=[0, 1, 2]
    )
    cache.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), *VERIFY_342)
    assert code == EXIT_OK
    out = json.loads(out)
    assert out["cached"] is False and out["rank_calls"] > 0
    assert out["computed"] == out["conjectured"] == [1, 3, 2, 0, 0]


def test_short_not_attained_hit_is_recomputed(tmp_path, capsys):
    cache, rec = cached_record(tmp_path, capsys)
    rec.update(verdict="NotAttained", computed=[1, 3, 3, 0, 0], seeds_tried=[0])
    cache.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "--cache", str(cache), "--trials", "1", *VERIFY_342)
    assert code == EXIT_NOT_ATTAINED
    assert json.loads(out)["cached"] is True
    code, out, _ = run(capsys, "--cache", str(cache), "--trials", "5", *VERIFY_342)
    assert code == EXIT_OK
    out = json.loads(out)
    assert out["cached"] is False and out["verdict"] == "Verified"


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


VERIFY_CI = ("verify", "--n", "4", "--d", "2", "--m", "2", "--k", "3")


def test_verify_complete_intersection_uses_the_sweep_truncation(capsys):
    # k <= n: checked up to the numerator degree k(md - 1) + 1 = 10, as a
    # sweep does, not up to the full cap
    code, out, _ = run(capsys, *VERIFY_CI)
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["trunc"] == 10 and rec["verdict"] == "Verified"


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
        # forms of degree 14: degrees 14..27, the series' first zero at 27
        (("--n", "3", "--d", "7", "--m", "2", "--k", "4"), 14),
        # forms of degree 4: degrees 4..10, the series' first zero at 10
        (("--n", "5", "--d", "2", "--m", "2", "--k", "6"), 7),
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
    # (k <= n in closed form, at the pure-power point), the rest
    # NotAttained and both intervals rejected
    code, _, err = run(capsys, "--prime", "2", "--trials", "1",
                       "sweep", "--n", "3", "--d", "2", "--m", "2", "--k-range", "1..15")
    assert code == EXIT_NOT_ATTAINED
    assert "3/9 direct cases verified, 0 intervals deduced, 2 rejected" in err
    assert "covered 3/15 values of k" in err


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
    record that did finish is still printed."""
    code, out, err = run(capsys, "--prime", "2", "--trials", "1", "--matrix-budget", "1000",
                         *SWEEP_322)
    assert code == EXIT_NOT_ATTAINED
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(rec["k"], rec["verdict"]) for rec in lines] == [
        (15, "NotAttained"), (4, "Skipped"), (5, "Skipped"), (6, "Skipped"),
        (7, "Skipped"), (14, "Skipped"),
    ]
    assert lines[2]["reason"] == (
        "degree-7 Macaulay matrix has 50x36 = 1800 entries, over budget 1000"
    )
    assert "0/1 direct cases verified, 0 intervals deduced, 0 rejected, 5 skipped" in err
    assert "covered 0/12 values of k" in err


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
def test_unusable_cache_path_exits_with_error(tmp_path, capsys, monkeypatch, where):
    """verify and sweep refuse the path before any elimination."""

    def no_elimination(*args, **kwargs):
        raise AssertionError("a RowReducer was constructed")

    monkeypatch.setattr(modp, "RowReducer", no_elimination)
    cache = tmp_path if where == "a directory" else tmp_path / "missing" / "c.jsonl"
    for argv in (VERIFY_342, SWEEP_322):
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
