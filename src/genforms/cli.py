"""Command-line front end.

Subcommands: series, verify, sweep, construct, search, table.
Verification records are emitted as JSON lines; an append-only cache file
lets repeated invocations skip the linear algebra entirely. `sweep` and
each cell of `table` share one runner, `sweep_cell`: plan the k range,
serve the cache hits, run the rest with `run_sweep` (the one place a
budget limit becomes a Skipped case) and append the computed records.

Exit codes: 0 all verdicts Verified, 2 a NotAttained verdict is present,
3 resource or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from . import __version__, modp
from .constructions import (
    BudgetExceeded,
    FrobergFamilyParams,
    HypothesisFailed,
    check_theorem1,
    exhaustive_monomial_search,
    froberg_monomial_ideal,
)
from .macaulay import ResourceLimit, SoundnessError
from .monomials import monomial_count, monomial_to_str
from .series import (
    DegreeList,
    TruncatedSeries,
    conjectured_series,
    format_series,
)
from . import verifier
from .verifier import (
    TABLE_CELLS,
    CaseSpec,
    plan_sweep,
    run_sweep,
    verify_case,
)

EXIT_OK = 0
EXIT_NOT_ATTAINED = 2
EXIT_ERROR = 3


@dataclass
class Config:
    prime: int = modp.DEFAULT_PRIME
    seed: int = 0
    trials: int = verifier.DEFAULT_TRIALS
    budget: int = verifier.DEFAULT_BUDGET
    cache_path: str | None = None

    def validate(self):
        if min(self.prime, self.trials, self.budget) < 1:
            raise ValueError("all configuration values must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not modp.is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        modp.check_modulus(self.prime)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def parse_degrees(text: str) -> tuple[tuple[int, int], ...]:
    """Degree list syntax: comma-separated entries, each "d" or "dxCOUNT",
    e.g. "2x5" or "2,3" or "14x26", as (degree, count) pairs in the order
    given, for `DegreeList(n, counts=...)`: "dxCOUNT" is one pair, however
    large COUNT is. ValueError for a negative COUNT."""
    counts = []
    for token in text.split(","):
        token = token.strip()
        if "x" in token:
            d, count = token.split("x")
            if int(count) < 0:
                raise ValueError(f"negative generator count in {token!r}")
            counts.append((int(d), int(count)))
        else:
            counts.append((int(token), 1))
    return tuple(counts)


def parse_range(text: str) -> tuple[int, int]:
    """k range syntax: "lo..hi" or a single value."""
    if ".." in text:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    k = int(text)
    return k, k


# ---------------------------------------------------------------- cache

_KEY_FIELDS = ("n", "d", "m", "k", "prime", "seed")


def _cache_key(case):
    """The key of a record or of a case, given as a dict of its fields:
    the case, (n, d, m, k, prime, seed)."""
    return tuple(case[f] for f in _KEY_FIELDS)


def _line_prefix(case) -> bytes:
    """The first bytes of every line `append_cache` writes for the case,
    given as a dict of its fields: a record's dict starts with the key
    fields, in `_cache_key`'s order, e.g.
    b'{"n": 3, "d": 7, "m": 2, "k": 5, "prime": 1048573, "seed": 0, '."""
    return json.dumps({f: case[f] for f in _KEY_FIELDS})[:-1].encode() + b", "


def load_cache(path, case=None):
    """Records by key, the last line for a key winning. A line that is not
    a record, such as the torn tail of an interrupted append or bytes that
    are not UTF-8, is skipped: its case is a miss and gets recomputed.

    Given a case (a dict of its fields, such as `vars(spec)`), only the
    lines that begin as `append_cache` writes that case's key
    (`_line_prefix`) are parsed, so `verify` parses its own lines and no
    other. A line of the case serialized some other way, with its keys
    in another order or other spacing, is then a miss too."""
    prefix = b"" if case is None else _line_prefix(case)
    cache = {}
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            for line in fh:
                if not line.startswith(prefix):
                    continue
                try:
                    rec = json.loads(line)
                    cache[_cache_key(rec)] = rec
                except (ValueError, KeyError, TypeError):
                    continue
    return cache


def append_cache(path, record_dict):
    """Append one JSON line. A torn last line is ended first, so the new
    record does not run into it."""
    if path:
        with open(path, "a+b") as fh:
            line = json.dumps(record_dict).encode() + b"\n"
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)


def check_appendable(path):
    """Open path for appending, creating it if missing: an unusable cache
    path (a directory, or in a missing directory) raises OSError, and so
    exits 3, before any case is computed rather than after."""
    if path:
        with open(path, "ab"):
            pass


def _cache_hit(cache, spec):
    """The cached record of spec, if `VerificationRecord.from_dict`
    accepts it for serving, else None."""
    try:
        rec = cache[_cache_key(vars(spec))]
        return verifier.VerificationRecord.from_dict(rec, spec)
    except (LookupError, TypeError, ValueError):
        return None  # a miss, not a whole record, or not servable: recomputed


# ------------------------------------------------------------- commands

def cmd_series(args, cfg):
    if args.deg:
        counts = parse_degrees(args.deg)
    elif args.d is not None and args.k is not None:
        if args.k < 0:
            raise ValueError(f"negative generator count --k {args.k}")
        counts = [(args.d * args.m, args.k)]
    else:
        print("error: provide --deg or both --d and --k", file=sys.stderr)
        return EXIT_ERROR
    series = conjectured_series(DegreeList(args.n, (), counts), args.trunc)
    print(format_series(series))
    print(json.dumps(list(series.coeffs)))
    return EXIT_OK


def cmd_verify(args, cfg):
    """Verify one case, or serve its record from --cache. --trunc is only
    a check: any value but the case's own truncation is refused before
    any work."""
    spec = CaseSpec(
        args.n, args.d, args.m, args.k, seed=cfg.seed, prime=cfg.prime, trials=cfg.trials,
    )
    if args.trunc is not None and args.trunc != spec.trunc:
        raise ValueError(
            f"--trunc {args.trunc} is not the truncation {spec.trunc} of this case"
        )
    hit = _cache_hit(load_cache(cfg.cache_path, vars(spec)), spec)
    modp.reset_telemetry()
    if hit is not None:
        out = hit.to_dict()
        out["cached"] = True
        out["rank_calls"] = modp.ELIMINATION_CALLS
        print(json.dumps(out))
        return EXIT_OK if hit.verdict == verifier.VERIFIED else EXIT_NOT_ATTAINED
    check_appendable(cfg.cache_path)
    record = verify_case(spec, budget=cfg.budget)
    out = record.to_dict()
    append_cache(cfg.cache_path, out)
    out["cached"] = False
    out["rank_calls"] = modp.ELIMINATION_CALLS
    print(json.dumps(out))
    return EXIT_OK if record.verdict == verifier.VERIFIED else EXIT_NOT_ATTAINED


def sweep_cell(n, d, m, lo, hi, cfg, cache):
    """The runner of `sweep` and of each `table` cell: plan k = lo..hi,
    serve the hits of cache (`load_cache` of --cache, loaded once per
    command), check that the cache can be appended to when a case needs
    computing, run the plan, append each computed record to the file and
    to cache, and print the summary line to stderr. Returns (served,
    records, witnesses, failures, skipped): the k served from the cache,
    then `run_sweep`'s."""
    plan = plan_sweep(n, d, m, lo, hi, seed=cfg.seed, prime=cfg.prime, trials=cfg.trials)
    served = {}
    for spec in plan.cases:
        hit = _cache_hit(cache, spec)
        if hit is not None:
            served[spec.k] = hit
    if len(served) < len(plan.cases):
        check_appendable(cfg.cache_path)
    records, witnesses, failures, skipped = run_sweep(plan, budget=cfg.budget, served=served)
    for rec in records:
        if rec.spec.k not in served:
            out = rec.to_dict()
            append_cache(cfg.cache_path, out)
            cache[_cache_key(out)] = out
    verdicts = [r.verdict for r in records]
    covered = verifier.certified_ks(records, witnesses)
    print(
        f"sweep n={n} d={d} m={m} k={lo}..{hi}: "
        f"{sum(v == verifier.VERIFIED for v in verdicts)}/{len(verdicts)} direct cases verified, "
        f"{len(witnesses)} intervals deduced, {len(failures)} rejected, "
        f"{len(skipped)} skipped; covered {len(covered)}/{hi - lo + 1} values of k",
        file=sys.stderr,
    )
    return served, records, witnesses, failures, skipped


def cmd_sweep(args, cfg):
    lo, hi = parse_range(args.k_range)
    served, records, witnesses, failures, skipped = sweep_cell(
        args.n, args.d, args.m, lo, hi, cfg, load_cache(cfg.cache_path)
    )
    for rec in records:
        out = rec.to_dict()
        if rec.spec.k in served:
            out["cached"] = True
        print(json.dumps(out))
    for w in witnesses:
        print(
            json.dumps({
                "interval": [w.k_low, w.k_high],
                "e_surj": w.e_surj,
                "e_ind": w.e_ind,
                "verdict": verifier.VERIFIED,
                "mode": "deduced",
            })
        )
    for (ilo, ihi), reason in failures:
        print(json.dumps({"interval": [ilo, ihi], "verdict": "Rejected", "reason": reason}))
    for spec, reason in skipped:
        print(json.dumps({"k": spec.k, "verdict": "Skipped", "reason": reason}))
    if any(r.verdict == verifier.NOT_ATTAINED for r in records):
        return EXIT_NOT_ATTAINED
    return EXIT_OK


def cmd_construct(args, cfg):
    params = FrobergFamilyParams(args.n, args.d, args.l)
    ideal = froberg_monomial_ideal(params)
    for g in ideal.generators:
        print(monomial_to_str(g))
    report = check_theorem1(ideal, args.n, args.d)
    print(
        f"r = {report.r}, threshold C(n+d, d+1) = {report.threshold} "
        f"(n*r = {args.n * report.r} >= {report.threshold})",
        file=sys.stderr,
    )
    print(format_series(report.predicted))
    return EXIT_OK


def cmd_search(args, cfg):
    if args.target:
        coeffs = tuple(int(c) for c in args.target.split(","))
        target = TruncatedSeries(coeffs, terminated=coeffs[-1] == 0)
    else:
        # For k <= n the target stops at degree k(d - 1) + 1, and the
        # search finds what it would find over more degrees. If two of
        # k >= 2 monomials share a variable, their lcm has degree at most
        # 2d - 1 <= k(d - 1) + 1, where the ideal has fewer monomials than
        # a complete intersection, whose first syzygies are in degree 2d:
        # the series already differ. Pairwise coprime monomials are a
        # regular sequence, so they match the target in every degree.
        target = conjectured_series(DegreeList(args.n, (), [(args.d, args.k)]))
    ideal = exhaustive_monomial_search(
        args.n, args.d, args.k, target,
        budget=args.search_budget, prune=not args.unpruned,
    )
    if ideal is None:
        print("none: no monomial ideal attains the target series")
        return EXIT_NOT_ATTAINED
    for g in ideal.generators:
        print(monomial_to_str(g))
    return EXIT_OK


def _table_row(cell, k, trunc, verdict, seconds="-", note=""):
    n, d, m = cell
    print(f"{n:>3} {d:>3} {m:>3} {k:>8} {trunc:>5}  {verdict:<15} {seconds:>7}{note}",
          flush=True)


def cmd_table(args, cfg):
    """Each cell of `TABLE_CELLS` run as a sweep: with --budget small only
    its top k, with --budget full every k. One row per direct record (its
    seconds are the record's, "cached" for a hit), then one per deduced or
    rejected interval and per skipped case."""
    worst = EXIT_OK
    cache = load_cache(cfg.cache_path)
    for cell in TABLE_CELLS:
        n, d, m = cell
        top = monomial_count(n, m * d)
        lo = top if args.budget == "small" else 1
        served, records, witnesses, failures, skipped = sweep_cell(
            n, d, m, lo, top, cfg, cache
        )
        if cell == TABLE_CELLS[0]:  # after the first cache check, so a bad path prints nothing
            print(f"{'n':>3} {'d':>3} {'m':>3} {'k':>8} {'trunc':>5}  {'verdict':<15} seconds")
        for rec in records:
            seconds = "cached" if rec.spec.k in served else f"{rec.millis / 1000:.2f}"
            _table_row(cell, rec.spec.k, rec.trunc, rec.verdict, seconds)
            if rec.verdict == verifier.NOT_ATTAINED:
                worst = EXIT_NOT_ATTAINED
        for w in witnesses:
            _table_row(cell, f"{w.k_low}..{w.k_high}", "-", "Deduced")
        for (ilo, ihi), reason in failures:
            _table_row(cell, f"{ilo}..{ihi}", "-", "Rejected", note=f"  {reason}")
        for spec, reason in skipped:
            _table_row(cell, spec.k, spec.trunc, "Skipped(budget)", note=f"  {reason}")
    return worst


# --------------------------------------------------------------- parser

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process, on the first `main`
    call, and reused by every later one. Its defaults of --prime,
    --trials and --matrix-budget are read from `modp.DEFAULT_PRIME`,
    `verifier.DEFAULT_TRIALS` and `verifier.DEFAULT_BUDGET` when it is
    built, so a later change of those names does not reach it. Each
    subcommand's `func` names its `cmd_*` function; `main` runs this
    module's binding of that name at call time. So a `cmd_*` replaced
    before the parser is built must keep its `__name__`, as a
    `functools.wraps` wrapper does."""
    parser = _Parser(prog="genforms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"genforms {__version__}")
    parser.add_argument("--prime", type=int, default=modp.DEFAULT_PRIME, help="prime modulus")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--trials", type=int, default=verifier.DEFAULT_TRIALS)
    parser.add_argument(
        "--matrix-budget", type=int, default=verifier.DEFAULT_BUDGET,
        help="max entries of the matrix eliminated per degree, after pure powers",
    )
    parser.add_argument("--cache", default=None, help="JSON-lines record cache path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a conjectured Hilbert series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", help='degree list, e.g. "2x5" or "2,3"')
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int)
    p.add_argument("--trunc", type=int)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="verify one case")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trunc", type=int, help="refuse the case unless this is its truncation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="plan and run a k range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k-range", required=True, help='e.g. "1..136"')
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("construct", help="the explicit monomial-ideal family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exhaustive monomial-ideal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", help='comma list, e.g. "1,4,5,0"')
    p.add_argument("--unpruned", action="store_true")
    p.add_argument("--search-budget", type=int, default=2_000_000)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="reproduce the verified-cases table")
    p.add_argument("--budget", choices=["small", "full"], default="small")
    p.set_defaults(func=cmd_table)

    return parser


def config_from_args(args) -> Config:
    cfg = Config(
        prime=args.prime, seed=args.seed, trials=args.trials,
        budget=args.matrix_budget, cache_path=args.cache,
    )
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    """Run one command line; returns its exit code. It may be called many
    times in one process: the parser is built on the first call and
    reused (`build_parser`), and the command is looked up in this module
    when it runs, so a `cmd_*` replaced after the first call is the one
    that runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return globals()[args.func.__name__](args, cfg)
    except (
        ResourceLimit, HypothesisFailed, SoundnessError, BudgetExceeded,
        ValueError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
