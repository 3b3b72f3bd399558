"""Command-line front end.

Subcommands: series, verify, sweep, construct, search, table.
Verification records are emitted as JSON lines; an append-only cache file
lets repeated invocations skip the linear algebra entirely.

Exit codes: 0 all verdicts Verified, 2 a NotAttained verdict is present,
3 resource or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
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
    DEFAULT_CAP,
    CapExceeded,
    DegreeList,
    TruncatedSeries,
    conjectured_series,
    default_truncation,
    format_series,
)
from . import verifier
from .verifier import (
    STRETCH_CELLS,
    TABLE_CELLS,
    CaseSpec,
    plan_sweep,
    run_sweep,
    suite_k_values,
    verify_case,
)

EXIT_OK = 0
EXIT_NOT_ATTAINED = 2
EXIT_ERROR = 3


@dataclass
class Config:
    prime: int = modp.DEFAULT_PRIME
    seed: int = 0
    cap: int = DEFAULT_CAP
    trials: int = verifier.DEFAULT_TRIALS
    budget: int = verifier.DEFAULT_BUDGET
    cache_path: str | None = None

    def validate(self):
        if min(self.prime, self.cap, self.trials, self.budget) < 1:
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


def parse_degrees(text: str) -> tuple[int, ...]:
    """Degree list syntax: comma-separated entries, each "d" or "dxCOUNT",
    e.g. "2x5" or "2,3" or "14x26". ValueError for a negative COUNT."""
    degrees = []
    for token in text.split(","):
        token = token.strip()
        if "x" in token:
            d, count = token.split("x")
            if int(count) < 0:
                raise ValueError(f"negative generator count in {token!r}")
            degrees.extend([int(d)] * int(count))
        else:
            degrees.append(int(token))
    return tuple(degrees)


def parse_range(text: str) -> tuple[int, int]:
    """k range syntax: "lo..hi" or a single value."""
    if ".." in text:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    k = int(text)
    return k, k


# ---------------------------------------------------------------- cache

_KEY_FIELDS = ("n", "d", "m", "k", "prime", "seed", "trunc")


def _cache_key(n, d, m, k, prime, seed, trunc):
    return (n, d, m, k, prime, seed, trunc)


def load_cache(path):
    """Records by key, the last line for a key winning. A line that is not
    a record, such as the torn tail of an interrupted append, is skipped:
    its case is a miss and gets recomputed."""
    cache = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    cache[_cache_key(*(rec[f] for f in _KEY_FIELDS))] = rec
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


def _cache_hit(cache, spec, trunc):
    """The cached record of spec at this truncation, if
    `VerificationRecord.from_dict` accepts it for serving, else None."""
    key = _cache_key(spec.n, spec.d, spec.m, spec.k, spec.prime, spec.seed, trunc)
    try:
        return verifier.VerificationRecord.from_dict(cache[key], spec)
    except (LookupError, TypeError, ValueError):
        return None  # a miss, not a whole record, or not servable: recomputed


# ------------------------------------------------------------- commands

def cmd_series(args, cfg):
    if args.deg:
        degrees = parse_degrees(args.deg)
    elif args.d is not None and args.k is not None:
        if args.k < 0:
            raise ValueError(f"negative generator count --k {args.k}")
        degrees = (args.d * args.m,) * args.k
    else:
        print("error: provide --deg or both --d and --k", file=sys.stderr)
        return EXIT_ERROR
    spec = DegreeList(args.n, degrees)
    trunc = args.trunc if args.trunc is not None else default_truncation(spec, cfg.cap)
    series = conjectured_series(spec, trunc)
    print(format_series(series))
    print(json.dumps(list(series.coeffs)))
    return EXIT_OK


def cmd_verify(args, cfg):
    spec = CaseSpec(
        args.n, args.d, args.m, args.k,
        trunc=args.trunc, seed=cfg.seed, prime=cfg.prime, trials=cfg.trials,
    )
    trunc = verifier.resolve_truncation(spec, cfg.cap)
    hit = _cache_hit(load_cache(cfg.cache_path), spec, trunc)
    modp.reset_telemetry()
    if hit is not None:
        out = hit.to_dict()
        out["cached"] = True
        out["rank_calls"] = modp.ELIMINATION_CALLS
        print(json.dumps(out))
        return EXIT_OK if hit.verdict == verifier.VERIFIED else EXIT_NOT_ATTAINED
    check_appendable(cfg.cache_path)
    record = verify_case(spec, cap=cfg.cap, budget=cfg.budget)
    out = record.to_dict()
    append_cache(cfg.cache_path, out)
    out["cached"] = False
    out["rank_calls"] = modp.ELIMINATION_CALLS
    print(json.dumps(out))
    return EXIT_OK if record.verdict == verifier.VERIFIED else EXIT_NOT_ATTAINED


def cmd_sweep(args, cfg):
    lo, hi = parse_range(args.k_range)
    plan = plan_sweep(
        args.n, args.d, args.m, lo, hi,
        seed=cfg.seed, prime=cfg.prime, trials=cfg.trials, cap=cfg.cap,
    )
    cache = load_cache(cfg.cache_path)
    served = {}
    for spec in plan.cases:
        hit = _cache_hit(cache, spec, spec.trunc)
        if hit is not None:
            served[spec.k] = hit
    if len(served) < len(plan.cases):
        check_appendable(cfg.cache_path)
    records, witnesses, failures, skipped = run_sweep(
        plan, cap=cfg.cap, budget=cfg.budget, served=served
    )
    for rec in records:
        out = rec.to_dict()
        if rec.spec.k in served:
            out["cached"] = True
        else:
            append_cache(cfg.cache_path, out)
        print(json.dumps(out))
    for w in witnesses:
        print(
            json.dumps({
                "interval": [w.k_low, w.k_high],
                "e_surj": w.e_surj,
                "e_ind": w.e_ind,
                "verdict": w.verdict,
                "mode": "deduced",
            })
        )
    for (ilo, ihi), reason in failures:
        print(json.dumps({"interval": [ilo, ihi], "verdict": "Rejected", "reason": reason}))
    for spec, reason in skipped:
        print(json.dumps({"k": spec.k, "verdict": "Skipped", "reason": reason}))

    verdicts = [r.verdict for r in records]
    covered = verifier.certified_ks(records, witnesses)
    print(
        f"sweep n={args.n} d={args.d} m={args.m} k={lo}..{hi}: "
        f"{sum(v == verifier.VERIFIED for v in verdicts)}/{len(verdicts)} direct cases verified, "
        f"{len(witnesses)} intervals deduced, {len(failures)} rejected, "
        f"{len(skipped)} skipped; covered {len(covered)}/{hi - lo + 1} values of k",
        file=sys.stderr,
    )
    if any(v == verifier.NOT_ATTAINED for v in verdicts):
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
        f"(n*r = {args.n * report.r} >= {report.threshold}: {report.threshold_holds})",
        file=sys.stderr,
    )
    print(format_series(report.predicted))
    return EXIT_OK


def cmd_search(args, cfg):
    if args.target:
        coeffs = tuple(int(c) for c in args.target.split(","))
        target = TruncatedSeries(coeffs, terminated=coeffs[-1] == 0)
    else:
        spec = DegreeList(args.n, (args.d,) * args.k)
        target = conjectured_series(spec, default_truncation(spec, cfg.cap))
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


def cmd_table(args, cfg):
    worst = EXIT_OK
    print(f"{'n':>3} {'d':>3} {'m':>3} {'k':>5} {'trunc':>5}  {'verdict':<15} seconds")
    for n, d, m in TABLE_CELLS + STRETCH_CELLS:
        if args.budget == "small":
            ks = [monomial_count(n, m * d)]
        else:
            ks = suite_k_values(n, d, m, cfg.cap)
        for k in ks:
            spec = CaseSpec(n, d, m, k, seed=cfg.seed, prime=cfg.prime, trials=cfg.trials)
            start = time.perf_counter()
            try:
                rec = verify_case(spec, cap=cfg.cap, budget=cfg.budget)
                verdict, trunc = rec.verdict, rec.trunc
            except ResourceLimit:
                verdict, trunc = "Skipped(budget)", "-"
            seconds = time.perf_counter() - start
            print(f"{n:>3} {d:>3} {m:>3} {k:>5} {trunc:>5}  {verdict:<15} {seconds:7.2f}",
                  flush=True)
            if verdict == verifier.NOT_ATTAINED:
                worst = max(worst, EXIT_NOT_ATTAINED)
    return worst


# --------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="genforms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"genforms {__version__}")
    parser.add_argument("--prime", type=int, default=modp.DEFAULT_PRIME, help="prime modulus")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="truncation cap")
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
    p.add_argument("--trunc", type=int)
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
        prime=args.prime, seed=args.seed, cap=args.cap, trials=args.trials,
        budget=args.matrix_budget, cache_path=args.cache,
    )
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return args.func(args, cfg)
    except (
        ResourceLimit, CapExceeded, HypothesisFailed, SoundnessError, BudgetExceeded,
        ValueError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
