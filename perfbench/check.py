"""Output checks against golden data, and the percentile rule.

Every operation of a pass (one verify_case, one sweep, one deduced
interval, one cached resume call) is checked; each check that fails is
one failed operation. For a Verified case the checked values do not
depend on the random draw (rank = cols - coefficient), so one golden file
serves every workload seed.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import workloads

COVERED = re.compile(r"covered (\d+/\d+) values of k")


def record_problem(rec, golden, key=None) -> str | None:
    """Why a record is wrong, or None. key, when given, is the case that
    was asked for. rank_calls is deliberately not checked: it counts calls,
    not results."""
    got = workloads.case_key(rec.get("n"), rec.get("d"), rec.get("m"), rec.get("k"))
    if key is not None and got != key:
        return f"{key}: answered with the record of {got}"
    want = golden["records"].get(got)
    if want is None:
        return f"{got}: no golden record"
    if rec.get("verdict") != "Verified":
        return f"{got}: verdict {rec.get('verdict')}"
    if rec.get("computed") != rec.get("conjectured"):
        return f"{got}: computed series differs from conjectured"
    for field, value in checked_fields(rec).items():
        if value != want[field]:
            return f"{got}: {field} differs from golden"
    return None


def checked_fields(rec) -> dict:
    """The seed-independent fields of a record that golden.json holds; each
    per-degree entry is cut to [e, rows, cols, rank], so that a record
    gaining per-degree fields still checks."""
    return {"trunc": rec.get("trunc"), "conjectured": rec.get("conjectured"),
            "ranks": [row[:4] for row in rec.get("ranks") or []]}


def _json_lines(text):
    """Parsed JSON lines of a command's stdout, or None if one is not JSON."""
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return None


def _check_sweep(out, want, golden, problems) -> int:
    """Checks one `genforms sweep`; returns the operations it covered."""
    attempted = 1 + len(want["ks"]) + len(want["intervals"])
    name = workloads.sweep_key(out["argv"])
    lines = _json_lines(out.get("stdout", "")) if "error" not in out else None
    if lines is None:
        problems.extend([f"{name}: {out.get('error', 'output is not JSON lines')}"] * attempted)
        return attempted
    covered = COVERED.search(out.get("stderr", ""))
    if out["rc"] != 0:
        problems.append(f"{name}: exit code {out['rc']}")
    elif covered is None or covered.group(1) != want["covered"]:
        problems.append(f"{name}: coverage {covered and covered.group(1)}, want {want['covered']}")
    records = {rec["k"]: rec for rec in lines if "n" in rec}
    intervals = {tuple(x["interval"]): x for x in lines if "interval" in x}
    for k in want["ks"]:
        if k not in records:
            problems.append(f"{name}: no record for k={k}")
        elif (p := record_problem(records.pop(k), golden)) is not None:
            problems.append(p)
    for lo, hi, e_surj, e_ind in want["intervals"]:
        got = intervals.pop((lo, hi), None)
        if got is None or (got.get("verdict"), got.get("mode"), got.get("e_surj"),
                           got.get("e_ind")) != ("Verified", "deduced", e_surj, e_ind):
            problems.append(f"{name}: interval {lo}..{hi} is {got}")
    # anything left over (including Rejected and Skipped lines) is a failure
    extra = list(records.values()) + list(intervals.values())
    extra += [x for x in lines if "n" not in x and "interval" not in x]
    problems.extend(f"{name}: unexpected line {x}" for x in extra)
    return attempted + len(extra)


def _requested_key(argv) -> str:
    opts = argv[argv.index("verify") + 1:]
    opts = dict(zip(opts[::2], opts[1::2]))
    return workloads.case_key(*(int(opts[f"--{v}"]) for v in "ndmk"))


def _check_resume(outputs, keys, golden, problems) -> int:
    """Checks the resume pass: every call a hit with the golden record."""
    pending = Counter(keys)
    for out in outputs:
        key = _requested_key(out["argv"])
        if pending[key] == 0:
            problems.append(f"resume {key}: unexpected call")
            continue
        pending[key] -= 1
        lines = _json_lines(out.get("stdout", "")) if "error" not in out else None
        if not lines or len(lines) != 1:
            problems.append(f"resume {key}: {out.get('error', 'no single JSON line')}")
        elif out["rc"] != 0:
            problems.append(f"resume {key}: exit code {out['rc']}")
        elif lines[0].get("cached") is not True:
            problems.append(f"resume {key}: not a cache hit")
        elif (p := record_problem(lines[0], golden, key)) is not None:
            problems.append(f"resume: {p}")
    missing = sum(pending.values())
    problems.extend(f"resume {key}: not run" for key in pending.elements())
    return len(outputs) + missing


def check_pass(workload, out, golden) -> tuple[int, list]:
    """(operations attempted, one problem string per failed operation)."""
    problems = []
    if workload == "sweep-n3":
        attempted, keys = 0, []
        by_argv = {workloads.sweep_key(s["argv"]): s for s in out["sweeps"]}
        for argv in workloads.SWEEPS:
            name = workloads.sweep_key(argv)
            want = golden["sweeps"][name]
            _, n, _, d, _, m = argv[1:7]
            keys += [workloads.case_key(n, d, m, k) for k in want["ks"]]
            got = by_argv.get(name, {"argv": argv, "error": "sweep not run"})
            attempted += _check_sweep(got, want, golden, problems)
    else:
        keys = [workloads.case_key(*case) for case in workloads.CASES[workload]]
        got = {workloads.case_key(*c["case"]): c for c in out["cases"]}
        attempted = len(keys)
        for key in keys:
            case = got.get(key, {"error": "not run"})
            if "error" in case:
                problems.append(f"{key}: {case['error']}")
            elif (p := record_problem(case["record"], golden, key)) is not None:
                problems.append(p)
    attempted += _check_resume(out["resume"], keys, golden, problems)
    return attempted, problems


def percentile(samples, q) -> tuple[float, int]:
    """Nearest-rank q-th percentile, and how many samples lie beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def highest_supported(samples, ladder=(50, 90, 99, 99.9)):
    """The highest percentile in ladder with at least ten samples beyond it,
    or None: a tail estimate needs ten samples past it."""
    best = None
    for q in ladder:
        if samples and percentile(samples, q)[1] >= 10:
            best = q
    return best
