"""One pass of one workload, in a fresh process.

Run by run.py, never imported by it: each pass starts with cold
`lru_cache`s, as every user invocation of genforms does. The pass drives
only `verifier.verify_case` and `cli.main`. Its outputs, timings and (with
--trace 1) per-layer metrics go to stdout as one JSON line.

    python3 perfbench/worker.py --workload ci-deep --seed 0 --spawned-at T
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from genforms import cli, verifier  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(ROOT):
    raise SystemExit(f"genforms imported from {cli.__file__}, outside {ROOT}")


def _cli(argv):
    """cli.main with its output captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _resume(records, seed, cache_path, result):
    """A cached `genforms verify` for each record, in order."""
    for rec in records:
        argv = workloads.resume_argv(seed, cache_path, rec)
        start = time.perf_counter()
        try:
            rc, out, _ = _cli(argv)
        except Exception as exc:  # a failed operation, reported not raised
            result["resume"].append({"argv": argv, "error": repr(exc)})
            continue
        result["hit_ms"].append((time.perf_counter() - start) * 1000.0)
        result["resume"].append({"argv": argv, "rc": rc, "stdout": out})


def setup(workload, seed):
    """Inputs of one pass: CaseSpecs, or CLI argument lists."""
    if workload == "sweep-n3":
        return [list(argv) for argv in workloads.SWEEPS]
    return [verifier.CaseSpec(n, d, m, k, seed=seed) for n, d, m, k in workloads.CASES[workload]]


def _sweep(argv, seed, cache_path, result) -> list:
    """One `genforms sweep`; returns the records it printed."""
    records = []
    try:
        rc, out, err = _cli(["--seed", str(seed), "--cache", cache_path] + argv)
    except Exception as exc:
        result["sweeps"].append({"argv": argv, "error": repr(exc)})
        return records
    result["sweeps"].append({"argv": argv, "rc": rc, "stdout": out, "stderr": err})
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # the output check reports it
        if "n" in rec:
            records.append(rec)
            result["case_s"].append(rec["millis"] / 1000.0)
    return records


def _case(spec, seed, cache_path, result) -> list:
    """One verify_case, its record stored in the cache as the CLI would."""
    case = [spec.n, spec.d, spec.m, spec.k]
    start = time.perf_counter()
    try:
        rec = verifier.verify_case(spec).to_dict()
    except Exception as exc:
        result["cases"].append({"case": case, "error": repr(exc)})
        return []
    result["case_s"].append(time.perf_counter() - start)
    cli.append_cache(cache_path, rec)
    result["cases"].append({"case": case, "record": rec})
    return [rec]


def run_pass(workload, seed, inputs, cache_path) -> dict:
    """One pass: every operation (a verify_case, or a sweep), then the resume
    pass, one cached call per record. verify_case and cli.main are looked up
    at call time, so installed trace wrappers apply."""
    result = {"cases": [], "sweeps": [], "resume": [], "case_s": [], "hit_ms": []}
    operation = _sweep if workload == "sweep-n3" else _case
    records = []
    start = time.perf_counter()
    for item in inputs:
        records += operation(item, seed, cache_path, result)
    _resume(records, seed, cache_path, result)
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the trace's spans to this file")
    args = parser.parse_args(argv)

    inputs = setup(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        install(tracer)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        result = run_pass(args.workload, args.seed, inputs, os.path.join(tmp, "cache.jsonl"))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["id", "name", "parent", "start", "end", "attrs"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
