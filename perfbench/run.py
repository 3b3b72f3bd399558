"""genforms certifier benchmark.

    python3 perfbench/run.py --workload ci-deep --seed 0 --seconds 50 --trace 0

Runs as many passes of one workload as fit in --seconds (at least one),
each in a fresh worker process, checks every output against
perfbench/golden.json and prints a report line, then the result line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 untraced and
traced passes alternate and the metrics are its per-layer ones, taken from
the traced passes. Reports and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import check_pass, highest_supported, percentile  # noqa: E402

SETUP_SAMPLES = 5       # setup-only processes per run, besides the passes
TIME_LIMIT_S = 165.0    # the whole run, set-up samples included, stays below this


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, trace, deadline, *extra):
    """One worker process; returns its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *extra,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerFailed(f"worker printed no result: {proc.stdout[-500:]!r}")


def environment(seed) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    config = blas.get("openblas configuration", "")
    max_threads = next((int(tok.split("=")[1]) for tok in config.split()
                        if tok.startswith("MAX_THREADS=")), None)
    nproc = len(os.sched_getaffinity(0))
    thread_env = {v: os.environ[v] for v in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                  if v in os.environ}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": config, "thread_env": thread_env,
                 # OpenBLAS starts min(nproc, MAX_THREADS) threads unless an
                 # environment variable above says otherwise
                 "default_threads": min(nproc, max_threads or nproc)},
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pass_percentile(passes, field, q):
    """Median over passes of each pass's nearest-rank q-th percentile, and
    the percentile rule's counts for the pass with the fewest samples."""
    values = [percentile(p[field], q)[0] for p in passes]
    fewest = min((p[field] for p in passes), key=len)
    beyond = percentile(fewest, q)[1]
    return statistics.median(values), {
        "q": q, "samples": len(fewest), "beyond": beyond,
        "meets_ten_beyond": beyond >= 10, "highest_supported": highest_supported(fewest),
    }


def end_to_end(passes, setups):
    """Each metric is the median over passes of that pass's value, which a
    minority of passes caught in one of the machine's slow spells cannot move."""
    case_p50, n50 = pass_percentile(passes, "case_s", 50)
    # reported, not bounded: one or two short cases a pass, too noisy here
    case_p90, n90 = pass_percentile(passes, "case_s", 90)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "case_p50_s": case_p50,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    samples = {"case_p50_s": n50, "case_p90_s": dict(n90, value=case_p90),
               "passes": len(passes), "setup_s": len(setups)}
    return metrics, samples


def per_layer(traced, untraced):
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.spans"] = statistics.median(p["spans"] for p in traced)
    metrics["cli.hit_p50_ms"] = pass_percentile(traced, "hit_ms", 50)[0]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genforms" / "__init__.py").is_file():
        print(f"error: no genforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        setups = [spawn(args.workload, args.seed, 0, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced, traced, errors = [], [], []
    attempted = 0
    problems = []
    spans_path = str(out_dir / f"spans-{tag}.json")
    kinds = [0, 1] if args.trace else [0]
    start = time.monotonic()
    rounds = 0
    while True:
        for trace in kinds:
            extra = ("--spans", spans_path) if trace else ()
            try:
                result = spawn(args.workload, args.seed, trace, deadline, *extra)
            except WorkerFailed as exc:
                errors.append(str(exc))
                result = {"cases": [], "sweeps": [], "resume": []}
            n, found = check_pass(args.workload, result, golden)
            attempted += n
            problems += found
            if "wall_s" in result:
                (traced if trace else untraced).append(result)
                setups.append(result["setup_s"])
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        # another round only if it should end within --seconds and the time limit
        if errors or now - start + per_round > args.seconds or now + 2 * per_round > deadline:
            break
    if not untraced or (args.trace and not traced):
        print(f"error: no pass completed: {errors}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(traced, untraced)
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    else:
        try:
            metrics, samples = end_to_end(untraced, setups)
        except ValueError as exc:  # a pass produced no case or hit timings
            print(f"error: {exc}; problems: {problems[:5]}", file=sys.stderr)
            return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(problems)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed),
        "passes": len(untraced) + len(traced), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems[:20], "errors": errors,
        "samples": samples,
        "untraced_wall_s": [p["wall_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "setup_s": setups,
    }
    print(json.dumps(report))
    report["per_pass"] = [{k: p[k] for k in ("wall_s", "case_s", "hit_ms", "setup_s")}
                          for p in untraced]
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
