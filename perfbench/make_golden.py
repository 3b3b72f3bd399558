"""Regenerate perfbench/golden.json from one pass of every workload.

    python3 perfbench/make_golden.py [--seed 0]

Each record is accepted only if it is Verified, its computed series equals
the conjectured one and every degree's rank equals cols minus the
conjectured coefficient; each sweep only if it covers its whole k range
with no rejected or skipped line. Only the seed-independent fields are
kept, so the file serves every workload seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads
from check import COVERED, check_pass, checked_fields

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def consistent(rec) -> bool:
    coeffs = rec["conjectured"]
    return (rec["verdict"] == "Verified" and rec["computed"] == coeffs
            and all(rank == cols - coeffs[e] for e, _, cols, rank in rec["ranks"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    golden = {"records": {}, "sweeps": {}}
    results = {}
    (HERE / "out").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            result = worker.run_pass(workload, args.seed, worker.setup(workload, args.seed),
                                     str(Path(tmp) / "cache.jsonl"))
        results[workload] = result
        records = [c["record"] for c in result["cases"]]
        for sweep in result["sweeps"]:
            lines = [json.loads(line) for line in sweep["stdout"].splitlines()]
            covered = COVERED.search(sweep["stderr"])
            fraction = covered.group(1).split("/") if covered else None
            if sweep["rc"] != 0 or not fraction or fraction[0] != fraction[1]:
                raise SystemExit(f"sweep {sweep['argv']} is incomplete: {sweep['stderr']}")
            if any(x.get("verdict") != "Verified" for x in lines):
                raise SystemExit(f"sweep {sweep['argv']} has an unverified line")
            recs = [x for x in lines if "n" in x]
            records += recs
            golden["sweeps"][workloads.sweep_key(sweep["argv"])] = {
                "ks": [r["k"] for r in recs],
                "intervals": [x["interval"] + [x["e_surj"], x["e_ind"]]
                              for x in lines if "interval" in x],
                "covered": covered.group(1),
            }
        for rec in records:
            if not consistent(rec):
                raise SystemExit(f"inconsistent record {rec}")
            key = workloads.case_key(rec["n"], rec["d"], rec["m"], rec["k"])
            golden["records"][key] = checked_fields(rec)

    for workload, result in results.items():
        attempted, problems = check_pass(workload, result, golden)
        if problems:
            raise SystemExit(f"{workload}: {problems[:5]}")
        print(f"{workload}: {attempted} operations checked", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
