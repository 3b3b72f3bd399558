#!/usr/bin/env python3
"""Campaign: three variables, all power shapes with d*m <= 20.

For every factorization d*m with d >= 2, m >= 2 and d*m <= 20 this sweeps
the full range of generator counts k, verifying endpoints directly and
covering interior k by the surjectivity/independence interval deduction.
Results stream to stdout as one summary line per (d, m) pair.

This reproduces the exhaustive check behind the small-number-of-variables
power conjecture cases. It is not part of the acceptance gate. At the
default budget and prime the whole campaign took 1.74-2.27 s (six
runs) with 41 MB peak RSS on a 2-core Xeon VM whose speed drifts
(Python 3.11, numpy 2.4 with OpenBLAS), every k covered and none
skipped; k = 4 of each cell is Verified by theorem. A case over the
matrix budget is counted in `skipped`. The last line gives the
campaign's total seconds and peak RSS (`ru_maxrss`).

Usage:
    python3 scripts/sweep_n3.py [--max-dm 20] [--seed S]
"""

import argparse
import resource
import sys
import time

from genforms.monomials import monomial_count
from genforms.verifier import NOT_ATTAINED, certified_ks, plan_sweep, run_sweep

N = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-dm", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    shapes = [
        (d, m)
        for d in range(2, args.max_dm // 2 + 1)
        for m in range(2, args.max_dm // d + 1)
    ]
    shapes.sort(key=lambda dm: (dm[0] * dm[1], dm[0]))

    bad = 0
    campaign_start = time.perf_counter()
    for d, m in shapes:
        k_max = monomial_count(N, m * d)
        start = time.perf_counter()
        plan = plan_sweep(N, d, m, 1, k_max, seed=args.seed)
        records, witnesses, failures, skipped = run_sweep(plan)
        elapsed = time.perf_counter() - start
        covered = certified_ks(records, witnesses)
        not_attained = sum(r.verdict == NOT_ATTAINED for r in records)
        bad += not_attained + len(failures)
        print(
            f"d={d:2} m={m:2} md={d * m:2}: k=1..{k_max:4} "
            f"direct={len(records):3} intervals={len(witnesses):2} "
            f"covered={len(covered):4}/{k_max:4} "
            f"not_attained={not_attained} rejected={len(failures)} "
            f"skipped={len(skipped)} ({elapsed:.1f}s)",
            flush=True,
        )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    print(f"total {time.perf_counter() - campaign_start:.2f}s peak_rss={peak_mb:.0f}MB")
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
