"""The benchmark's workloads: fixed inputs, and why each was chosen.

Plain data only, so the parent process can check outputs without
importing genforms. The workload seed never changes these inputs; it is
passed to the program as `CaseSpec.seed` or the CLI's `--seed`.
"""

# (n, d, m, k). Few generators and deep series: the largest Macaulay
# matrices (1430x1330 at degree 18 for (4,2,4) k=5), so elimination
# dominates. (4,3,3) k=5 is left out: about 80 s alone, too long to repeat.
CI_DEEP = ((4, 2, 2, 5), (4, 2, 3, 5), (4, 3, 2, 5), (5, 2, 2, 6), (4, 2, 4, 5))

# The planner's interval endpoints in the upper k range of each table cell.
# Many generators and short series: powering and small eliminations. Not in
# BENCHMARK.json: too noisy in the run length a check can afford (README).
_WIDE_KS = {
    (4, 2, 2): (13, 14, 34, 35),
    (4, 2, 3): (16, 17, 29, 30, 83, 84),
    (4, 3, 2): (16, 17, 29, 30, 83, 84),
    (5, 2, 2): (25, 26, 69, 70),
    (4, 2, 4): (28, 29, 54, 55, 164, 165),
    (4, 3, 3): (36, 37, 71, 72, 219, 220),
}
WIDE_FORMS = tuple((n, d, m, k) for (n, d, m), ks in _WIDE_KS.items() for k in ks)

# `genforms sweep` arguments (after the global --seed and --cache) of the
# n=3 campaign slice; every record they write is then resumed from cache.
# k starts above the complete intersections k <= 3: the two k=3 cases alone
# take 28 s, which would leave one pass per run and metrics taken from
# single short windows of a machine whose speed drifts.
SWEEPS = (
    ("sweep", "--n", "3", "--d", "7", "--m", "2", "--k-range", "4..120"),
    ("sweep", "--n", "3", "--d", "2", "--m", "7", "--k-range", "4..120"),
)

CASES = {"ci-deep": CI_DEEP, "wide-forms": WIDE_FORMS}
WORKLOADS = ("ci-deep", "wide-forms", "sweep-n3")


def case_key(n, d, m, k) -> str:
    return f"{n},{d},{m},{k}"


def sweep_key(argv) -> str:
    return " ".join(argv)


def resume_argv(seed, cache_path, record) -> list:
    """`genforms verify` arguments that must hit the cached record."""
    return [
        "--seed", str(seed), "--cache", cache_path, "verify",
        "--n", str(record["n"]), "--d", str(record["d"]),
        "--m", str(record["m"]), "--k", str(record["k"]),
        "--trunc", str(record["trunc"]),
    ]
