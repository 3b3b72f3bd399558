"""Tests for prime-field arithmetic and rank computation."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from genforms import modp
from genforms.modp import (
    DEFAULT_PRIME,
    CHUNK,
    RowReducer,
    is_prime,
    matmul_mod,
)

# smallest prime above 2^32: accepted by is_prime, outside the kernel's range
BIG_PRIME = 4294967311


def rank(matrix, p=DEFAULT_PRIME):
    """Rank over Z/p of a matrix fed to one `RowReducer`."""
    reducer = RowReducer(np.shape(matrix)[1], p)
    reducer.add_rows(matrix)
    return reducer.rank


def streamed_rank(blocks, cols, p=DEFAULT_PRIME):
    """Rank of a stream of row blocks fed to one `RowReducer.add_blocks`."""
    reducer = RowReducer(cols, p)
    assert reducer.add_blocks(blocks) == reducer.rank
    return reducer.rank


def test_is_prime():
    assert is_prime(2) and is_prime(7) and is_prime(DEFAULT_PRIME)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2**31 - 3)


def test_rank_identity_and_zero():
    assert rank(np.eye(5, dtype=np.int64)) == 5
    assert rank(np.zeros((3, 4), dtype=np.int64)) == 0


def test_rank_duplicated_rows():
    rng = np.random.default_rng(7)
    top = rng.integers(0, DEFAULT_PRIME, size=(10, 30))
    m = np.vstack([top, top])
    assert rank(m) == 10


@pytest.mark.parametrize("p", [7, 101, DEFAULT_PRIME, 2**31 - 1])
def test_rank_equals_transpose_rank(p):
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = rng.integers(0, p, size=rng.integers(1, 15, size=2))
        assert rank(m, p) == rank(m.T, p)


def test_rank_invariant_under_shuffle_and_scaling():
    rng = np.random.default_rng(13)
    m = rng.integers(0, DEFAULT_PRIME, size=(12, 8))
    base = rank(m.copy())
    shuffled = m[rng.permutation(12)]
    assert rank(shuffled.copy()) == base
    scales = rng.integers(1, DEFAULT_PRIME, size=(12, 1))
    assert rank(scales * m % DEFAULT_PRIME) == base


def test_rank_stacking_subadditive():
    rng = np.random.default_rng(17)
    a = rng.integers(0, 97, size=(6, 10))
    b = rng.integers(0, 97, size=(7, 10))
    assert rank(np.vstack([a, b]), 97) <= rank(a, 97) + rank(b, 97)


@pytest.mark.parametrize(
    "rows,cols", [(5, 5), (30, 12), (12, 30), (100, 80), (200, 300)]
)
def test_incremental_agrees_with_batch(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    # mix in duplicate rows so the rank is not trivially min(rows, cols)
    m = rng.integers(0, DEFAULT_PRIME, size=(rows, cols))
    m[rows // 2 :] = m[: rows - rows // 2]
    # one-row blocks, then blocks cut on both sides of CHUNK
    assert streamed_rank(iter(m), cols) == rank(m.copy())
    cuts = [0, 3, 4, CHUNK + 9, max(rows, CHUNK + 9)]
    blocks = (m[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    assert streamed_rank(blocks, cols) == rank(m.copy())


def test_incremental_rank_blockwise():
    rng = np.random.default_rng(23)
    m = rng.integers(0, DEFAULT_PRIME, size=(50, 40))
    reducer = RowReducer(40)
    for start in range(0, 50, 7):
        reducer.add_rows(m[start : start + 7])
    assert reducer.rank == rank(m.copy())


def test_incremental_early_exit_full_column_rank():
    reducer = RowReducer(3, p=101)
    for row in np.eye(3, dtype=np.int64):
        assert reducer.add_rows(row) == 1
    assert reducer.rank == 3
    assert reducer.full_column_rank
    # further rows are ignored once the space is full
    assert reducer.add_rows(np.ones((4, 3), dtype=np.int64)) == 0


def test_incremental_rank_proportional_rows():
    r = np.array([1, 2, 3, 4], dtype=np.int64)
    assert streamed_rank([r, 2 * r, 3 * r], 4, p=101) == 1


def test_incremental_rank_empty_stream():
    assert streamed_rank([], 5) == 0
    assert streamed_rank(iter([np.zeros((0, 5), dtype=np.int64)]), 5) == 0


def test_stream_stops_pulling_at_full_column_rank():
    """A lazy stream is not pulled again once the rows it gave bring the
    basis to full column rank, also when those rows are grouped, so a
    later block is never built."""

    def blocks(rows):
        yield from rows
        raise AssertionError("block pulled after full column rank")

    reducer = RowReducer(3, p=101)
    assert reducer.add_blocks(blocks(np.eye(3, dtype=np.int64))) == 3  # one-row blocks
    assert reducer.full_column_rank
    assert reducer.add_blocks(blocks([])) == 0  # already full: nothing pulled
    rng = np.random.default_rng(2)
    m = rng.integers(0, DEFAULT_PRIME, size=(5, 5))
    assert streamed_rank(blocks([m[:2], m[2:]]), 5) == 5


def test_stream_groups_short_blocks_into_one_merge(monkeypatch):
    """Twenty one-row blocks reach add_rows as one call of 20 rows."""
    heights = []
    real = RowReducer.add_rows

    def counting(self, block):
        heights.append(np.atleast_2d(block).shape[0])
        return real(self, block)

    monkeypatch.setattr(RowReducer, "add_rows", counting)
    rng = np.random.default_rng(3)
    m = rng.integers(0, DEFAULT_PRIME, size=(20, 40))
    assert streamed_rank(iter(m), 40) == 20
    assert heights == [20]


def test_stream_splits_a_block_taller_than_chunk(monkeypatch):
    """Groups never exceed CHUNK rows, and a taller block is still merged
    CHUNK rows at a time: the outer merges of [3 rows, 2 CHUNK + 5 rows,
    2 rows] have heights 3, CHUNK, CHUNK, 5 and 2."""
    heights = []
    depth = 0
    real = modp._merge

    def recording(echelon, block, p):
        nonlocal depth
        if depth == 0:
            heights.append(block.shape[0])
        depth += 1
        try:
            return real(echelon, block, p)
        finally:
            depth -= 1

    monkeypatch.setattr(modp, "_merge", recording)
    rng = np.random.default_rng(5)
    m = rng.integers(0, DEFAULT_PRIME, size=(2 * CHUNK + 10, 2 * CHUNK + 20))
    cuts = [0, 3, 2 * CHUNK + 8, 2 * CHUNK + 10]
    blocks = (m[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    assert streamed_rank(blocks, m.shape[1]) == m.shape[0]
    assert heights == [3, CHUNK, CHUNK, 5, 2]


def test_telemetry_counts_eliminations():
    modp.reset_telemetry()
    rank(np.eye(2, dtype=np.int64))
    RowReducer(3)
    assert modp.ELIMINATION_CALLS == 2
    modp.reset_telemetry()
    assert modp.ELIMINATION_CALLS == 0


def test_primes_at_or_above_2_31_are_rejected():
    assert is_prime(BIG_PRIME)
    # rank 1: the second row is twice the first mod BIG_PRIME
    m = [[3, BIG_PRIME - 1], [6, 2 * (BIG_PRIME - 1) % BIG_PRIME]]
    with pytest.raises(ValueError, match="2\\^31"):
        rank(m, BIG_PRIME)
    with pytest.raises(ValueError):
        streamed_rank(iter(m), 2, BIG_PRIME)
    with pytest.raises(ValueError):
        RowReducer(2, 2**31)
    with pytest.raises(ValueError):
        matmul_mod(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64), BIG_PRIME)
    assert rank(m, DEFAULT_PRIME) == 2


def test_matmul_mod_worst_case_entries_long_inner():
    """All entries p - 1 and inner dimension 4099: every limb is at its
    maximum, and the sum is checked against Python integers."""
    p = DEFAULT_PRIME
    inner = 4099
    a = np.full((3, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 130), p - 1, dtype=np.int64)
    expected = inner * (p - 1) * (p - 1) % p
    assert (matmul_mod(a, b, p) == expected).all()


@pytest.mark.parametrize("inner,both", [(64, False), (65, True)])
def test_matmul_mod_at_the_two_product_edge(inner, both):
    """All entries p - 1 at p = 2^31 - 1: inner 64 is the largest inner
    dimension that multiplies a unsplit (two products), inner 65 splits
    both operands (four products); both are exact."""
    p = 2**31 - 1
    assert modp._limb_products(inner, p) == (4 if both else 2)
    a = np.full((3, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 5), p - 1, dtype=np.int64)
    expected = sum((p - 1) * (p - 1) for _ in range(inner)) % p
    assert (matmul_mod(a, b, p) == expected).all()


def _python_matmul_mod(a, b, p):
    """a @ b mod p in Python integers, which never overflow."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
            for row in a.tolist()]


@pytest.mark.parametrize("p,inner,products", [
    (1048573, 8192, 1), (1048573, 8193, 2), (1048573, 131074, 2),
    (1048573, 131075, 4), (2**31 - 1, 1, 2), (2**31 - 1, 3000, 4),
])
def test_matmul_mod_each_regime_against_python_ints(p, inner, products):
    """On each side of each regime's edge at the default prime, and inside
    both regimes of 2^31 - 1 (its edge is tested above): all-(p - 1)
    operands, where every partial sum is at its largest, and random ones
    with a column of p - 1 give the Python-integer product mod p."""
    assert modp._limb_products(inner, p) == products
    rng = np.random.default_rng(inner)
    worst = np.full((2, inner), p - 1, dtype=np.int64)
    mixed = rng.integers(0, p, size=(3, inner))
    mixed[:, 0] = p - 1
    for a in (worst, mixed):
        b = np.full((inner, 3), p - 1, dtype=np.int64)
        b[:, 1:] = rng.integers(0, p, size=(inner, 2))
        assert matmul_mod(a, b, p).tolist() == _python_matmul_mod(a, b, p)


def test_default_prime_is_the_largest_below_2_20():
    assert is_prime(DEFAULT_PRIME) and DEFAULT_PRIME < 2**20
    assert not any(is_prime(q) for q in range(DEFAULT_PRIME + 1, 2**20))


def test_matmul_mod_random_against_python_ints():
    p = DEFAULT_PRIME
    rng = np.random.default_rng(29)
    a = rng.integers(0, p, size=(7, 4096))
    a[:, ::3] = p - 1
    b = rng.integers(0, p, size=(4096, 5))
    assert matmul_mod(a, b, p).tolist() == _python_matmul_mod(a, b, p)


def test_matmul_mod_rejects_inner_dimension_outside_exact_range():
    # zero-stride views: the check must fire before any work is done
    a = np.broadcast_to(np.int64(1), (1, 2**20))
    b = np.broadcast_to(np.int64(1), (2**20, 1))
    with pytest.raises(ValueError, match="inner dimension"):
        matmul_mod(a, b, DEFAULT_PRIME)
    with pytest.raises(ValueError, match="inner dimensions differ"):
        matmul_mod(np.ones((2, 3), dtype=np.int64), np.ones((4, 2), dtype=np.int64), 7)


def test_bench_kernel_script_smoke():
    """scripts/bench_kernel.py on its 756 x 715 input (rank 681) and on its
    seeded chain, once each; a wrong chain rank is reported."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    case = next(c for c in bench.CASES if c[5:7] == (756, 715))
    result = bench.time_case(case, repeats=1)
    assert result["shape"] == [756, 715] and result["rank"] == 681
    assert result["median_s"] > 0
    chain = bench.time_chain(repeats=1)
    assert chain["degrees"] == [15, 18] and chain["ranks"] == [600, 815, 1060, 1330]
    with pytest.raises(bench.WrongResult):
        bench.time_chain(bench.CHAIN[:5] + ((600, 815, 1060, 1329),), repeats=1)


def test_bench_kernel_frontier_reports_a_case_over_budget(monkeypatch):
    """A frontier case is timed by its elimination at the pure-power
    point, even a k = n+1 case, which verify_case settles by theorem.
    One over the matrix budget (1x12 standard entries of (3,2,2,4) at
    degree 4, over 10) is a missed case, reported as WrongResult (exit 1
    with an error line), not a traceback."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert (7, 2, 2, 9) in bench.FRONTIER
    (result,) = bench.time_frontier(((3, 2, 2, 4),))
    assert result["case"] == [3, 2, 2, 4] and result["cold_s"] > 0
    monkeypatch.setattr(bench, "DEFAULT_BUDGET", 10)
    with pytest.raises(bench.WrongResult, match=r"\[3, 2, 2, 4\] not attained: .*1x12 .*budget 10"):
        bench.time_frontier(((3, 2, 2, 4),))


def test_bench_kernel_assembly_smoke(monkeypatch):
    """The assembly timings once each: every table of the ci-deep cases
    built cold with its shape checked, and the powered family matching
    its pinned checksum; a wrong checksum is reported."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.time_tables(repeats=1) > 0
    assert bench.time_power(repeats=1) > 0
    monkeypatch.setattr(bench, "POWERED_SHA256", "0" * 16)
    with pytest.raises(bench.WrongResult):
        bench.time_power(repeats=1)


def test_bench_kernel_plan_smoke():
    """The plan timings once: a cell planned cold with its counts checked,
    and a wrong count reported."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cell = (4, 3, 3, 220, 22, 7)
    assert cell in bench.PLANS
    (result,) = bench.time_plans((cell,), repeats=1)
    assert result["cases"] == 22 and result["intervals"] == 7 and result["cold_median_s"] > 0
    with pytest.raises(bench.WrongResult, match="22 cases and 7 intervals"):
        bench.time_plans(((4, 3, 3, 220, 22, 8),), repeats=1)


def test_bench_kernel_sweep_smoke():
    """The sweep timings once, on a small cell: its counts checked, and a
    wrong count reported."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.SWEEPS == ((4, 2, 6, 455, 27, 8), (4, 4, 3, 455, 27, 8), (5, 2, 4, 495, 26, 8),
                            (3, 7, 2, 120, 20, 5), (3, 2, 7, 120, 20, 5))
    (result,) = bench.time_sweeps(((3, 2, 2, 15, 9, 2),))
    assert result["cell"] == [3, 2, 2] and result["cold_s"] > 0
    with pytest.raises(bench.WrongResult, match="9 direct cases, 2 intervals, 15 k covered"):
        bench.time_sweeps(((3, 2, 2, 15, 9, 3),))


def test_bench_kernel_hits_smoke(monkeypatch):
    """The cache-layer timings once: each ci-deep case computed, then
    timed as a hit; a call the cache does not serve is reported."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.HITS == ((4, 2, 2, 5), (4, 2, 3, 5), (4, 3, 2, 5), (5, 2, 2, 6), (4, 2, 4, 5))
    results = bench.time_hits(repeats=1)
    assert [r["case"] for r in results] == [list(case) for case in bench.HITS]
    assert all(r["median_s"] > 0 for r in results)
    monkeypatch.setattr(bench.cli, "append_cache", lambda path, record: None)
    with pytest.raises(bench.WrongResult, match=r"hit \[3, 2, 2, 4\] not served"):
        bench.time_hits(((3, 2, 2, 4),), repeats=1)
