"""The pivot loop's delayed reduction and the leaf size, against the slow
reference of `test_rank_oracle`.

A leaf is eliminated with its rows left unreduced between pivot steps,
reduced as a whole only when one more step could leave int64. Leaves of
rows with entries p - 1 (the largest factors and pivot rows) are checked
at p = 2^31 - 1, where only two steps fit between reductions, and at the
default prime on the leaf with the most pivot steps, which it never
reduces. The planted case is one that an elimination without the bound
reads as rank 5 for the true 4. Every case also runs under `python -O`.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import genforms
from genforms import modp
from genforms.modp import BASE, CHUNK, DEFAULT_PRIME, LEAF_ENTRIES, RowReducer, matmul_mod

from test_rank_oracle import planted_blocks, planted_matrices, reference_rank

BIG = 2**31 - 1
# the most pivot steps one leaf takes: a leaf of w columns has at most
# max(BASE, LEAF_ENTRIES // w) rows, so min(rows, w) <= 64
MOST_STEPS = max(BASE, math.isqrt(LEAF_ENTRIES))


def planted_leaf(p, height, width, rank, seed):
    """height x width rows, as lists: A B mod p of inner dimension rank,
    A and B half entries p - 1, then every fifth row all p - 1 (so of
    rank at most rank + 1)."""
    rng = np.random.default_rng(seed)

    def factor(shape):
        m = rng.integers(0, p, size=shape)
        m[rng.random(shape) < 0.5] = p - 1
        return m.tolist()

    a, b = factor((height, rank)), factor((rank, width))
    rows = [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(width)]
            for row in a]
    for i in range(0, height, 5):
        rows[i] = [p - 1] * width
    return rows


def overflowed_case():
    """(rows, p): 17 rows A B mod 2^31 - 1 with A 17 x 4 and B 4 x 7 drawn
    by default_rng(6). Fed row by row, an elimination that never reduces
    its leaf between pivot steps reads rank 5; the rank is 4."""
    rng = np.random.default_rng(6)
    a = rng.integers(0, BIG, size=(17, 4)).tolist()
    b = rng.integers(0, BIG, size=(4, 7)).tolist()
    rows = [[sum(x * b[k][j] for k, x in enumerate(row)) % BIG for j in range(7)]
            for row in a]
    return rows, BIG


# (p, height, width, planted rank): each one leaf. At the default prime
# the leaf of the most pivot steps, 64 x 64, and the tallest, a whole
# chunk of CHUNK rows at LEAF_ENTRIES // CHUNK columns.
LEAVES = (
    (BIG, BASE, 40, 5),
    (BIG, 30, 100, 12),
    (BIG, 64, 64, 64),
    (BIG, 64, 64, 50),
    (DEFAULT_PRIME, 64, 64, 64),
    (DEFAULT_PRIME, 64, 64, 63),
    (DEFAULT_PRIME, CHUNK, LEAF_ENTRIES // CHUNK, LEAF_ENTRIES // CHUNK),
)


def leaf_cases():
    cases = [(planted_leaf(p, h, w, r, seed=h * w + r), p) for p, h, w, r in LEAVES]
    return cases + [overflowed_case()]


def test_a_default_prime_leaf_is_never_reduced_inside():
    """The most pivot steps a leaf takes keep every entry in int64 at the
    default prime: |e| < p + s (p - 1)^2 < 2^63 after s steps."""
    p = DEFAULT_PRIME
    assert p + MOST_STEPS * (p - 1) ** 2 < modp._INT64_BOUND == 2**63


@pytest.mark.parametrize("index", range(len(LEAVES) + 1))
def test_leaves_of_p_minus_1_rows_match_reference(monkeypatch, index):
    """Each case is one leaf, fed whole and row by row."""
    rows, p = leaf_cases()[index]
    heights = []
    real = modp._gauss_jordan

    def recording(m, p):
        heights.append(m.shape[0])
        return real(m, p)

    monkeypatch.setattr(modp, "_gauss_jordan", recording)
    cols = len(rows[0])
    expected = reference_rank(rows, p)
    reducer = RowReducer(cols, p)
    assert reducer.add_rows(np.array(rows, dtype=np.int64)) == expected
    assert heights == [len(rows)]
    streamed = RowReducer(cols, p)
    assert sum(streamed.add_rows(np.array(row, dtype=np.int64)) for row in rows) == expected


def test_the_range_bound_is_exact(monkeypatch):
    """At 2^31 - 1 two pivot steps fit between reductions. Letting a third
    one go unreduced leaves int64 on the 30 x 100 leaf, and never
    reducing leaves it on the planted case: both read other ranks than
    the reference's 13 and 4, which the bound gives."""
    leaf = leaf_cases()[1][0]
    assert LEAVES[1][:3] == (BIG, 30, 100)
    for rows, expected, extra in [(leaf, 13, 1), (overflowed_case()[0], 4, 2**62)]:
        m = np.array(rows, dtype=np.int64)
        assert reference_rank(rows, BIG) == expected
        assert RowReducer(m.shape[1], BIG).add_rows(m) == expected
        with monkeypatch.context() as mp:
            mp.setattr(modp, "_INT64_BOUND", 2**63 + extra * (BIG - 1) ** 2)
            assert RowReducer(m.shape[1], BIG).add_rows(m) != expected


# Prints, for each (rows, p) read as JSON from stdin, the rank of one
# `RowReducer` fed the rows whole, and of one fed them row by row.
_RANKS = """
import json, sys
import numpy as np
from genforms.modp import RowReducer
out = []
for rows, p in json.load(sys.stdin):
    whole, streamed = RowReducer(len(rows[0]), p), RowReducer(len(rows[0]), p)
    whole.add_rows(np.array(rows, dtype=np.int64))
    for row in rows:
        streamed.add_rows(np.array(row, dtype=np.int64))
    out.append([whole.rank, streamed.rank])
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_leaves_match_reference_under_python_O(flags):
    """The range bound is arithmetic, not an assert: with assertions
    stripped every leaf still gives the reference rank."""
    cases = leaf_cases()
    src = str(Path(genforms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _RANKS], input=json.dumps(cases),
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [[reference_rank(rows, p)] * 2 for rows, p in cases]
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("height,width,leaves", [
    (10, 130, [10]),
    (31, 130, [31]),
    (33, 128, [24, 9]),
    (BASE + 1, 1330, [BASE, 1]),
    (LEAF_ENTRIES // 8 + 1, 8, [8 * 33]),  # its top part has full column rank
])
def test_leaf_height_is_bounded_by_entries(monkeypatch, height, width, leaves):
    """A block is one leaf up to max(BASE, LEAF_ENTRIES // width) rows; a
    taller one splits after a multiple of BASE rows near its middle."""
    heights = []
    real = modp._gauss_jordan

    def recording(m, p):
        heights.append(m.shape[0])
        return real(m, p)

    monkeypatch.setattr(modp, "_gauss_jordan", recording)
    rng = np.random.default_rng(height * width)
    m = rng.integers(0, DEFAULT_PRIME, size=(height, width))
    modp._echelon(m, DEFAULT_PRIME)
    assert heights == leaves


@settings(max_examples=40, deadline=None)
@given(planted_blocks())
def test_planted_splits_with_base_leaves_match_reference(case):
    """With the leaf entry bound at 0 every leaf has BASE rows, as before
    leaves were sized by entries, so a block planted along the
    recursion's splits reaches `_merge` inside its chunk."""
    rows, cols, p = case
    inner = []
    real_merge = modp._merge

    def merge(echelon, block, p):
        inner.append(block.shape[0])
        return real_merge(echelon, block, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modp, "LEAF_ENTRIES", 0)
        mp.setattr(modp, "_merge", merge)
        reducer = RowReducer(cols, p)
        reducer.add_rows(np.array(rows, dtype=np.int64).reshape(len(rows), cols))
    assert reducer.rank == reference_rank(rows, p)
    # one outer merge per chunk, and every block taller than BASE splits
    assert len(inner) > 1


@settings(max_examples=40, deadline=None)
@given(planted_matrices())
def test_reducing_at_every_step_matches_reference(case):
    """With one pivot step allowed between reductions, at every prime,
    the leaf reduction runs as often as it can and the rank is the same."""
    rows, cols, p = case
    with pytest.MonkeyPatch.context() as mp:
        # (bound - 1 - p) // (p - 1)^2 = 1 step between reductions
        mp.setattr(modp, "_INT64_BOUND", p + 2 * (p - 1) ** 2)
        reducer = RowReducer(cols, p)
        reducer.add_rows(np.array(rows, dtype=np.int64).reshape(len(rows), cols))
    assert reducer.rank == reference_rank(rows, p)


def _python_sub_matmul_mod(c, a, b, p):
    """(c - a @ b) mod p in Python integers, which never overflow."""
    return [[(z - sum(x * y for x, y in zip(row, col))) % p
             for z, col in zip(crow, b.T.tolist())]
            for crow, row in zip(c.tolist(), a.tolist())]


@pytest.mark.parametrize("p,inner", [
    (DEFAULT_PRIME, 8192), (DEFAULT_PRIME, 8193), (BIG, 64), (BIG, 65),
])
def test_matmul_mod_subtract_from_against_python_ints(p, inner):
    """subtract_from is overwritten with (c - a @ b) mod p, exact in each
    regime of `_limb_products`, for all-(p - 1) products and c of 0 and
    p - 1, where the unreduced difference is largest."""
    rng = np.random.default_rng(inner)
    a = np.full((3, inner), p - 1, dtype=np.int64)
    a[1] = rng.integers(0, p, size=inner)
    b = np.full((inner, 4), p - 1, dtype=np.int64)
    b[:, 1] = rng.integers(0, p, size=inner)
    c = np.array([[0, p - 1, 5, 0], [p - 1, 0, 1, 2], [0, 0, p - 1, p - 1]], dtype=np.int64)
    expected = _python_sub_matmul_mod(c, a, b, p)
    out = matmul_mod(a, b, p, subtract_from=c)
    assert out is c and c.tolist() == expected


def test_matmul_mod_subtract_from_of_another_shape_is_rejected():
    ones = np.ones((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="cannot subtract"):
        matmul_mod(ones, ones.T, 7, subtract_from=np.zeros((3, 3), dtype=np.int64))
