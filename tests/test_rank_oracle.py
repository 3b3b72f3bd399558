"""Differential rank oracle: every rank path of modp against a slow
pure-Python elimination over Python integers.

Inputs plant their rank structure: products A.B mod p with a known inner
dimension, duplicated rows, linear combinations of rows, zero rows, rows
of entries p - 1 (the largest limbs), heights on both sides of the
recursion's base and of the feed chunk, and blocks planted along the
recursion's splits (zero or rank-deficient top parts, bottom parts in
their span), and rows fed on top of a seed basis.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genforms.modp import BASE, CHUNK, RowReducer, rank

PRIMES = (2, 3, 101, 65537, 1048573, 2**31 - 1)
SHORT = (0, 1, BASE - 1, BASE, BASE + 1, 2 * BASE + 1)
FEED = (CHUNK - 1, CHUNK, CHUNK + 1)
# Matrices taller than this get at most TALL_COLS columns, so the
# pure-Python reference stays fast at feed-chunk heights.
SHORT_MAX = 4 * BASE + 2
TALL_COLS = 12


def reference_rank(rows, p):
    """Rank over Z/p by textbook Gaussian elimination on Python ints."""
    m = [[x % p for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


@st.composite
def planted_matrices(draw):
    """(rows as lists of ints, cols, p) with planted dependencies."""
    p = draw(st.sampled_from(PRIMES))
    n_rows = draw(st.sampled_from(SHORT + FEED) | st.integers(0, SHORT_MAX))
    if n_rows > SHORT_MAX:
        cols = draw(st.integers(1, TALL_COLS))
    else:
        cols = draw(st.sampled_from(SHORT[1:] + FEED) | st.integers(1, 24))
    inner = draw(st.integers(0, min(n_rows, cols) + 1))
    worst = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return p - 1 if rng.random() < worst else rng.randrange(p)

    a = [[entry() for _ in range(inner)] for _ in range(n_rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    rows = [
        [sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(cols)]
        for row in a
    ]
    for kind in draw(st.lists(st.sampled_from("dczw"), max_size=6)):
        if kind == "d" and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == "c" and rows:
            u, v = rng.choice(rows), rng.choice(rows)
            s, t = entry(), entry()
            rows.append([(s * x + t * y) % p for x, y in zip(u, v)])
        elif kind == "z":
            rows.append([0] * cols)
        elif kind == "w":
            rows.append([p - 1] * cols)
    rng.shuffle(rows)
    return rows, cols, p


def as_array(rows, cols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols)


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_rank_matches_reference(case):
    rows, cols, p = case
    assert rank(as_array(rows, cols), p) == reference_rank(rows, p)


@settings(max_examples=40, deadline=None)
@given(planted_matrices())
def test_incremental_rank_matches_reference(case):
    rows, cols, p = case
    reducer = RowReducer(cols, p)
    reducer.add_blocks(np.array(row, dtype=np.int64) for row in rows)
    assert reducer.rank == reference_rank(rows, p)


@settings(max_examples=40, deadline=None)
@given(planted_matrices(), st.lists(st.integers(0, CHUNK + 2), max_size=5))
def test_row_reducer_random_blocks_match_reference(case, cuts):
    """Blocks cut at random heights, fed by one add_rows call each and
    streamed to add_blocks, which groups them up to CHUNK rows."""
    rows, cols, p = case
    m = as_array(rows, cols)
    bounds = [0] + sorted(c for c in cuts if c < len(rows)) + [len(rows)]
    blocks = [m[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    reducer = RowReducer(cols, p)
    added = sum(reducer.add_rows(block) for block in blocks)
    expected = reference_rank(rows, p)
    assert reducer.rank == added == expected
    assert reducer.full_column_rank == (expected == cols)
    streamed = RowReducer(cols, p)
    assert streamed.add_blocks(iter(blocks)) == streamed.rank == expected


def top_rows(height):
    """Rows in the top part when the kernel splits a block (as `_echelon`)."""
    return BASE * -(-height // (2 * BASE))


@st.composite
def planted_blocks(draw):
    """(rows, cols, p): a block planted along the recursion's splits.

    A top part is zero or itself planted (base blocks are zero, of low
    rank or random), and its bottom part lies in the span of the top
    part, is zero, is planted anew, or is in the span but for one row.
    """
    p = draw(st.sampled_from(PRIMES))
    height = draw(st.sampled_from((BASE + 1, 2 * BASE, 2 * BASE + 1, 4 * BASE, CHUNK)))
    # ranks stay low (most bottom parts add at most one row), so even
    # the tallest blocks can afford as many columns as the short ones
    cols = draw(st.integers(1, 3 * BASE))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def random_row():
        return [rng.randrange(p) for _ in range(cols)]

    def in_span(rows, count):
        out = []
        for _ in range(count):
            row = [0] * cols
            for u in rows:
                s = rng.randrange(p)
                row = [(x + s * y) % p for x, y in zip(row, u)]
            out.append(row)
        return out

    def block(h):
        if h <= BASE:
            kind = rng.choice(("zero", "low", "random"))
            if kind == "zero":
                return [[0] * cols for _ in range(h)]
            if kind == "low":
                return in_span([random_row() for _ in range(rng.randrange(h))], h)
            return [random_row() for _ in range(h)]
        top = top_rows(h)
        upper = block(top) if rng.random() < 0.8 else [[0] * cols for _ in range(top)]
        kind = rng.choice(("span", "span", "zero", "new", "one new", "one new"))
        if kind == "span":
            lower = in_span(upper, h - top)
        elif kind == "zero":
            lower = [[0] * cols for _ in range(h - top)]
        elif kind == "new":
            lower = block(h - top)
        else:
            lower = in_span(upper, h - top - 1)
            lower.insert(rng.randrange(h - top), random_row())
        return upper + lower

    return block(height), cols, p


@settings(max_examples=60, deadline=None)
@given(planted_blocks(), st.integers(0, CHUNK))
def test_planted_blocks_match_reference(case, cut):
    rows, cols, p = case
    m = as_array(rows, cols)
    expected = reference_rank(rows, p)
    assert rank(m, p) == expected
    reducer = RowReducer(cols, p)
    reducer.add_rows(m[:cut])
    reducer.add_rows(m[cut:])
    assert reducer.rank == expected


def test_rank_above_the_two_product_inner_dimension():
    """Rank 66 at p = 2^31 - 1: the merges' products have inner dimension
    above 64, where matmul_mod splits both operands."""
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    a = rng.integers(0, p, size=(CHUNK + 1, 66)).tolist()
    b = rng.integers(0, p, size=(66, 70)).tolist()
    rows = [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(70)]
            for row in a]
    rows[5] = rows[70]
    expected = reference_rank(rows, p)
    assert expected == 66
    assert rank(as_array(rows, 70), p) == expected


@settings(max_examples=60, deadline=None)
@given(planted_matrices(), st.data())
def test_seeded_reducer_matches_reference(case, data):
    """A reducer seeded with the basis of rows over the first w columns
    spans those rows padded with zeros: rows fed on top of the seed give
    the rank of both together."""
    rows, cols, p = case
    width = data.draw(st.integers(0, cols))
    cut = data.draw(st.integers(0, len(rows)))
    below = [row[:width] for row in rows[:cut]]
    seed = RowReducer(width, p)
    seed.add_rows(as_array(below, width))
    reducer = RowReducer(cols, p, seed.echelon)
    assert reducer.rank == seed.rank
    reducer.add_rows(as_array(rows[cut:], cols))
    padded = [row + [0] * (cols - width) for row in below]
    assert reducer.rank == reference_rank(padded + rows[cut:], p)


def test_seed_wider_than_the_reducer_is_rejected():
    seed = RowReducer(4, 101)
    seed.add_rows(np.eye(4, dtype=np.int64))
    with pytest.raises(ValueError, match="columns"):
        RowReducer(3, 101, seed.echelon)
