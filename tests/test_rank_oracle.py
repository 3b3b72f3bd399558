"""Differential rank oracle: every rank path of modp against a slow
pure-Python elimination over Python integers.

Inputs plant their rank structure: products A.B mod p with a known inner
dimension, duplicated rows, linear combinations of rows, zero rows, rows
of entries p - 1 (the largest limbs), and shapes on both sides of the
kernel's chunk size.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from genforms.modp import CHUNK, RowReducer, incremental_rank, rank

PRIMES = (2, 3, 101, 65537, 2**31 - 1)
STRADDLE = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)


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
    n_rows = draw(st.sampled_from(STRADDLE) | st.integers(0, 2 * CHUNK + 2))
    cols = draw(st.sampled_from(STRADDLE[1:]) | st.integers(1, 24))
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
    stream = (np.array(row, dtype=np.int64) for row in rows)
    assert incremental_rank(stream, cols, p) == reference_rank(rows, p)


@settings(max_examples=40, deadline=None)
@given(planted_matrices(), st.lists(st.integers(0, 2 * CHUNK + 2), max_size=5))
def test_row_reducer_random_blocks_match_reference(case, cuts):
    rows, cols, p = case
    m = as_array(rows, cols)
    bounds = [0] + sorted(c for c in cuts if c < len(rows)) + [len(rows)]
    reducer = RowReducer(cols, p)
    added = sum(reducer.add_rows(m[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    expected = reference_rank(rows, p)
    assert reducer.rank == added == expected
    assert reducer.full_column_rank == (expected == cols)
