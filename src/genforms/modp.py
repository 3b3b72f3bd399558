"""Prime-field Gaussian elimination: one echelon kernel for every rank.

The basis is kept in reduced row echelon form. Its pivot columns form an
identity block, so only the free (non-pivot) columns are stored: an
r x (cols - r) matrix F. Rows are fed in chunks of CHUNK rows (a stream
of shorter blocks is grouped into chunks of at most CHUNK rows), and each
chunk is merged into the basis in three steps:

1. reduce it against the basis with one product, free -= chunk[:, piv] @ F;
2. put the reduced chunk into RREF;
3. back-reduce F by the chunk's new pivots with a second product.

Step 2 is the same merge, recursively: a block taller than its leaf
height is split in two, its top part put into RREF, and its bottom part
merged into the top part by the same two products. Only leaves reach the
Python pivot loop (`_gauss_jordan`): blocks of at most
max(BASE, LEAF_ENTRIES // width) rows. A narrow block is eliminated
whole (nearly every block of the small n=3 eliminations, a median of 10
rows by 117-147 columns, is one leaf), and a wide one, 512 columns or
more, is split down to BASE rows, so the work inside a wide chunk is
BLAS products, not pivot steps that grow with its height, and the basis-wide
products of steps 1 and 3 run once per CHUNK rows. This is the recursive
echelon of FFLAS-FFPACK (Dumas, Giorgi & Pernet, arXiv:cs/0601133; rank
profiles as in Jeannerod, Pernet & Storjohann, arXiv:1112.5717).

Reductions mod p are delayed, as in FFLAS-FFPACK, to where the exact
integer range would be left:

- a pivot step reduces its own row and the column of factors, and
  subtracts factor * pivot row, at most (p - 1)^2, from the other rows
  as they stand. After s steps every entry e has |e| < p + s (p - 1)^2,
  so the leaf is reduced as a whole only when one more step could leave
  int64, when (s + 1)(p - 1)^2 + p >= 2^63: never inside a leaf at the
  default prime (8 388 672 steps fit, a leaf takes at most 64), before
  every second step from the third on at p = 2^31 - 1. Its pivot rows
  are reduced once, when it returns;
- every product goes through `matmul_mod`, which multiplies float64 BLAS
  matrices and reduces mod p only once per product, after subtracting
  it from the rows it updates (`subtract_from`).

A float64 sum of integers is exact below 2^53, so `matmul_mod` uses the
fewest products whose partial sums stay below that (`_limb_products`):

- one product of the operands as they are, when inner (p - 1)^2 < 2^53:
  at the default p = 1048573 (the largest prime below 2^20), every inner
  dimension up to 8192;
- two, with b split into 16-bit limbs, when inner (p - 1)(2^16 - 1) < 2^53:
  at p = 1048573 inner 8193..131074, at p = 2^31 - 1 inner up to 64;
- four, with both operands split, otherwise: at p = 1048573 inner
  131075..2^20 - 1, at p = 2^31 - 1 inner 65..2^20 - 1.

So the result is exact for p < 2^31 and inner dimension below 2^20; the
kernel rejects larger moduli. A block is reduced as x -= x // p * p:
numpy floor-divides int64 by a scalar with a precomputed multiplier,
faster than x % p on blocks of a thousand entries or more, and the
result is exact for |x| < 2^63 - p, since (x // p) p lies in (x - p, x].
Any prime certifies the same way (see `macaulay`); a smaller one only
makes an unlucky draw, and so a retry, likelier. Rank does not depend on
the elimination order, so batch, blockwise and streamed ranks agree.

A reducer may start from a seed: a basis in compact RREF over all of its
columns, taken over as it stands (see `RowReducer`).
"""

from __future__ import annotations

import numpy as np

# The largest prime below 2^20: every product of inner dimension up to
# 8192 is one float64 GEMM (see `_limb_products`).
DEFAULT_PRIME = 1048573
PRIME_BOUND = 2**31

# Rows per chunk merged into the basis. Each chunk costs one pass over F
# in two products; inside a chunk the recursion's products are small.
CHUNK = 128
# A leaf, a block that goes through the Python pivot loop whole, has at
# most BASE rows or at most LEAF_ENTRIES entries: a block of 117-147
# columns is one leaf up to 27-35 rows, one of 512 columns or more splits
# down to BASE rows, where products beat pivot steps. A leaf takes at
# most 64 pivot steps, on a 64 x 64 block.
BASE = 8
LEAF_ENTRIES = 4096
# int64 holds the integers of absolute value below this.
_INT64_BOUND = 2**63
# Inner dimensions below this keep every limb product sum below 2^53.
_MAX_INNER = 2**20
# Entries per column stripe of a product: float64 temporaries of 512 KB.
_STRIPE_ENTRIES = 2**16

# Telemetry: number of RowReducer constructions. The CLI uses this to
# prove cache hits do no linear algebra.
ELIMINATION_CALLS = 0


def _count_call():
    global ELIMINATION_CALLS
    ELIMINATION_CALLS += 1


def reset_telemetry():
    global ELIMINATION_CALLS
    ELIMINATION_CALLS = 0


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond machine-word moduli."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless 2 <= p < 2^31, the kernel's exact range."""
    if not 2 <= p < PRIME_BOUND:
        raise ValueError(
            f"modulus {p} is outside [2, 2^31): elimination mod p is exact "
            "only below 2^31"
        )


def _limbs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 16-bit limbs of a nonnegative int64 matrix, as float64."""
    return (m >> 16).astype(np.float64), (m & 0xFFFF).astype(np.float64)


def _limb_products(inner: int, p: int) -> int:
    """The fewest float64 products that give a @ b exactly for entries in
    [0, p) and this inner dimension, each partial sum below 2^53:

    - 1 when inner (p - 1)^2 < 2^53: a @ b as it is;
    - 2 when inner (p - 1)(2^16 - 1) < 2^53: a @ (each 16-bit limb of b);
    - 4 otherwise: each limb of a @ each limb of b.
    """
    if inner * (p - 1) ** 2 < 2**53:
        return 1
    if inner * (p - 1) * 0xFFFF < 2**53:
        return 2
    return 4


def matmul_mod(
    a: np.ndarray, b: np.ndarray, p: int, subtract_from: np.ndarray | None = None
) -> np.ndarray:
    """Exact a @ b mod p for int64 matrices with entries in [0, p).

    With as few products as `_limb_products` allows: one float64 BLAS
    matmul when the inner dimension is small enough for p (at the default
    p, up to 8192), reduced mod p once. Otherwise b = bh 2^16 + bl, and
    a = ah 2^16 + al when four products are needed (else ah = 0, al = a);
    each limb product is a float64 matmul whose entries stay below 2^53,
    and the result is recombined mod p by Horner's rule in 2^16. Computed
    in column stripes of b so the temporaries stay small.

    subtract_from, an int64 matrix of the product's shape with entries in
    [0, p), is overwritten with (subtract_from - a @ b) mod p and
    returned: the unreduced product, below 2^53 or below p 2^16 + 2^53
    after Horner's rule, is subtracted first, so it costs no second
    reduction.
    """
    check_modulus(p)
    inner = a.shape[1]
    if inner != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {inner} and {b.shape[0]}")
    if inner >= _MAX_INNER:
        raise ValueError(
            f"inner dimension {inner} leaves the exact range (< {_MAX_INNER})"
        )
    shape = (a.shape[0], b.shape[1])
    if subtract_from is None:
        out = np.empty(shape, dtype=np.int64)
    elif subtract_from.shape == shape:
        out = subtract_from
    else:
        raise ValueError(f"cannot subtract a {shape} product from {subtract_from.shape}")
    products = _limb_products(inner, p)
    ah, al = _limbs(a) if products == 4 else (None, a.astype(np.float64))
    width = max(1, _STRIPE_ENTRIES // max(inner, a.shape[0], 1))
    for j in range(0, b.shape[1], width):
        stripe = b[:, j : j + width]
        if products == 1:
            acc = (al @ stripe.astype(np.float64)).astype(np.int64)
        else:
            bh, bl = _limbs(stripe)
            if products == 4:
                acc = (ah @ bh).astype(np.int64)
                acc -= acc // p * p
                acc <<= 16
                acc += (ah @ bl + al @ bh).astype(np.int64)
            else:
                acc = (al @ bh).astype(np.int64)
            acc -= acc // p * p
            acc <<= 16
            acc += (al @ bl).astype(np.int64)
        if subtract_from is not None:
            np.subtract(out[:, j : j + width], acc, out=acc)
        acc -= acc // p * p
        out[:, j : j + width] = acc
    return out


def _gauss_jordan(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of m (entries in [0, p)), in place.

    Returns (pivot rows, pivot column of each pivot row), reduced mod p.
    Each pivot row has a 1 in its own pivot column and 0 in the other
    pivot columns. The base case of `_echelon`, for leaves.

    The reduction mod p is delayed. A pivot step reduces only its own
    row, just before the pivot search, and the column of factors; it
    subtracts factor * pivot row, at most (p - 1)^2 per entry, from every
    other row as it stands. After s steps every entry e has
    |e| < p + s (p - 1)^2, so the whole leaf is reduced only when one
    more step could leave int64, that is when (s + 1)(p - 1)^2 + p >= 2^63:
    never at the default prime, before every second step from the third
    on at p = 2^31 - 1. This is a bound on the arithmetic, checked at
    every step, not an assert. The pivot rows are reduced once, on
    return.
    """
    # the most steps between two reductions: the largest s with
    # p + s (p - 1)^2 < 2^63, 8 388 672 at the default prime, 2 at 2^31 - 1
    delayed = (_INT64_BOUND - 1 - p) // (p - 1) ** 2
    unreduced = 0  # pivot steps since the leaf was last reduced
    pivots = []
    rows = []
    for i in range(m.shape[0]):
        row = m[i]
        row %= p
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        if unreduced >= delayed:
            m -= m // p * p
            unreduced = 0
        # m[i] is zero left of c, so only columns c: change
        tail = m[:, c:]
        pivot = tail[i]
        pivot *= pow(int(pivot[0]), -1, p)
        pivot %= p
        factors = tail[:, 0] % p
        factors[i] = 0
        tail -= factors[:, None] * pivot
        unreduced += 1
        pivots.append(c)
        rows.append(i)
    m = m[rows]
    m -= m // p * p
    return m, pivots


# A row space in compact RREF over some columns: the pivot columns, the
# free columns (both as index arrays) and the r x len(free) free block.
Echelon = tuple[np.ndarray, np.ndarray, np.ndarray]


def _echelon(m: np.ndarray, p: int) -> Echelon:
    """Compact RREF of m (entries in [0, p); its rows are overwritten).

    A leaf, a block of at most max(BASE, LEAF_ENTRIES // width) rows,
    goes through `_gauss_jordan` whole: so a narrow block, such as 32
    rows of 128 columns or a whole chunk of 32 columns, takes no product
    at all. A taller one is split after a multiple of BASE rows near its
    middle: the top part is put into RREF, and the bottom part is merged
    into it.
    """
    if m.shape[0] <= max(BASE, LEAF_ENTRIES // max(1, m.shape[1])):
        rows, pivots = _gauss_jordan(m, p)
        is_free = np.ones(m.shape[1], dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        return np.array(pivots, dtype=np.intp), free, rows[:, free]
    top = BASE * -(-m.shape[0] // (2 * BASE))
    return _merge(_echelon(m[:top], p), m[top:], p)


def _merge(echelon: Echelon, block: np.ndarray, p: int) -> Echelon:
    """The compact RREF of the span of echelon and a block of rows over
    the same columns (entries in [0, p)), in three steps:

    1. reduce the block by the basis, block[:, free] -= block[:, pivots] @ F;
    2. put the reduced block into RREF (`_echelon`);
    3. back-reduce F by the block's new pivots with a second product.
    """
    pivots, free, basis = echelon
    if free.size == 0 or block.shape[0] == 0:
        return echelon
    reduced = block[:, free]
    if pivots.size:
        matmul_mod(block[:, pivots], basis, p, subtract_from=reduced)
    new_pivots, new_free, new_rows = _echelon(reduced, p)
    if new_pivots.size == 0:
        return echelon
    # the new pivot columns leave the free block: after back-reduction
    # they are identity columns, so they are dropped, not updated
    kept = basis[:, new_free]
    if pivots.size:
        matmul_mod(basis[:, new_pivots], new_rows, p, subtract_from=kept)
    return (
        np.concatenate([pivots, free[new_pivots]]),
        free[new_free],
        np.vstack([kept, new_rows]),
    )


class RowReducer:
    """A row space over Z/p grown by blocks of rows, with its rank.

    The basis is in reduced row echelon form, stored as its pivot columns
    and the r x (cols - r) block of its free columns. Rows are merged
    into it CHUNK at a time (`_merge`).

    seed, if given, is the compact RREF of a row space over all cols
    columns, the starting basis as it stands, with no arithmetic (a seed
    over any other number of columns raises ValueError). Without a seed
    the basis starts empty.
    """

    def __init__(self, cols: int, p: int = DEFAULT_PRIME, seed: Echelon | None = None):
        check_modulus(p)
        _count_call()
        self.cols = cols
        self.p = p
        if seed is None:
            seed = (
                np.zeros(0, dtype=np.intp),
                np.arange(cols),
                np.zeros((0, cols), dtype=np.int64),
            )
        width = seed[0].size + seed[1].size
        if width != cols:
            raise ValueError(f"seed has {width} columns, not {cols}")
        self._echelon: Echelon = seed

    @property
    def echelon(self) -> Echelon:
        """The basis in compact RREF: pivot columns, free columns, free block."""
        return self._echelon

    @property
    def rank(self) -> int:
        return self._echelon[0].size

    @property
    def full_column_rank(self) -> bool:
        return self.rank == self.cols

    def add_rows(self, block) -> int:
        """Reduce a block of rows; returns the number of new basis rows."""
        b = np.atleast_2d(np.asarray(block, dtype=np.int64))
        if b.shape[0] and b.shape[1] != self.cols:
            raise ValueError(f"expected {self.cols} columns, got {b.shape[1]}")
        before = self.rank
        for start in range(0, b.shape[0], CHUNK):
            if self.full_column_rank:
                break
            chunk = b[start : start + CHUNK] % self.p
            self._echelon = _merge(self._echelon, chunk, self.p)
        return self.rank - before

    def add_blocks(self, blocks) -> int:
        """Reduce a stream of row blocks; returns the number of new basis
        rows.

        Consecutive blocks are grouped into merges of at most CHUNK rows;
        a taller block is merged on its own, and `add_rows` splits it. A
        group is merged as soon as it could bring the basis to full
        column rank, and no block is pulled once the basis has it, so a
        lazy stream's later blocks are never built.
        """
        before = self.rank
        blocks = iter(blocks)
        group, height = [], 0
        while not self.full_column_rank:
            block = next(blocks, None)
            if block is None:
                break
            block = np.atleast_2d(np.asarray(block, dtype=np.int64))
            if height + block.shape[0] > CHUNK:
                self._add_group(group)
                group, height = [], 0
            group.append(block)
            height += block.shape[0]
            if height >= CHUNK or self.rank + height >= self.cols:
                self._add_group(group)
                group, height = [], 0
        self._add_group(group)
        return self.rank - before

    def _add_group(self, group) -> None:
        if group:
            self.add_rows(group[0] if len(group) == 1 else np.vstack(group))

