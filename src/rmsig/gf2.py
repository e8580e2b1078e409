"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D and matrices 2-D uint8 arrays with entries in {0, 1};
addition is XOR.  Gaussian elimination (rref) runs on bit-packed rows.
The one inverse the scheme takes, of keygen's unit triangular factors of
the scrambler S, is a block recursion on products (invert).

A matrix used for many products is read through a table of its packed
lines.  A ProductTable is a Four-Russians table of packed uint64 rows
for a @ b by a fixed b (the signing path's S^-1, H_m^T for the check of
decoded errors), and stands in place of b in mat_mul.  A ColumnTable
holds the packed columns of a fixed a (the public key's H'), and mat_vec
returns its product by a vector packed.  Each table is built from its
matrix's packed lines: pack_columns packs the columns of a packed
matrix from a few of its rows unpacked at a time, and a table of the
head of a matrix reads the head of its packed rows as they are, so no
table of a key unpacks the key's matrix.  A table, and a product by one,
packs a matrix or operand where it lies, by rows or, for a transposed
view, by columns (_packed_rows, _packbits_axis0), so neither makes a
transposing copy.  Any other product goes through mat_mul, which builds
a ProductTable for the call when both matrices are large and otherwise
multiplies in float32 BLAS, exact below 2**24 terms.

Bit packing convention, the one layout of every packed matrix (the key
files, the keys' and codes' packed fields, the tables and mat_vec's
products): row-major, each row padded to a whole number of bytes,
MSB-first within a byte (bit j of a row lives in byte j//8 at mask
128 >> (j % 8)).  A SHAKE digest read as a bit string MSB-first
(scheme.hash_to_syndrome) has the same layout.
"""

from __future__ import annotations

import math

import numpy as np


class RankError(ValueError):
    """Requested pivot columns are linearly dependent."""


_GATHER_WORDS = 1 << 17
"""Largest temporary of a table product, in uint64 words (1 MB)."""

_ROW_BLOCK = 128
"""Rows of a that a table product gathers for at a time (ProductTable)."""


class ProductTable:
    """Four-Russians table for products a @ b by one fixed matrix b.

    The k rows of b are packed into uint64 words and split into groups
    of four; the table holds, for every group, the XOR of each of its 16
    row subsets, built by doubling: the subsets with one more row are
    those without it XOR that row.  A product then reads one table row
    per group of four bits of a and XORs them (the method of Arlazarov,
    Dinic, Kronrod and Faradzev; Albrecht and Bard's M4RI).  The table
    takes 16 * 2*ceil(k/8) * ceil(c/64) words.

    ProductTable(b) packs b where it lies (_packed_rows): a transposed
    view by columns, anything else by rows; a product packs a the same
    way.  a is a view of the decoder's (n, rows) columns for every batch
    of decoded errors, so it is packed without a transposing copy.
    from_packed takes b's rows already packed: the table of H_m^T, by
    which decoder.check_leaders multiplies decoded errors, is built from
    H_m's packed columns (pack_columns), and keygen's table of
    H_m[:, :k] from the head of H_m's packed rows.  Both constructors
    meet in _init_packed.  Rows are packed MSB-first, so group 2j is
    selected by the high nibble of a's packed byte j, whose high bit
    selects the group's first row, and group 2j + 1 by the low nibble.

    A product takes a's rows _ROW_BLOCK at a time.  For each block it
    gathers only the groups from the block's first to its last nonzero
    packed byte: any other group reads its zero row in every row of the
    block.  A dense block spans every group, and a triangular a about
    half of them, so the products with a triangle on the left (keygen's
    L @ U, the key load's U^-1 @ L^-1 and invert's joins B^-1 (C A^-1))
    skip the zero triangle with no flag from their callers.  The table
    rows are gathered with take, into one buffer of at most _GATHER_WORDS
    words that every block and chunk of groups reuses, and XORed chunk
    by chunk; a block of 128 rows fits more groups into one gather than
    a single row does.
    """

    ndim = 2  # stands in for its matrix in mat_mul's shape checks

    def __init__(self, b: np.ndarray) -> None:
        b = np.asarray(b, dtype=np.uint8)
        if b.ndim != 2:
            raise ValueError(f"product table needs a matrix, got shape {b.shape}")
        self._init_packed(_packed_rows(b), b.shape[1])

    @classmethod
    def from_packed(cls, rows: np.ndarray, c: int) -> ProductTable:
        """The table of the k x c matrix b whose rows `rows` holds packed
        in pack_bits' layout.  Bits of the last byte past column c need
        not be zero: they reach only product columns the unpack drops."""
        table = cls.__new__(cls)
        table._init_packed(rows, c)
        return table

    def _init_packed(self, rows: np.ndarray, c: int) -> None:
        k = rows.shape[0]
        k_bytes, words = (k + 7) // 8, (c + 63) // 64
        packed = np.zeros((8 * k_bytes, 8 * words), dtype=np.uint8)
        packed[:k, : (c + 7) // 8] = rows
        quads = packed.view(np.uint64).reshape(2 * k_bytes, 4, words)
        # Subset s + 2**j of a group is subset s with row 3 - j added.
        table = np.empty((2 * k_bytes, 16, words), dtype=np.uint64)
        table[:, 0] = 0
        for j in range(4):
            np.bitwise_xor(table[:, : 1 << j], quads[:, 3 - j, None], out=table[:, 1 << j : 2 << j])
        table.flags.writeable = False
        self.shape = (k, c)
        self._table = table.reshape(32 * k_bytes, words)
        self._group_base = np.arange(0, 32 * k_bytes, 16)[:, None]

    def product(self, a: np.ndarray) -> np.ndarray:
        """a @ b for the rows of a (binary, rows x k)."""
        rows = a.shape[0]
        packed = _packed_rows(a).T
        k_bytes, words = packed.shape[0], self._table.shape[1]
        block = min(rows, _ROW_BLOCK)
        step = max(1, _GATHER_WORDS // max(1, block * words))
        picks_buffer = np.empty(2 * k_bytes * block, dtype=np.intp)
        gathered = np.empty(min(step, 2 * k_bytes) * block * words, dtype=np.uint64)
        acc = np.zeros((rows, words), dtype=np.uint64)
        for lo in range(0, rows, _ROW_BLOCK):
            part = packed[:, lo : lo + _ROW_BLOCK]
            # A byte outside [first, last) is zero in every row of the
            # block, so its two groups would read their zero rows.
            live = part.any(axis=1)
            first = int(live.argmax())
            if not live[first]:
                continue
            last = k_bytes - int(live[::-1].argmax())
            span, count = part[first:last], part.shape[1]
            # Table row per (group of four columns of a, row of a): group 2j
            # reads the high nibble of packed byte j, group 2j+1 the low one.
            picks = picks_buffer[: 2 * span.size].reshape(span.shape[0], 2, count)
            np.right_shift(span, 4, out=picks[:, 0])
            np.bitwise_and(span, 15, out=picks[:, 1])
            picks = picks.reshape(-1, count)
            picks += self._group_base[2 * first : 2 * last]
            out = acc[lo : lo + count]
            for start in range(0, picks.shape[0], step):
                chunk = picks[start : start + step]
                got = gathered[: chunk.size * words].reshape(chunk.shape[0], count, words)
                # Every index is in range; mode="raise" would buffer the output.
                self._table.take(chunk, axis=0, out=got, mode="clip")
                out ^= np.bitwise_xor.reduce(got, axis=0)
        return np.unpackbits(acc.view(np.uint8), axis=1, count=self.shape[1])


_BIT_WEIGHTS = {size: np.right_shift(128, np.arange(8)).astype(f"u{size}") for size in (1, 2, 4, 8)}


def _packbits_axis0(at: np.ndarray) -> np.ndarray:
    """np.packbits(at, axis=0) for a binary (k, rows) array with
    contiguous rows, without packbits' strided reads along axis 0.

    Byte j of column r is the sum of at[8j + i, r] << (7 - i) over i < 8.
    A bit shifted by at most 7 stays inside its byte, so uint64 words
    carry 8 columns at once, and one integer matmul by the weights 128,
    64, ..., 1 packs them all; the last rows % 8 columns take the widest
    word that divides their number, since the widest words pack fastest.
    """
    k, rows = at.shape
    full, wide = k // 8, rows - rows % 8
    packed = np.empty(((k + 7) // 8, rows), dtype=np.uint8)
    for lo, hi in ((0, wide), (wide, rows)):
        size = math.gcd(hi - lo, 8)
        word, weights = np.dtype(f"u{size}"), _BIT_WEIGHTS[size]
        src, dst = at[:, lo:hi].view(word), packed[:, lo:hi].view(word)
        np.matmul(weights, src[: 8 * full].reshape(full, 8, src.shape[1]), out=dst[:full])
        if full < dst.shape[0]:
            np.matmul(weights[: k - 8 * full], src[8 * full :], out=dst[full])
    return packed


def _packed_rows(a: np.ndarray) -> np.ndarray:
    """np.packbits(a, axis=1), without a transposing copy of a
    transposed view a, whose columns _packbits_axis0 packs."""
    if a.strides[0] == 1 and not a.flags.c_contiguous:
        return _packbits_axis0(a.T).T
    return np.packbits(a, axis=1)


class ColumnTable:
    """The columns of one fixed matrix a, packed for products a @ v: the
    public key's H', by which verification multiplies.

    ColumnTable(columns, rows) takes the columns of the rows x cols
    matrix a packed, one per row, in np.packbits(a.T, axis=1)'s layout,
    as pack_columns writes them from a's packed rows.  Each is
    zero-padded to ceil(rows/64) uint64 words, and a @ v is the XOR of
    the table rows at the support of v (mat_vec).
    """

    def __init__(self, columns: np.ndarray, rows: int) -> None:
        packed = np.zeros((columns.shape[0], 8 * ((rows + 63) // 64)), dtype=np.uint8)
        packed[:, : (rows + 7) // 8] = columns
        packed.flags.writeable = False
        self.shape = (rows, columns.shape[0])
        self._columns = packed.view(np.uint64)


def mat_vec(table: ColumnTable, support: np.ndarray) -> np.ndarray:
    """a @ v for the matrix a of table and the binary v whose 1s lie at
    the indices support, as ceil(rows/8) bytes packed MSB-first with zero
    pad bits: pack_bits' layout of one row, and a SHAKE digest's.

    The table rows at support are gathered with take and XORed by one
    segment of reduceat, which is faster than bitwise_xor.reduce.
    """
    size = (table.shape[0] + 7) // 8
    if support.size == 0:  # reduceat below needs a row
        return np.zeros(size, dtype=np.uint8)
    picked = table._columns.take(support, axis=0)
    return np.bitwise_xor.reduceat(picked, _ONE_SEGMENT, axis=0)[0].view(np.uint8)[:size]


_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
"""reduceat's indices for one segment from row 0, made once, not per product."""


_TABLE_MIN = 256


def mat_mul(
    a: np.ndarray, b: np.ndarray | ProductTable, table: ProductTable | None = None
) -> np.ndarray:
    """GF(2) product a @ b; a 1-D b gives the matrix-vector product.

    With table, a ProductTable built from the matrix b, the product reads
    the table instead of multiplying; such a table may also stand in
    place of b, so a caller that keeps b packed never unpacks it.
    Without one, a product of an a with at least _TABLE_MIN rows by a b
    with at least _TABLE_MIN columns builds a ProductTable for the call,
    which holds no float copies and beats BLAS at such sizes.  Other
    products go through BLAS, which beats building a table when a has
    few rows.  BLAS runs in float32, whose sums are exact below 2**24
    terms, so its copies of the operands take half the bytes of float64
    ones.  An entry counts by its least significant bit.
    """
    if isinstance(a, ProductTable):
        raise ValueError("a product table stands in for the right operand only")
    a = np.asarray(a, dtype=np.uint8)
    if isinstance(b, ProductTable):
        table = b if table is None else table
    else:
        b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for GF(2) product: {a.shape} x {b.shape}")
    if table is not None:
        if not isinstance(table, ProductTable) or table.shape != b.shape:
            name = type(table).__name__
            raise ValueError(f"{name} of shape {table.shape} used for {a.shape} x {b.shape}")
        return table.product(a)
    if b.ndim == 1:
        # Parity of the selected columns; uint8 sums wrap mod 256, parity survives.
        picked = np.take(a, np.flatnonzero(b & 1), axis=1)
        return picked.sum(axis=1, dtype=np.uint8) & 1
    if a.shape[0] >= _TABLE_MIN and b.shape[1] >= _TABLE_MIN:
        return ProductTable(b).product(a)
    # float32 sums of 0/1 products are exact below 2**24 terms.
    real = np.float32 if a.shape[1] < 1 << 24 else np.float64
    prod = a.astype(real) @ b.astype(real)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Args:
        a: binary matrix, any shape.

    Returns:
        (R, pivot_cols): R is the fully reduced matrix (same shape),
        pivot_cols the ascending pivot column indices (len = rank).
    """
    a = np.ascontiguousarray(a, dtype=np.uint8)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return a.copy(), []
    packed = np.packbits(a, axis=1)
    pivots: list[int] = []
    rr = 0
    for col in range(cols):
        byte, mask = col >> 3, np.uint8(128 >> (col & 7))
        below = np.nonzero(packed[rr:, byte] & mask)[0]
        if below.size == 0:
            continue
        src = rr + int(below[0])
        if src != rr:
            packed[[rr, src]] = packed[[src, rr]]
        # Clear this column in every other row (full reduction).
        hit = np.nonzero(packed[:, byte] & mask)[0]
        hit = hit[hit != rr]
        if hit.size:
            packed[hit] ^= packed[rr]
        pivots.append(col)
        rr += 1
        if rr == rows:
            break
    out = np.unpackbits(packed, axis=1)[:, :cols]
    return out, pivots


_INVERT_BLOCK = 64


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of a unit lower- or unit upper-triangular GF(2) matrix.

    Such a matrix is always invertible, and so is the product of two of
    them, which is how keygen draws the scrambler S (see
    random_unit_triangular); no program path inverts a general matrix.
    An upper matrix is inverted as the transpose of a lower one.  On one
    BLAS thread both 1586-row factors of an RM(12,6) scrambler take
    26-28 ms (best and median of 9, in three processes), against 30-43 ms
    when the join B^-1 (C A^-1) read every group of its triangular B^-1
    (see ProductTable), and 193-204 ms, when last measured, for a
    Gauss-Jordan inverse of their product.

    Raises:
        ValueError: unless a is square and binary, with a unit diagonal
            and zeros on one side of it.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    n = a.shape[0]
    if n == 0 or a.max() > 1:
        raise ValueError("matrix is empty or not binary")
    # The first 1 of every row on the diagonal makes a unit upper matrix,
    # the last 1 a unit lower one.  argmax stops at the first True.
    bits, diagonal = a.view(np.bool_), np.arange(n)
    if np.array_equal(bits.argmax(axis=1), diagonal):
        return np.ascontiguousarray(_invert_unit_lower(a.T).T)
    if np.array_equal(bits[:, ::-1].argmax(axis=1), diagonal[::-1]):
        return _invert_unit_lower(a)
    raise ValueError("matrix is not unit lower or unit upper triangular")


def _invert_unit_lower(a: np.ndarray) -> np.ndarray:
    """Inverse of a unit lower-triangular a.

    The diagonal blocks of _INVERT_BLOCK rows are inverted together: each
    is I + N with N strictly lower, so N^64 = 0 and (I + N)^-1 = I + N +
    ... + N^63 = prod_j (I + N^(2^j)) over j < 6, ten stacked float32
    products whose sums stay below 66.  _fill_below then joins them.
    """
    n = a.shape[0]
    starts = range(0, n, _INVERT_BLOCK)
    blocks = np.zeros((len(starts), _INVERT_BLOCK, _INVERT_BLOCK), dtype=np.float32)
    blocks[:] = np.eye(_INVERT_BLOCK, dtype=np.float32)  # pads the last block
    for block, lo in zip(blocks, starts):
        size = min(_INVERT_BLOCK, n - lo)
        block[:size, :size] = a[lo : lo + size, lo : lo + size]
    power = blocks - np.eye(_INVERT_BLOCK, dtype=np.float32)
    inv = blocks
    for _ in range(1, (_INVERT_BLOCK - 1).bit_length()):
        power = ((power @ power).astype(np.uint8) & 1).astype(np.float32)
        inv = ((inv + inv @ power).astype(np.uint8) & 1).astype(np.float32)
    out = np.zeros((n, n), dtype=np.uint8)
    for block, lo in zip(inv, starts):
        size = min(_INVERT_BLOCK, n - lo)
        out[lo : lo + size, lo : lo + size] = block[:size, :size]
    _fill_below(a, out, 0, n)
    return out


def _fill_below(a: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Complete out[lo:hi, lo:hi] to the inverse of a[lo:hi, lo:hi], given
    its inverted diagonal blocks.

    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [B^-1 C A^-1, B^-1]] over GF(2),
    split at a multiple of _INVERT_BLOCK rows.
    """
    if hi - lo <= _INVERT_BLOCK:
        return
    mid = lo + _INVERT_BLOCK * ((hi - lo + 2 * _INVERT_BLOCK - 1) // (2 * _INVERT_BLOCK))
    _fill_below(a, out, lo, mid)
    _fill_below(a, out, mid, hi)
    c_a_inv = mat_mul(a[mid:hi, lo:mid], out[lo:mid, lo:mid])
    out[mid:hi, lo:mid] = mat_mul(out[mid:hi, mid:hi], c_a_inv)


def random_bits(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform bits, the ones rng.integers(0, 2, shape, np.uint8) draws.

    That draw (Lemire's method) returns the top bit of one random byte
    per entry, so the bits are taken from a full-range byte draw, which
    leaves rng in the same state: 3.1-3.4 against 6.8-7.2 ms for
    1586 x 1586 bits (best and median of 21).
    """
    bits = rng.integers(0, 256, size=shape, dtype=np.uint8)
    bits >>= 7
    return bits


def random_unit_triangular(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random unit lower- and unit upper-triangular n x n factors (L, U),
    deterministic per rng state.

    Their product L @ U is invertible, so no rejection loop is needed,
    and so are both factors (see invert).  Each draw is cut to its
    triangle in place, row by row, which allocates nothing: both factors
    of an RM(12,6) scrambler take 10-17 ms against 30-40 ms with np.tril,
    np.triu and integers(0, 2) (best and median of 21, three runs).  A
    mask of the strict lower triangle, ANDed in place, was about as fast
    but raised the benchmark's roundtrip-rm12 peak RSS from 152.2 to
    155.1 MB (perfbench/run.py), where the row loop reads 151.5 MB.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = random_bits((n, n), rng)
    for i in range(n):
        lo[i, i:] = 0
    up = random_bits((n, n), rng)
    for i in range(n):
        up[i, :i] = 0
    np.fill_diagonal(lo, 1)
    np.fill_diagonal(up, 1)
    return lo, up


_COLUMN_BLOCK_CELLS = 1 << 18
"""Largest block of rows that pack_columns unpacks at once, in bits (256 KB)."""


def pack_columns(packed: np.ndarray, cols: int) -> np.ndarray:
    """The columns of the matrix a whose rows packed holds in pack_bits'
    layout, packed as the tables take them: np.packbits(a.T, axis=1),
    row j being column j.

    a is unpacked a block of whole bytes of rows at a time, and each
    block is packed by columns with _packbits_axis0, so a is never whole.
    """
    rows = packed.shape[0]
    out = np.empty(((rows + 7) // 8, cols), dtype=np.uint8)
    step = max(8, _COLUMN_BLOCK_CELLS // cols // 8 * 8)
    for lo in range(0, rows, step):
        bits = np.unpackbits(packed[lo : lo + step], axis=1, count=cols)
        out[lo // 8 : (lo + bits.shape[0] + 7) // 8] = _packbits_axis0(bits)
    return np.ascontiguousarray(out.T)


def pack_bits(a: np.ndarray) -> bytes:
    """Pack a vector or matrix row-major, each row byte-padded, MSB first."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    return np.packbits(a, axis=1).tobytes()

