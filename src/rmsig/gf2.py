"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D and matrices 2-D uint8 arrays with entries in {0, 1};
addition is XOR.  Gaussian elimination (rref) runs on bit-packed rows.
The one inverse the scheme takes, of a unit lower-triangular matrix
(keygen's factors L and U^T of the scrambler S), is a block recursion on
products (invert).  cut_unit_lower cuts every unit triangle.

A matrix b used for many products is held in one table type, a
ProductTable of b's packed rows, and every product of a table is packed
rows too.  mat_vec XORs the rows at a vector's support: verify's H'e,
with b = H'^T.  ProductTable.product multiplies a matrix: a single row
by mat_vec's gather, and two or more rows through a Four-Russians table
built from the same rows with the table's first such product.  Keygen
forms H' = L (U (H_m Q)) by two such products and keeps their packed
rows.  mat_mul, which takes and returns unpacked matrices, is the one
place that unpacks a table product: signing's S^-1 product passes it
b = S^-1 transposed and that matrix's table as table=, and the check of
decoded errors by H_m^T passes a table standing in place of b.  A
table is built from packed rows as the keys hold them: pack_rows packs
an unpacked matrix where it lies, by rows or, for a transposed view, by
columns (_packbits_axis0), with no transposing copy, and pack_columns
packs the rows of the transpose of a packed matrix from a few of its
rows unpacked at a time, so no table of a key unpacks the key's matrix.
Any other product goes through mat_mul, which builds a table of b for
the call when b has at least _TABLE_MIN columns, whatever a's height,
and otherwise multiplies in float32 BLAS, exact below 2**24 terms.

Bit packing convention, the one layout of every packed matrix (the key
files, the keys' and codes' packed fields, the tables and their
products): row-major, each row padded to a whole number of bytes,
MSB-first within a byte (bit j of a row lives in byte j//8 at mask
128 >> (j % 8)), as pack_rows writes it.  A SHAKE digest read as a bit
string MSB-first (scheme._syndrome_from_digest) has the same layout, and
its pad bits are cleared too.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


class RankError(ValueError):
    """Requested pivot columns are linearly dependent."""


_GATHER_WORDS = 1 << 17
"""Largest temporary of a table product, in uint64 words (1 MB)."""

_ROW_BLOCK = 128
"""Rows of a that a table product gathers for at a time (ProductTable)."""


class ProductTable:
    """Products v @ b and a @ b by one fixed k x c matrix b.

    ProductTable(rows, c) takes b's k rows packed in pack_rows' layout
    and holds them zero-padded to whole uint64 words (_rows).  A product
    is packed rows in the same layout, and the bits of a row's last byte
    past column c are kept: a product's pad bits are the XOR of the pad
    bits of the table rows it adds.  Every table the package builds has
    zero pad bits, as pack_rows, pack_columns and np.packbits write
    them, and so has every product of one.

    mat_vec gathers the rows at a vector's support, and product does so
    for a single row of a, so a table used only one row at a time, as
    signing uses H_m^T, never builds more.  From two rows on, where it
    beats the gather, a product reads the Four-Russians table _subsets,
    built from the same rows with the first such product: b's rows in
    groups of four and, for every group, the XOR of each of its 16 row
    subsets, built by doubling: the subsets with one more row are those
    without it XOR that row.  A product then reads one table row per
    group of four bits of a and XORs them (the method of Arlazarov,
    Dinic, Kronrod and Faradzev; Albrecht and Bard's M4RI).
    The table takes 16 * 2*ceil(k/8) * ceil(c/64) words, four times the
    rows.  Rows are packed MSB-first, so group 2j is selected by the high
    nibble of a's packed byte j, whose high bit selects the group's first
    row, and group 2j + 1 by the low nibble.

    A product packs a where it lies (pack_rows): a is a view of the
    decoder's (n, rows) columns for every batch of decoded errors, so it
    is packed without a transposing copy.  It takes a's rows _ROW_BLOCK
    at a time.  For each block it gathers only the groups from the
    block's first to its last nonzero packed byte: any other group reads
    its zero row in every row of the block.  A block whose first and
    last packed bytes are nonzero spans every group, which is taken
    without scanning the bytes between, as for a dense block; a
    triangular a spans about half of them, so the products with a
    triangle on the left (keygen's L (U (H_m Q)), the key load's
    U^-1 @ L^-1 and invert's joins B^-1 (C A^-1)) skip the zero triangle
    with no flag from their callers.  The table rows are gathered with
    take, into one buffer of at most _GATHER_WORDS words that every block
    and chunk of groups reuses, and XORed chunk by chunk; a block of 128
    rows fits more groups into one gather than a single row does.
    """

    ndim = 2  # stands in for its matrix in mat_mul's shape checks

    def __init__(self, rows: np.ndarray, c: int) -> None:
        k = rows.shape[0]
        padded = np.zeros((8 * ((k + 7) // 8), 8 * ((c + 63) // 64)), dtype=np.uint8)
        padded[:k, : (c + 7) // 8] = rows
        padded.flags.writeable = False
        self.shape = (k, c)
        self._rows = padded.view(np.uint64)

    @cached_property
    def _subsets(self) -> np.ndarray:
        groups, words = self._rows.shape[0] // 4, self._rows.shape[1]
        quads = self._rows.reshape(groups, 4, words)
        # Subset s + 2**j of a group is subset s with row 3 - j added.
        table = np.empty((groups, 16, words), dtype=np.uint64)
        table[:, 0] = 0
        for j in range(4):
            np.bitwise_xor(table[:, : 1 << j], quads[:, 3 - j, None], out=table[:, 1 << j : 2 << j])
        table.flags.writeable = False
        return table.reshape(16 * groups, words)

    def product(self, a: np.ndarray) -> np.ndarray:
        """a @ b for the rows of a (binary, rows x k), as rows x ceil(c/8)
        packed rows in pack_rows' layout; one row is the XOR of b's rows
        at its support (mat_vec)."""
        rows, size = a.shape[0], (self.shape[1] + 7) // 8
        if rows == 1:
            return mat_vec(self, np.flatnonzero(a[0]))[None]
        if not self.shape[0]:  # an empty sum; the block scan below needs a byte
            return np.zeros((rows, size), dtype=np.uint8)
        packed = pack_rows(a).T
        table = self._subsets
        k_bytes, words = packed.shape[0], table.shape[1]
        group_base = np.arange(0, table.shape[0], 16)[:, None]
        block = min(rows, _ROW_BLOCK)
        step = max(1, _GATHER_WORDS // max(1, block * words))
        picks_buffer = np.empty(2 * k_bytes * block, dtype=np.intp)
        gathered = np.empty(min(step, 2 * k_bytes) * block * words, dtype=np.uint64)
        acc = np.zeros((rows, words), dtype=np.uint64)
        for lo in range(0, rows, _ROW_BLOCK):
            part = packed[:, lo : lo + _ROW_BLOCK]
            first, last = 0, k_bytes
            if not (np.count_nonzero(part[0]) and np.count_nonzero(part[-1])):
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
            picks += group_base[2 * first : 2 * last]
            out = acc[lo : lo + count]
            for start in range(0, picks.shape[0], step):
                chunk = picks[start : start + step]
                got = gathered[: chunk.size * words].reshape(chunk.shape[0], count, words)
                # Every index is in range; mode="raise" would buffer the output.
                table.take(chunk, axis=0, out=got, mode="clip")
                out ^= np.bitwise_xor.reduce(got, axis=0)
        return np.ascontiguousarray(acc.view(np.uint8)[:, :size])


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


def pack_rows(a: np.ndarray) -> np.ndarray:
    """np.packbits(a, axis=1), without a transposing copy of a
    transposed view a, whose columns _packbits_axis0 packs."""
    if a.strides[0] == 1 and not a.flags.c_contiguous:
        return _packbits_axis0(a.T).T
    return np.packbits(a, axis=1)


def mat_vec(table: ProductTable, support: np.ndarray) -> np.ndarray:
    """v @ b for the matrix b of table and the binary v whose 1s lie at
    the indices support: the XOR of b's rows at support, as ceil(c/8)
    bytes in pack_rows' layout, a SHAKE digest's, as each row of a
    ProductTable.product is.  verify's H'e is e @ H'^T, by a table of
    H'^T packed with zero pad bits (pack_columns), so H'e has zero pad
    bits.  ProductTable.product multiplies a single row by this gather.

    The rows at support are gathered with take and XORed by one segment
    of reduceat, which is faster than bitwise_xor.reduce.
    """
    size = (table.shape[1] + 7) // 8
    if support.size == 0:  # reduceat below needs a row
        return np.zeros(size, dtype=np.uint8)
    picked = table._rows.take(support, axis=0)
    return np.bitwise_xor.reduceat(picked, _ONE_SEGMENT, axis=0)[0].view(np.uint8)[:size]


_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
"""reduceat's indices for one segment from row 0, made once, not per product."""


_TABLE_MIN = 256
"""The narrowest b for which mat_mul builds a ProductTable rather than
multiplying in float32 BLAS; a's height plays no part.  Narrower b stay
with BLAS: a table for every product made RM(12,6)'s 4-row signing
trials about 19% slower (ROADMAP item 12)."""


def mat_mul(
    a: np.ndarray, b: np.ndarray | ProductTable, table: ProductTable | None = None
) -> np.ndarray:
    """GF(2) product a @ b of binary matrices.  An entry outside {0, 1}
    is not checked for, and the paths below read it differently.

    With table, a ProductTable of the matrix b, the product reads the
    table instead of multiplying (ProductTable.product: a single row of
    a by a gather of b's rows, more rows by the Four-Russians table) and
    unpacks its packed rows, the only unpacking of a table product; such
    a table may also stand in place of b, so a caller that keeps b
    packed never unpacks b.  Without one, a product by a b with at least
    _TABLE_MIN columns builds a ProductTable of b's packed rows for the
    call, whatever a's height, and so holds no float copy of either
    operand: a single row of a, as R e_np is for a key with p = 1, is a
    gather of b's rows.  A narrower b goes through BLAS in float32,
    whose sums are exact below 2**24 terms; no inner dimension comes
    near that (n <= 4096).
    """
    if isinstance(a, ProductTable):
        raise ValueError("a product table stands in for the right operand only")
    a = np.asarray(a, dtype=np.uint8)
    if isinstance(b, ProductTable):
        table = b if table is None else table
    else:
        b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for GF(2) product: {a.shape} x {b.shape}")
    if table is not None:
        if not isinstance(table, ProductTable) or table.shape != b.shape:
            name = type(table).__name__
            raise ValueError(f"{name} of shape {table.shape} used for {a.shape} x {b.shape}")
    elif b.shape[1] >= _TABLE_MIN:
        table = ProductTable(pack_rows(b), b.shape[1])
    else:
        prod = a.astype(np.float32) @ b.astype(np.float32)
        return (prod.astype(np.int64) & 1).astype(np.uint8)
    return np.unpackbits(table.product(a), axis=1, count=table.shape[1])


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
    """Inverse of a unit lower-triangular GF(2) matrix.

    Keygen draws the scrambler S = L U (random_unit_triangular) and
    passes L and U^T here, since U^-1 = ((U^T)^-1)^T; no program path
    inverts any other matrix.  A block recursion on table products
    (_fill_below) beats a Gauss-Jordan inverse of their product, and its
    joins skip the zero triangle of their B^-1 (see ProductTable).

    The diagonal blocks of _INVERT_BLOCK rows are inverted together: each
    is I + N with N strictly lower, so N^64 = 0 and (I + N)^-1 = I + N +
    ... + N^63 = prod_j (I + N^(2^j)) over j < 6, ten stacked float32
    products whose sums stay below 66.  _fill_below then joins them.

    Raises:
        ValueError: unless a is square and binary, with a unit diagonal
            and zeros above it; a unit upper matrix is rejected.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    n = a.shape[0]
    if n == 0 or a.max() > 1:
        raise ValueError("matrix is empty or not binary")
    # The first 1 of every column on the diagonal makes a unit lower
    # matrix.  argmax stops at the first True.
    if not np.array_equal(a.view(np.bool_).argmax(axis=0), np.arange(n)):
        raise ValueError("matrix is not unit lower triangular")
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
    leaves rng in the same state and is faster.
    """
    bits = rng.integers(0, 256, size=shape, dtype=np.uint8)
    bits >>= 7
    return bits


def random_unit_triangular(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random unit lower- and unit upper-triangular n x n factors (L, U),
    deterministic per rng state.

    Their product L @ U is invertible, so no rejection loop is needed,
    and so are both factors (see invert).  Each is a draw of random bits
    cut in place (cut_unit_lower), U through its transposed view.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lower = cut_unit_lower(random_bits((n, n), rng))
    upper = cut_unit_lower(random_bits((n, n), rng).T).T
    return lower, upper


def cut_unit_lower(a: np.ndarray) -> np.ndarray:
    """Cut the square binary a in place to np.tril(a, -1) plus the
    identity, and return a.  Cutting x.T, a transposed view, leaves x as
    np.triu(x, 1) plus the identity, a unit upper triangle.

    It takes _INVERT_BLOCK rows at a time, clearing the columns right of
    the block and masking the block's diagonal square, so it makes no
    n x n temporary, as np.tril and np.triu or a mask of the triangle do.
    """
    n = a.shape[0]
    below = np.tri(_INVERT_BLOCK, k=-1, dtype=np.uint8)
    for lo in range(0, n, _INVERT_BLOCK):
        hi = min(lo + _INVERT_BLOCK, n)
        a[lo:hi, hi:] = 0
        a[lo:hi, lo:hi] &= below[: hi - lo, : hi - lo]
    np.fill_diagonal(a, 1)
    return a


_COLUMN_BLOCK_CELLS = 1 << 18
"""Largest block of rows that pack_columns unpacks at once, in bits (256 KB)."""


def pack_columns(packed: np.ndarray, cols: int) -> np.ndarray:
    """The columns of the matrix a whose rows packed holds in pack_rows'
    layout, packed as rows of a.T: np.packbits(a.T, axis=1), row j being
    column j, with zero pad bits.

    a is unpacked a block of whole bytes of rows at a time, and each
    block is packed by columns with _packbits_axis0, so a is never whole.
    Rows that are not C-ordered are packed from a contiguous copy, since
    _packbits_axis0 reads its blocks by contiguous rows.
    """
    packed = np.ascontiguousarray(packed)
    rows = packed.shape[0]
    out = np.empty(((rows + 7) // 8, cols), dtype=np.uint8)
    step = max(8, _COLUMN_BLOCK_CELLS // cols // 8 * 8)
    for lo in range(0, rows, step):
        bits = np.unpackbits(packed[lo : lo + step], axis=1, count=cols)
        out[lo // 8 : (lo + bits.shape[0] + 7) // 8] = _packbits_axis0(bits)
    return np.ascontiguousarray(out.T)

