"""Dense GF(2) linear algebra on numpy uint8 arrays.

Vectors are 1-D and matrices 2-D uint8 arrays with entries in {0, 1};
addition is XOR.  Gaussian elimination (rref) runs on bit-packed rows.
Key set-up works on packed rows throughout: random_unit_triangular
draws the scrambler's factors from the generator's raw words
(random_bytes) and cuts them with a packed mask (cut_unit_triangles),
and the one inverse the scheme takes, of a unit lower-triangular matrix
(keygen's factors L and U^T of the scrambler S), is a block recursion
whose joins are table products of packed rows (invert).

A matrix b used for many products is held in one table type, a
ProductTable of b's packed rows.  Its products take and return packed
rows.  mat_vec XORs the rows at a vector's support: verify's H'e, with
b = H'^T.  ProductTable.product multiplies the packed rows of a matrix:
a single row by mat_vec's gather, and two or more rows through a
Four-Russians table built from the same rows with the table's first
such product.  Keygen forms U A and H' = L (U H_m Q) by such products,
invert joins its blocks by them and a key forms S^-1 = U^-1 L^-1 by one.
mat_mul, which takes and returns unpacked matrices, packs its a and is
the one place that unpacks a table product: signing's S^-1 product
passes it b = S^-1 transposed and that matrix's table as table=, and the
check of decoded errors by H_m^T passes a table standing in place of b.
A table is built from packed rows as the keys hold them: pack_rows packs
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

    A product takes a's packed rows, which may be a strided view: mat_mul
    packs an unpacked a where it lies (pack_rows), as for the view of the
    decoder's (n, rows) columns that every batch of decoded errors is.
    It takes a's rows _ROW_BLOCK at a time.  For each block it gathers
    only the groups from the block's first to its last nonzero packed
    byte: any other group reads its zero row in every row of the block.
    A block whose first and last packed bytes are nonzero spans every
    group, which is taken without scanning the bytes between, as for a
    dense block; a triangular a spans about half of them, so the
    products with a triangle on the left (keygen's U A and L (U H_m Q),
    a key's U^-1 @ L^-1 and invert's joins B^-1 (C A^-1)) skip the zero
    triangle with no flag from their callers.  The table rows are
    gathered with take, into one buffer of at most _GATHER_WORDS words
    that every block and chunk of groups reuses, and XORed chunk by
    chunk; a block of 128 rows fits more groups into one gather than a
    single row does.
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
        """a @ b for the packed rows of a (rows x ceil(k/8) bytes in
        pack_rows' layout), as rows x ceil(c/8) packed rows in the same
        layout.  a's pad bits select the zero rows that pad the table, so
        they are not read.  One row is the XOR of b's rows at its support
        (mat_vec)."""
        rows, size = a.shape[0], (self.shape[1] + 7) // 8
        if a.ndim != 2 or a.shape[1] != (self.shape[0] + 7) // 8:
            raise ValueError(f"packed rows of shape {a.shape} for a table of shape {self.shape}")
        if rows == 1:
            return mat_vec(self, np.flatnonzero(np.unpackbits(a[0], count=self.shape[0])))[None]
        if not self.shape[0]:  # an empty sum; the block scan below needs a byte
            return np.zeros((rows, size), dtype=np.uint8)
        packed = a.T
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

    With table, a ProductTable of the matrix b, the product packs a
    (pack_rows), reads the table instead of multiplying
    (ProductTable.product: a single row of a by a gather of b's rows,
    more rows by the Four-Russians table) and unpacks its packed rows,
    the only unpacking of a table product; such a table may also stand
    in place of b, so a caller that keeps b packed never unpacks b.
    Without one, a product by a b with at least _TABLE_MIN columns
    builds a ProductTable of b's packed rows for the call, whatever a's
    height, and so holds no float copy of either operand: a single row
    of a, as R e_np is for a key with p = 1, is a gather of b's rows.  A
    narrower b goes through BLAS in float32, whose sums are exact below
    2**24 terms; no inner dimension comes near that (n <= 4096).
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
    return np.unpackbits(table.product(pack_rows(a)), axis=1, count=table.shape[1])


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


_INVERT_BLOCK = 128


def invert(packed: np.ndarray) -> np.ndarray:
    """Inverse of a unit lower-triangular GF(2) matrix, as packed rows in
    pack_rows' layout, given its packed rows.

    Keygen draws the scrambler S = L U (random_unit_triangular) and
    passes L and U^T here, since U^-1 = ((U^T)^-1)^T; no program path
    inverts any other matrix.  The inverse is a block recursion,

        [[A, 0], [C, B]]^-1 = [[A^-1, 0], [B^-1 C A^-1, B^-1]],

    which beats a Gauss-Jordan inverse of S.  The matrix is padded with
    an identity to a whole number of diagonal blocks of _INVERT_BLOCK
    rows, and the recursion runs in two parts.  Inside the blocks it
    runs in float32, whose sums stay below _INVERT_BLOCK, on all blocks
    at once (_invert_blocks).  Above them its joins are table products
    of packed rows (_fill_below), which skip the zero triangle of their
    B^-1 (see ProductTable).

    Raises:
        ValueError: unless packed is uint8 of shape (n, ceil(n/8)) for
            some n >= 1 and holds a unit diagonal, zeros above it and zero
            pad bits; a unit upper matrix is rejected.
    """
    packed = np.asarray(packed)
    n = packed.shape[0] if packed.ndim == 2 else 0
    if not n or packed.dtype != np.uint8 or packed.shape[1] != (n + 7) // 8:
        raise ValueError(f"not the packed rows of a nonempty square matrix: {packed.shape}")
    if not np.array_equal(cut_unit_triangles(packed)[0], packed):
        raise ValueError("matrix is not unit lower triangular")
    blocks = -(-n // _INVERT_BLOCK)
    size = blocks * _INVERT_BLOCK
    a = np.zeros((size, size // 8), dtype=np.uint8)
    a[:n, : packed.shape[1]] = packed
    pad = np.arange(n, size)
    a[pad, pad >> 3] = _BIT_WEIGHTS[1][pad & 7]
    diagonal = np.arange(blocks)
    square = (blocks, _INVERT_BLOCK, blocks, _INVERT_BLOCK // 8)
    inv = _invert_blocks(np.unpackbits(a.reshape(square)[diagonal, :, diagonal], axis=2))
    out = np.zeros_like(a)
    out.reshape(square)[diagonal, :, diagonal] = np.packbits(inv, axis=2)
    _fill_below(a, out, 0, size)
    return np.ascontiguousarray(out[:n, : packed.shape[1]])


def _invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """The inverses of a stack of unit lower-triangular binary matrices
    of _INVERT_BLOCK rows, by the block recursion in float32: from the
    1 x 1 diagonal blocks, each level joins every pair of diagonal blocks
    in every matrix at once, by two stacked products."""
    count = blocks.shape[0]
    bits = blocks.astype(np.float32)
    inv = np.zeros_like(bits)
    inv[:] = np.eye(_INVERT_BLOCK, dtype=np.float32)
    half = 1
    while half < _INVERT_BLOCK:
        pairs = np.arange(_INVERT_BLOCK // (2 * half))
        split = (count, pairs.size, 2, half, pairs.size, 2, half)
        a_inv, b_inv = (inv.reshape(split)[:, pairs, j, :, pairs, j] for j in (0, 1))
        c_a_inv = (bits.reshape(split)[:, pairs, 1, :, pairs, 0] @ a_inv).astype(np.uint8) & 1
        join = (b_inv @ c_a_inv.astype(np.float32)).astype(np.uint8) & 1
        inv.reshape(split)[:, pairs, 1, :, pairs, 0] = join
        half *= 2
    return inv.astype(np.uint8)


def _fill_below(a: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Complete out[lo:hi, lo:hi] to the inverse of a[lo:hi, lo:hi], given
    its inverted diagonal blocks; both are packed rows, and lo and hi are
    multiples of _INVERT_BLOCK, so each block is whole bytes.

    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [B^-1 C A^-1, B^-1]] over GF(2),
    split at a multiple of _INVERT_BLOCK rows.
    """
    if hi - lo <= _INVERT_BLOCK:
        return
    mid = lo + _INVERT_BLOCK * ((hi - lo + 2 * _INVERT_BLOCK - 1) // (2 * _INVERT_BLOCK))
    _fill_below(a, out, lo, mid)
    _fill_below(a, out, mid, hi)
    left, right = slice(lo // 8, mid // 8), slice(mid // 8, hi // 8)
    c_a_inv = ProductTable(out[lo:mid, left], mid - lo).product(a[mid:hi, left])
    out[mid:hi, left] = ProductTable(c_a_inv, mid - lo).product(out[mid:hi, right])


def random_bytes(size: int, rng: np.random.Generator) -> np.ndarray:
    """The bytes rng.integers(0, 256, size, np.uint8) draws, from rng's
    raw words, leaving rng in the state that draw leaves it.

    numpy fills a full-range uint8 draw from 32-bit values, four bytes
    each, low byte first, and drops the unused bytes of the last one.  A
    64-bit bit generator gives the low half of a word as a 32-bit value
    and keeps the high half pending for the next one (has_uint32 and
    uinteger in its state); MT19937's raw words are 32 bits.  So the
    bytes are a pending half, if any, then the raw words read
    little-endian, and a draw that ends on a low half leaves the high
    half pending.  Reading whole words skips numpy's per-byte loop.  The
    state is written back only when the pending flag changes or a new
    half is left pending: otherwise uinteger keeps a value that numpy's
    loop would overwrite, and no draw reads it while nothing is pending.
    """
    halves = -(-size // 4)
    bitgen = rng.bit_generator
    if isinstance(bitgen, np.random.MT19937):
        return bitgen.random_raw(halves).astype("<u4").view(np.uint8)[:size]
    state = bitgen.state
    first = min(state["has_uint32"], halves)
    rest = halves - first
    raw = bitgen.random_raw(-(-rest // 2))
    drawn = raw.astype("<u8", copy=False).view(np.uint8)
    if first:
        head = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        drawn = np.concatenate([head, drawn[: size - 4]])
    if first or rest % 2:
        state = bitgen.state
        state["has_uint32"] = rest % 2
        if raw.size:  # numpy's last 32-bit value kept the word's high half
            state["uinteger"] = int(raw[-1] >> 32)
        bitgen.state = state
    return drawn[:size]


def random_bits(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform bits, the ones rng.integers(0, 2, shape, np.uint8) draws.

    That draw (Lemire's method) returns the top bit of one random byte
    per entry, so the bits are taken from a full-range byte draw
    (random_bytes), which leaves rng in the same state and is faster.
    """
    bits = random_bytes(math.prod(shape) if np.iterable(shape) else shape, rng).reshape(shape)
    bits >>= 7
    return bits


def random_unit_triangular(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random unit lower- and unit upper-triangular n x n factors (L, U),
    as packed rows in pack_rows' layout, deterministic per rng state.

    Their product L @ U is invertible, so no rejection loop is needed,
    and so are both factors (see invert).  Each is a draw of n x n random
    bits (random_bits), packed and cut by a packed mask
    (cut_unit_triangles): L is np.tril of the first draw with a unit
    diagonal, and U np.triu of the second.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lower = cut_unit_triangles(np.packbits(random_bits((n, n), rng), axis=1))[0]
    upper = cut_unit_triangles(np.packbits(random_bits((n, n), rng), axis=1))[1]
    return lower, upper


def cut_unit_triangles(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.tril(a, -1) and np.triu(a, 1), each plus the identity, as packed
    rows, for the square binary a whose packed rows are packed.

    The mask of the strict lower triangle is built on packed bytes: the
    bytes left of a row's diagonal byte are 0xFF, a byte triangle
    repeated for each of a byte's eight rows, and the diagonal byte has
    its bits left of the diagonal set.  So neither cut makes an n x n
    temporary.  The upper cut is a XOR the lower cut with its diagonal
    set again, and holds a's pad bits.
    """
    rows = np.arange(packed.shape[0])
    full = np.tri(packed.shape[1], k=-1, dtype=np.uint8)
    full *= 0xFF
    lower = np.repeat(full, 8, axis=0)[: rows.size]
    lower[rows, rows >> 3] = np.right_shift(0xFF00, rows & 7).astype(np.uint8)  # low byte
    lower &= packed
    upper = packed ^ lower
    diagonal, bits = (rows, rows >> 3), _BIT_WEIGHTS[1][rows & 7]
    lower[diagonal] |= bits
    upper[diagonal] |= bits
    return lower, upper


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

