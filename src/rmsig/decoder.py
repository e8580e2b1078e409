"""Recursive closest-coset decoding of RM codes, with erasure support.

Soft values are int8 in {-1, 0, +1}: +1 means bit 0, -1 means bit 1,
and 0 marks an erasure.  Decoding works on the raw evaluation ordering
of the code; the syndrome entry points below translate from a code's
systematic column order.

The recursion follows the (u | u+v) split over the last variable.  The
v half is decoded first from the componentwise product of the two
halves (sign = XOR estimate, zero propagates erasure), then the u half
from the componentwise sum y1 + y2 (1 - 2v) of the first half and the
v-corrected second half.  A u-branch sum that goes into a further
split of length SOFT_BLOCK or more is quantized back to {-1, 0, +1}
(hard decision, a zero sum becomes an erasure), so every sub-block of
length SOFT_BLOCK receives values in {-1, 0, +1}.  Inside such a
sub-block the u sums and v products are passed down exact in int8, and
so are the u sums that go into a leaf; their magnitude stays at most 4
(see SOFT_BLOCK).  Base cases, checked in this order: order 0 decodes by a
signed sum (majority vote weighted by the soft magnitudes, erasures
count nothing), order m by componentwise hard decision, and order 1 and
order m-1 by exact maximum likelihood.  Order 1 takes, up to length
2**LEAF_TABLE_M, one float32 product with a cached +h_a/-h_a Hadamard
matrix and a lookup in a cached codeword table, above it a fast
Hadamard transform.  A table leaf of _ORDER1_KEYS_ROWS words or more
finds each word's codeword by a column maximum of keys that carry the
codeword's index, instead of numpy's word-by-word argmax.  Order m-1,
the even-weight code, takes Wagner's rule (the single-parity-check node
of fast polar decoders): the hard decision, with the least reliable
position flipped in each word of odd weight.  Every Plotkin node
therefore has 1 < r < m-1, and none has an order-m child.

Every tie breaks deterministically: majority ties and zero Hadamard
peaks go to the zero codeword, equal Hadamard magnitudes go to the
smallest coefficient index (h_a before -h_a), the least reliable
position is the one of smallest |y| and then of smallest index, and
erasures harden to bit 0.

All routines run on whole batches (independent words); every step is
componentwise per word, so batched and one-at-a-time decoding give
identical answers.  Internally a batch is held one word per column, so
that each half of every split is one contiguous block.

The kernel's cost is the number of numpy calls per Plotkin node, not
arithmetic, so each node is kept to a few calls on int8 operands:

* Codewords are held as int8 +-1 words (+1 for bit 0) in one output
  array, so the u-branch input is y1 + y2 v, the right half u + v is
  the product u v, and no call casts or views the output; the entry
  points turn the words into bits once, at the end.
* A node calls its children directly: an order-1 child (the v half of
  RM(2, m)) and an order m-2 child (the u half of RM(m-2, m)) go
  straight to their leaves.
* Each decode allocates one scratch array per node length for the
  children's inputs, which every node of that length reuses; nothing
  is kept between calls, so decoding stays a pure, thread-safe
  function.
* The kernel only reads soft: the entry points may pass a view of the
  caller's array.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2
from .modcode import ModifiedCode
from .rmcode import RmCode

SOFT_BLOCK = 32
"""Largest sub-block length whose decode keeps exact int8 reliabilities.

A node of length 32 receives values in {-1, 0, +1}.  Below it each u
sum at most doubles the bound and each v product squares it.  The
smallest nodes have length 16, since RM(1, 3) and RM(2, 3) are leaves,
so the largest magnitude is 4: what a length-16 node whose inputs reach
2 passes to its two length-8 leaves.  A leaf longer than 16 receives at
most 2, the u sum of a node whose inputs reach 1.  A length-64 block
would reach 16 at the same place, and a length-128 block 256, which
wraps int8.
"""


def to_soft(bits: np.ndarray) -> np.ndarray:
    """Map hard bits to soft values (+1 for 0, -1 for 1)."""
    return 1 - 2 * np.asarray(bits, dtype=np.int8)


# A read-only int8 operand: a Python int costs a scalar conversion on
# every call.
_ONE = np.ones((), dtype=np.int8)
_ONE.flags.writeable = False

LEAF_TABLE_M = 7
"""Largest m whose RM(1, m) leaves are decoded by table.

Such a leaf costs one float32 product with the 2**m x 2**(m+1) matrix of
_leaf_tables (128 KB at m = 7), or the half as wide one of _leaf_keys,
one maximum and one table lookup; longer leaves use the fast Hadamard
transform, whose work grows as m 2**m instead of 4**m.
"""


@functools.cache
def _leaf_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(correlators, words) for RM(1, m), as +-1 words (+1 for bit 0).
    Column 2a of correlators is the linear form <a, x> over the
    evaluation points x and column 2a+1 its complement, in float32, so
    soft @ correlators correlates a soft word with every codeword, h_a
    before -h_a; row j of words is the int8 codeword of column j."""
    points = np.arange(1 << m, dtype=np.uint32)
    linear = 1 - 2 * (np.bitwise_count(points[:, None] & points[None, :]) & 1).astype(np.int8)
    words = np.empty((1 << m, 2 << m), dtype=np.int8)
    words[:, 0::2] = linear
    words[:, 1::2] = -linear
    correlators = words.astype(np.float32)
    words = np.ascontiguousarray(words.T)
    for arr in (correlators, words):
        arr.flags.writeable = False
    return correlators, words


_ORDER1_KEYS_ROWS = 384
"""Batch width from which _decode_order1 picks the codeword by keys.

Narrower batches take an argmax over each word's correlations.  numpy
runs that argmax word by word, so its cost grows fastest with the width;
the keys form makes a few more numpy calls, all of them vectorised, on a
product half as wide.  Whole decodes, one thread, best of 31 (RM(10,5))
and 21 (RM(12,6)) with the forms interleaved, argmax form -> keys form:
RM(10,5) 1.64 -> 1.76 ms at 128 rows, 2.19 -> 2.20 at 256, 2.74 -> 2.52
at 384, 3.43 -> 2.96 at 512 and 5.98 -> 4.53 at 1024; RM(12,6) 9.73 ->
9.31 at 256, 9.30 -> 7.99 at 384, 15.5 -> 12.7 at 512 and 27.3 -> 20.9
at 1024.  The forms tie at 256 rows, the widest signing batch, which
therefore keeps the argmax form.
"""


@functools.cache
def _leaf_keys(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hadamard, flip, words) for the keys form of the RM(1, m) leaf.

    With n = 2**m, row a of hadamard is [2n h_a | 2n-1-2a] in float32, so
    hadamard @ [soft; 1] is the key 2n <soft, h_a> + 2n-1-j of codeword
    column j = 2a (h_a), and flip - key, flip_a = 4n-3-4a, the key of
    column 2a+1 (-h_a).  Row 2n-1-j of words is the int8 codeword of
    column j, so a key's low m+1 bits index its codeword."""
    correlators, words = _leaf_tables(m)
    n = 1 << m
    a = np.arange(n)
    hadamard = np.empty((n, n + 1), dtype=np.float32)
    hadamard[:, :n] = correlators[:, 0::2].T * (2 * n)
    hadamard[:, n] = 2 * n - 1 - 2 * a
    flip = (4 * n - 3 - 4 * a).astype(np.float32)[:, None]
    words = np.ascontiguousarray(words[::-1])
    for arr in (hadamard, flip, words):
        arr.flags.writeable = False
    return hadamard, flip, words


def _decode_order1(m: int, soft: np.ndarray, out: np.ndarray) -> None:
    # ML for RM(1, m): the codeword of largest correlation.  The first
    # maximum wins, which is the smallest a of largest |<soft, h_a>|,
    # taken as h_a before its complement; all-zero gives the zero word.
    # A wide batch takes the keys 2n <soft, +-h_a> + 2n-1-j of codeword
    # column j (see _leaf_keys): distinct within a word, larger for a
    # larger correlation and then for a smaller j, so each column's
    # largest key is its first maximum, found without a word-by-word
    # argmax.  They stay exact in float32: |key| <= 2n (128 x 16) + 2n.
    n, rows = soft.shape
    if m <= LEAF_TABLE_M and rows >= _ORDER1_KEYS_ROWS:
        hadamard, flip, words = _leaf_keys(m)
        augmented = np.empty((n + 1, rows), dtype=np.float32)
        augmented[:n] = soft
        augmented[n] = 1
        keys = hadamard @ augmented  # the h_a keys
        best = keys.max(axis=0)
        np.subtract(flip, keys, out=keys)  # the -h_a keys
        np.maximum(best, keys.max(axis=0), out=best)
        low = best.astype(np.int32) & (2 * n - 1)
        np.copyto(out, words.take(low, axis=0).T)
        return
    if m <= LEAF_TABLE_M:
        # float32 sums of at most 128 terms of magnitude <= 16 are exact.
        correlators, words = _leaf_tables(m)
        best = (soft.T.astype(np.float32) @ correlators).argmax(axis=1)
        np.copyto(out, words.take(best, axis=0).T)
        return
    # Fast Hadamard transform, exact in int32, with the same tie-breaks.
    y = soft.astype(np.int32)
    h = 1
    while h < n:
        y = y.reshape(-1, 2 * h, rows)
        left = y[:, :h].copy()
        y[:, :h] += y[:, h:]
        y[:, h:] = left - y[:, h:]
        h *= 2
    y = y.reshape(n, rows)
    peak_at = np.argmax(np.abs(y), axis=0)
    negative = y[peak_at, np.arange(rows)] < 0
    points = np.arange(n, dtype=np.uint32)
    parity = np.bitwise_count(points[:, None] & peak_at.astype(np.uint32)) & 1
    np.copyto(out, np.where(parity ^ negative, -1, 1))


def _harden(soft: np.ndarray, out: np.ndarray) -> None:
    # Hard decision to a +-1 word: the sign, with an erasure going to +1.
    np.sign(soft, out)
    out |= _ONE


_SPC_KEYS_ROWS = 128
"""Batch width from which _decode_spc finds the weakest positions by keys.

Narrower batches take an argmin over each word and flip one element per
word by index.  numpy runs that argmin word by word, so its cost grows
fastest with the width; the keys form makes a few more numpy calls, all
of them vectorised.  Whole decodes, one thread, best of 9, argmin form
-> keys form: RM(10,5) 0.58 -> 0.62 ms at 64 rows, 0.70 -> 0.70 at 96,
0.82 -> 0.79 at 128 and 1.03 -> 0.92 at 192; RM(12,6) 2.27 -> 2.38,
2.67 -> 2.70, 3.20 -> 3.09 and 4.03 -> 3.66 ms.
"""


def _decode_spc(soft: np.ndarray, out: np.ndarray) -> None:
    # ML for RM(k-1, k), the even-weight code, by Wagner's rule: the hard
    # decision, with the least reliable position of each odd-weight word
    # flipped, the smallest |y| and then the smallest index.
    _harden(soft, out)
    parity = out.prod(axis=0, dtype=np.int8)  # -1 for an odd weight
    n, rows = soft.shape
    if rows < _SPC_KEYS_ROWS:
        weakest = np.abs(soft).argmin(axis=0)  # the first minimum
        out[weakest, np.arange(rows)] *= parity
        return
    # The keys |y| n + index are distinct within a word, so each column's
    # minimum marks exactly its weakest position.  |y| n is at most 32 up
    # to length 16 and 2n above (see SOFT_BLOCK), so int16 holds the keys.
    keys = np.abs(soft, dtype=np.int16)
    keys *= n
    keys |= np.arange(n, dtype=np.int16)[:, None]
    parity -= _ONE  # 0 for an even weight, -2 = (+1) ^ (-1) for an odd one
    out ^= (keys == keys.min(axis=0)) * parity


def _plotkin(m: int, r: int, y1: np.ndarray, y2: np.ndarray, out: np.ndarray, levels: list) -> None:
    """One (u | u+v) node of RM(r, m), 1 < r < m - 1, on the halves y1, y2 of
    its input; the +-1 codewords go to out.  levels[m] holds the node's
    scratch for its children's inputs and that scratch's two halves."""
    half = 1 << (m - 1)
    u, v = out[:half], out[half:]
    work, w1, w2 = levels[m]
    np.multiply(y1, y2, work)
    if r == 2:  # the order-1 leaf, called directly
        _decode_order1(m - 1, work, v)
    else:
        _plotkin(m - 1, r - 1, w1, w2, v, levels)
    # u-branch input y1 + y2 v, in the v input's memory.
    np.multiply(y2, v, work)
    work += y1
    if r == m - 2:  # the single-parity-check leaf, fed the exact sums
        _decode_spc(work, u)
    else:
        if half >= SOFT_BLOCK:
            np.sign(work, work)
        _plotkin(m - 1, r, w1, w2, u, levels)
    v *= u  # the right half u + v


def _decode(m: int, r: int, soft: np.ndarray, out: np.ndarray) -> None:
    """Decode RM(r, m) words held column-wise: soft is int8 of shape
    (2**m, rows), one word per column, and the codewords go to out as
    +-1 int8 words of the same shape.  Both halves of every (u | u+v)
    split are then contiguous slices, whatever the number of rows.
    soft is only read."""
    if r == 0:
        out[...] = np.where(soft.sum(axis=0, dtype=np.int64) < 0, -1, 1)
    elif r == m:
        _harden(soft, out)
    elif r == 1:
        _decode_order1(m, soft, out)
    elif r == m - 1:
        _decode_spc(soft, out)
    else:
        levels = [None] * (m + 1)
        for k in range(4, m + 1):
            work = np.empty((1 << (k - 1), soft.shape[1]), dtype=np.int8)
            levels[k] = (work, work[: 1 << (k - 2)], work[1 << (k - 2) :])
        half = 1 << (m - 1)
        _plotkin(m, r, soft[:half], soft[half:], out, levels)


def decode_closest(m: int, r: int, soft: np.ndarray) -> np.ndarray:
    """Closest-coset decode soft word(s) against RM(r, m).

    Accepts one word or a batch (rows) of soft values in {-1, 0, +1}.
    Returns codeword(s) in evaluation order, for any such input
    (including all-erased).  Exact ML whenever r <= 1, r = m-1 or r = m.

    Raises:
        ValueError: on a shape other than (2**m,) or (rows, 2**m), or a
            soft value outside {-1, 0, +1} (larger reliabilities would
            wrap int8 inside the soft blocks).
    """
    soft = np.asarray(soft)
    if soft.ndim not in (1, 2) or soft.shape[-1] != 1 << m:
        raise ValueError(f"soft words of shape {soft.shape}, need (2**{m},) or (rows, 2**{m})")
    if soft.dtype.kind in "biu":
        # For integers, membership in {-1, 0, +1} is a range test.
        outside = soft.size > 0 and (soft.min() < -1 or soft.max() > 1)
    else:
        outside = not np.isin(soft, (-1, 0, 1)).all()
    if outside:
        raise ValueError("soft values must lie in {-1, 0, +1}")
    columns = np.ascontiguousarray(np.atleast_2d(soft).T, dtype=np.int8)
    words = np.empty(columns.shape, dtype=np.int8)
    _decode(m, r, columns, words)
    bits = (words < 0).view(np.uint8)
    return bits[:, 0] if soft.ndim == 1 else bits.T


def _closest_errors(code: RmCode, syndromes: np.ndarray, cols: np.ndarray, erased) -> np.ndarray:
    """Coset leaders of the syndrome rows placed on the parity columns cols.

    v holds each syndrome on cols (systematic order) and zeros elsewhere;
    c is the codeword decoded from v with the columns in erased marked as
    erasures.  Returns the rows of e = v + c on the columns [0, k) + cols.
    """
    perm = code.info_perm
    soft = np.ones((code.n, syndromes.shape[0]), dtype=np.int8)
    soft[perm[cols]] = to_soft(syndromes.T)
    soft[perm[erased]] = 0
    word = np.empty(soft.shape, dtype=np.int8)
    _decode(code.m, code.r, soft, word)
    # e = v + c is 1 where the +-1 words differ.  An erased column differs
    # everywhere, but it is never gathered.
    err = np.not_equal(word, soft, out=word.view(bool)).view(np.uint8)
    return err[np.concatenate([perm[: code.k], perm[cols]])].T


def _syndrome_rows(syndromes: np.ndarray, length: int, name: str) -> np.ndarray:
    if syndromes.ndim not in (1, 2) or syndromes.shape[-1] != length:
        raise ValueError(
            f"syndromes of shape {syndromes.shape}, need ({name},) or (rows, {name}) "
            f"with {name} = {length}"
        )
    return np.atleast_2d(syndromes)


def coset_leaders(code: RmCode, syndromes: np.ndarray) -> np.ndarray:
    """Minimum-weight error for each syndrome, as found by the decoder.

    Accepts one syndrome or a batch (rows) and returns the same shape.
    Starts from v = [0_k | s], which satisfies H v = s in systematic
    form, decodes v against the code and returns e = v + c.  The result
    always satisfies H e = s; the weight is exactly minimal whenever
    the decoder is ML for the code.
    """
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    rows = _syndrome_rows(syndromes, code.n - code.k, "n-k")
    err = _closest_errors(code, rows, np.arange(code.k, code.n), [])
    return err[0] if syndromes.ndim == 1 else err


def punctured_coset_leaders(mod: ModifiedCode, s_tops: np.ndarray) -> np.ndarray:
    """Decode the punctured code through its parent with erasures.

    Each s_top (one, or a batch of rows) is a syndrome of the punctured
    parity check [P'^T | I].  The deleted positions enter the parent
    decode as erasures; each returned error covers the n-p unpunctured
    positions and satisfies H_p e = s_top exactly (checked).
    """
    base = mod.base
    s_tops = np.asarray(s_tops, dtype=np.uint8)
    rows = _syndrome_rows(s_tops, base.n - base.k - mod.p, "n-k-p")
    err = _closest_errors(base, rows, mod.kept_cols, mod.deleted)
    # err[:, :k] is a transposed view of the decode's (n, rows) columns,
    # which the table product packs where it lies.
    check = gf2.mat_mul(err[:, : base.k], mod.P_kept, mod.P_kept_table) ^ err[:, base.k :]
    if not np.array_equal(check, rows):
        raise AssertionError("punctured decode violated H_p e = s_top")
    return err[0] if s_tops.ndim == 1 else err
