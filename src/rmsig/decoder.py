"""Recursive closest-coset decoding of RM codes, with erasure support.

Soft values are int8 in {-1, 0, +1}: +1 means bit 0, -1 means bit 1,
and 0 marks an erasure.  Decoding works on the raw evaluation ordering
of the code; the syndrome entry points below translate from a code's
systematic column order.

The recursion follows the (u | u+v) split over the last variable.  The
v half is decoded first from the componentwise product of the two
halves (sign = XOR estimate, zero propagates erasure), then the u half
from the componentwise sum y1 + y2 (1 - 2v) of the first half and the
v-corrected second half.  To quantize an input is to take it back to
its sign, {-1, 0, +1} (hard decision, a zero becomes an erasure), and
the entry point selects one of two rules for where the decoder does it:

* The plain rule (decode_closest, coset_leaders) quantizes a u-branch
  sum that goes into a further split of length SOFT_BLOCK or more, and
  the input of both leaves of a length-32 node, RM(1, 4) and RM(3, 4).
* The signing rule (punctured_coset_leaders, so sign and the
  calibration of a modified code) quantizes the same inputs but one:
  each length-32 RM(3, 5) node passes its exact u sum y1 + y2 v, at most
  4 in magnitude, to its RM(3, 4) leaf.

Under both rules every sub-block of length SOFT_BLOCK receives values
in {-1, 0, +1}, and every other u sum and v product is passed down
exact in int8, its magnitude at most 16 (see SOFT_BLOCK).

Where the decoder quantizes sets its tail, and the two paths need
different tails.  Signing takes about 1/P(weight <= w) trials per
signature, and exact RM(3, 4) inputs about halve the trials per RM(10, 5) signature at
w = 99.  The plain code's tail is the one acceptance criterion 6
bounds, P(weight <= 97) <= 1e-3 on RM(10, 5), and exact RM(3, 4) inputs
would push it past that bound, so the plain path keeps their signs.
CHANGES.md holds the measured tails of both rules and ROADMAP item 9
the rules tried and rejected.

Base cases, checked in this order: order 0 decodes by a
signed sum (majority vote weighted by the soft magnitudes, erasures
count nothing), order m by componentwise hard decision, and order 1 and
order m-1 by exact maximum likelihood.  Order 1 takes, up to length
2**LEAF_TABLE_M, one float32 product with a cached +h_a/-h_a Hadamard
matrix and a lookup in its cached codeword table, above it a fast
Hadamard transform.  Order m-1, the even-weight code, takes Wagner's
rule (the single-parity-check node of fast polar decoders): the hard
decision, with the least reliable position flipped in each word of odd
weight.  From _KEYS_ROWS words, both leaves find each word's codeword
or weakest position by a column minimum of keys that carry its index,
instead of numpy's word-by-word argmax or argmin.  Every Plotkin node
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

SOFT_BLOCK = 64
"""Largest sub-block length whose decode keeps exact int8 reliabilities.

A node of length 64 receives values in {-1, 0, +1}.  Below it each u
sum at most doubles the bound and each v product squares it, so a
length-32 node receives at most 2.  Its RM(1, 4) leaf decodes the sign
of its input, and its RM(3, 4) leaf the sign under the plain rule and
the exact u sum, at most 4, under the signing rule (see the module
docstring); its length-16 node RM(2, 4) receives at most 4.  That node
passes 16 to its order-1 leaf RM(1, 3) and 8 to its single-parity-check
leaf RM(2, 3): the largest magnitudes of a decode.  A leaf of length 32
or more receives at most 2, the u sum of a node whose inputs reach 1.
A length-128 block would pass 4 to its length-32 nodes and so 256 to
the length-8 order-1 leaves, which wraps int8.
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

Such a leaf costs one float32 product with the 2**m x 2**(m+1)
correlators of _leaf_tables (128 KB at m = 7) or its half as wide keys
matrix, one maximum or minimum and one codeword lookup; longer leaves use
the fast Hadamard transform, whose work grows as m 2**m instead of 4**m.
"""

_KEYS_ROWS = 256
"""Batch width from which both kinds of leaf take their keys form.

A narrower batch finds each word's codeword (order 1) or weakest
position (order m-1) by an argmax or argmin that numpy runs word by
word, so its cost grows fastest with the width; the keys form makes a
few more numpy calls, all of them vectorised.  In whole decodes of
random words on RM(10,5) and RM(12,6), both leaves are slower in the
keys form at 128 rows and faster from 256 rows on (CHANGES.md, PR 15,
has the timings).  Signing batches have 1, 4, 16, 64 or 256 rows
(scheme.SIGN_BATCH) and calibration chunks 1024, or fewer when fewer
syndromes are asked for.
"""


@functools.cache
def _leaf_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(correlators, words, hadamard, flip) for RM(1, m), as +-1 words
    (+1 for bit 0), with n = 2**m.
    Column 2a of correlators is the linear form <a, x> over the
    evaluation points x and column 2a+1 its complement, in float32, so
    soft @ correlators correlates a soft word with every codeword, h_a
    before -h_a; row j of words is the int8 codeword of column j.
    For the keys form, row a of hadamard is [-2n h_a | 2a] in float32 and
    flip_a = 4a+1, so hadamard @ [soft; 1] and flip minus it are the keys
    -2n <soft, +-h_a> + j of codeword columns j = 2a (h_a) and 2a+1 (-h_a).
    A key's low m+1 bits are j, also for a negative key in two's
    complement, so they index words."""
    n = 1 << m
    points = np.arange(n, dtype=np.uint32)
    linear = 1 - 2 * (np.bitwise_count(points[:, None] & points[None, :]) & 1).astype(np.int8)
    words = np.empty((n, 2 * n), dtype=np.int8)
    words[:, 0::2] = linear
    words[:, 1::2] = -linear
    correlators = words.astype(np.float32)
    words = np.ascontiguousarray(words.T)
    hadamard = np.empty((n, n + 1), dtype=np.float32)
    hadamard[:, :n] = correlators[:, 0::2].T * (-2 * n)
    hadamard[:, n] = 2 * points
    flip = (4 * points + 1).astype(np.float32)[:, None]
    tables = (correlators, words, hadamard, flip)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _decode_order1(m: int, soft: np.ndarray, out: np.ndarray) -> None:
    # ML for RM(1, m): the codeword of largest correlation.  The first
    # maximum wins, which is the smallest a of largest |<soft, h_a>|,
    # taken as h_a before its complement; all-zero gives the zero word.
    # A wide batch takes the keys -2n <soft, +-h_a> + j of codeword
    # column j (see _leaf_tables): distinct within a word, smaller for a
    # larger correlation and then for a smaller j, so each column's
    # smallest key is its first maximum, found without a word-by-word
    # argmax.  They stay exact in float32: |<soft, h_a>| is at most 128
    # (8 terms of at most 16 at length 8, n terms of at most 1 above; see
    # SOFT_BLOCK), so |key| <= 2n 128 + 2n.
    n, rows = soft.shape
    if m <= LEAF_TABLE_M:
        correlators, words, hadamard, flip = _leaf_tables(m)
        if rows >= _KEYS_ROWS:
            augmented = np.empty((n + 1, rows), dtype=np.float32)
            augmented[:n] = soft
            augmented[n] = 1
            keys = hadamard @ augmented  # the h_a keys
            best = keys.min(axis=0)
            np.subtract(flip, keys, out=keys)  # the -h_a keys
            np.minimum(best, keys.min(axis=0), out=best)
            best = best.astype(np.int32) & (2 * n - 1)
        else:
            # The correlations, at most 128 in magnitude, are exact in float32.
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


def _decode_spc(soft: np.ndarray, out: np.ndarray) -> None:
    # ML for RM(k-1, k), the even-weight code, by Wagner's rule: the hard
    # decision, with the least reliable position of each odd-weight word
    # flipped, the smallest |y| and then the smallest index.
    _harden(soft, out)
    parity = out.prod(axis=0, dtype=np.int8)  # -1 for an odd weight
    n, rows = soft.shape
    if rows < _KEYS_ROWS:
        weakest = np.abs(soft).argmin(axis=0)  # the first minimum
        out[weakest, np.arange(rows)] *= parity
        return
    # The keys |y| n + index are distinct within a word, so each column's
    # minimum marks exactly its weakest position.  |y| n is at most 64 at
    # length 8, 4n at length 16 and 2n above (see SOFT_BLOCK), so int16
    # holds the keys.
    keys = np.abs(soft, dtype=np.int16)
    keys *= n
    keys |= np.arange(n, dtype=np.int16)[:, None]
    parity -= _ONE  # 0 for an even weight, -2 = (+1) ^ (-1) for an odd one
    out ^= (keys == keys.min(axis=0)) * parity


def _plotkin(
    m: int, r: int, y1: np.ndarray, y2: np.ndarray, out: np.ndarray, levels: list, signing: bool
) -> None:
    """One (u | u+v) node of RM(r, m), 1 < r < m - 1, on the halves y1, y2 of
    its input; the +-1 codewords go to out.  levels[m] holds the node's
    scratch for its children's inputs and that scratch's two halves.
    signing selects the signing rule: an RM(3, 4) leaf decodes its exact
    input, not its sign."""
    half = 1 << (m - 1)
    u, v = out[:half], out[half:]
    work, w1, w2 = levels[m]
    np.multiply(y1, y2, work)
    if r == 2:  # the order-1 leaf, called directly
        if half == 16:  # RM(1, 4) decodes signs
            np.sign(work, work)
        _decode_order1(m - 1, work, v)
    else:
        _plotkin(m - 1, r - 1, w1, w2, v, levels, signing)
    # u-branch input y1 + y2 v, in the v input's memory.
    np.multiply(y2, v, work)
    work += y1
    if r == m - 2:  # the single-parity-check leaf
        if half == 16 and not signing:  # RM(3, 4) decodes signs
            np.sign(work, work)
        _decode_spc(work, u)
    else:
        if half >= SOFT_BLOCK:
            np.sign(work, work)
        _plotkin(m - 1, r, w1, w2, u, levels, signing)
    v *= u  # the right half u + v


def _decode(m: int, r: int, soft: np.ndarray, out: np.ndarray, signing: bool = False) -> None:
    """Decode RM(r, m) words held column-wise: soft is int8 of shape
    (2**m, rows), one word per column, and the codewords go to out as
    +-1 int8 words of the same shape.  Both halves of every (u | u+v)
    split are then contiguous slices, whatever the number of rows.
    soft is only read.  signing selects the signing rule (see _plotkin)."""
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
        _plotkin(m, r, soft[:half], soft[half:], out, levels, signing)


def _input_rows(values, length: int, name: str, low: int) -> np.ndarray:
    """One row or a batch of rows of the given length, as a batch, with
    every entry in {low, ..., 1}: soft words (low = -1) or syndromes
    (low = 0).  Raises ValueError otherwise, testing the values before a
    cast could wrap or truncate them."""
    what, allowed = ("soft", "{-1, 0, +1}") if low else ("syndrome", "{0, 1}")
    values = np.asarray(values)
    if values.ndim not in (1, 2) or values.shape[-1] != length:
        need = f"need ({name},) or (rows, {name}) with {name} = {length}"
        raise ValueError(f"{what} input of shape {values.shape}, {need}")
    if values.dtype.kind in "biu":
        # For integers, membership is a range test, and only a signed one
        # can lie below 0: one reduction for the unsigned syndromes.
        outside = values.size > 0 and (
            values.max() > 1 or (values.dtype.kind == "i" and values.min() < low)
        )
    else:
        outside = not np.isin(values, np.arange(low, 2)).all()
    if outside:
        raise ValueError(f"{what} values must lie in {allowed}")
    return np.atleast_2d(values)


def decode_closest(m: int, r: int, soft: np.ndarray) -> np.ndarray:
    """Closest-coset decode soft word(s) against RM(r, m).

    Accepts one word or a batch (rows) of soft values in {-1, 0, +1};
    raises ValueError on any other shape or value (larger reliabilities
    would wrap int8 inside the soft blocks).  Returns codeword(s) in
    evaluation order, for any such input (including all-erased).  Exact
    ML whenever r <= 1, r = m-1 or r = m.  Raises ValueError unless
    0 <= r <= m.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    columns = np.ascontiguousarray(_input_rows(soft, 1 << m, "2**m", -1).T, dtype=np.int8)
    words = np.empty(columns.shape, dtype=np.int8)
    _decode(m, r, columns, words)
    bits = (words < 0).view(np.uint8)
    return bits[:, 0] if np.ndim(soft) == 1 else bits.T


def _closest_errors(
    code, syndromes: np.ndarray, cols: np.ndarray, erased, signing: bool
) -> np.ndarray:
    """Coset leaders of the syndrome rows placed on the parity columns cols
    of an RmCode, or of a ModifiedCode's parent.

    v holds each syndrome on cols (systematic order) and zeros elsewhere;
    c is the codeword decoded from v with the columns in erased marked as
    erasures, under the signing path's rule if signing is set.  Returns
    the rows of e = v + c on the columns [0, k) + cols, as the transpose
    of a take along axis 0 of the decoder's (n, rows) words, since on
    that layout take beats fancy indexing at calibration's and signing's
    batch widths.
    """
    perm = code.info_perm
    soft = np.ones((code.n, syndromes.shape[0]), dtype=np.int8)
    soft[perm[cols]] = to_soft(syndromes.T)
    soft[perm[erased]] = 0
    word = np.empty(soft.shape, dtype=np.int8)
    _decode(code.m, code.r, soft, word, signing)
    # e = v + c is 1 where the +-1 words differ.  An erased column differs
    # everywhere, but it is never gathered.
    err = np.not_equal(word, soft, out=word.view(bool)).view(np.uint8)
    return err.take(np.concatenate([perm[: code.k], perm[cols]]), axis=0).T


def coset_leaders(code: RmCode, syndromes: np.ndarray) -> np.ndarray:
    """Minimum-weight error for each syndrome, as found by the decoder.

    Accepts one syndrome or a batch (rows) and returns the same shape;
    raises ValueError on any other shape or on a value outside {0, 1}.
    Starts from v = [0_k | s], which satisfies H v = s in systematic
    form, decodes v against the code and returns e = v + c.  The result
    always satisfies H e = s; the weight is exactly minimal whenever
    the decoder is ML for the code.
    """
    rows = _input_rows(syndromes, code.n - code.k, "n-k", 0)
    err = _closest_errors(code, rows, np.arange(code.k, code.n), [], signing=False)
    return err[0] if np.ndim(syndromes) == 1 else err


def punctured_coset_leaders(mod: ModifiedCode, s_tops: np.ndarray) -> np.ndarray:
    """Decode the punctured code through its parent with erasures.

    Each s_top (one, or a batch of rows) is a syndrome of the punctured
    parity check [P'^T | I]; any other shape, or a value outside {0, 1},
    raises ValueError.  The deleted positions enter the parent decode as
    erasures, under the signing rule (see the module docstring); each
    returned error covers the n-p unpunctured positions and satisfies
    H_p e = s_top by construction: e = v + c, where v carries s_top and
    c is a parent codeword.  Nothing here checks it;
    the rows a caller outputs go through check_leaders instead.
    """
    rows = _input_rows(s_tops, mod.n - mod.k - mod.p, "n-k-p", 0)
    err = _closest_errors(mod, rows, mod.kept_cols, mod.deleted, signing=True)
    return err[0] if np.ndim(s_tops) == 1 else err


def check_leaders(mod: ModifiedCode, e_primes: np.ndarray, s_primes: np.ndarray) -> None:
    """Raise AssertionError unless H_m e' = s' for each error e' (one, or
    a batch of rows) and its syndrome s'.

    This checks the whole modified code: the punctured decode's top
    block, P'^T e_info + e_kept = s_top, and the inserted block, R e_np +
    e_p = s_bot, which no other step checks.  One row or a batch is one
    product e' @ H_m^T by the code's cached table (mod.H_T_table): one
    row gathers the table's rows, and a batch, packed without a copy
    when column-major, reads its Four-Russians table.  The benchmark's
    trace counts a gf2 product made under a public decoder function as
    this check, so it stays one (see scheme._trials).
    """
    got = gf2.mat_mul(np.atleast_2d(e_primes), mod.H_T_table)
    if not np.array_equal(got, np.atleast_2d(s_primes)):
        raise AssertionError("decoded error violates H_m e' = s'")
