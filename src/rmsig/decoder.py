"""Recursive closest-coset decoding of RM codes, with erasure support.

Soft values are int8 in {-1, 0, +1}: +1 means bit 0, -1 means bit 1,
and 0 marks an erasure.  Decoding works on the raw evaluation ordering
of the code; the syndrome entry points below translate from a code's
systematic column order.

The recursion follows the (u | u+v) split over the last variable.  The
v half is decoded first from the componentwise product of the two
halves (sign = XOR estimate, zero propagates erasure), then the u half
from the componentwise sum of the first half and the v-corrected second
half.  Above length SOFT_BLOCK the u-branch sum is quantized back to
{-1, 0, +1} (hard decision, a zero sum becomes an erasure), so every
sub-block of length SOFT_BLOCK receives values in {-1, 0, +1}.  Inside
such a sub-block the u sums and v products are passed down exact in
int8; their magnitude stays at most 16 (see SOFT_BLOCK).  Base cases:
order 0 decodes by a signed sum (majority vote weighted by the soft
magnitudes, erasures count nothing), order m by componentwise hard
decision, and order 1 by exact maximum likelihood using a fast Hadamard
transform of the soft values.

Every tie breaks deterministically: majority ties and zero Hadamard
peaks go to the zero codeword, equal Hadamard magnitudes go to the
smallest coefficient index, and erasures harden to bit 0.

All routines run on whole batches (rows = independent words); every
step is componentwise per row, so batched and one-at-a-time decoding
give identical answers.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .modcode import ModifiedCode
from .rmcode import RmCode

SOFT_BLOCK = 32
"""Largest sub-block length whose decode keeps exact int8 reliabilities.

A node of length 32 receives values in {-1, 0, +1}.  Below it each u
sum at most doubles the bound and each v product squares it, so the
largest magnitude is 16: the v product passed down by a length-8 node
whose inputs reach 4 (1 -> 2 -> 4 along the u branches).  A length-64
block would reach 256 at the same place and wrap int8, hence 32.
"""


def to_soft(bits: np.ndarray) -> np.ndarray:
    """Map hard bits to soft values (+1 for 0, -1 for 1)."""
    return (1 - 2 * np.asarray(bits, dtype=np.int8)).astype(np.int8)


def to_hard(soft: np.ndarray) -> np.ndarray:
    """Hard decision; erasures become bit 0."""
    return (np.asarray(soft) < 0).astype(np.uint8)


def _hadamard_rows(soft: np.ndarray) -> np.ndarray:
    y = soft.astype(np.int32)
    rows, n = y.shape
    h = 1
    while h < n:
        y = y.reshape(rows, -1, 2 * h)
        left = y[:, :, :h].copy()
        right = y[:, :, h:]
        y[:, :, :h] = left + right
        y[:, :, h:] = left - right
        y = y.reshape(rows, n)
        h *= 2
    return y


def _decode_order1(m: int, soft: np.ndarray) -> np.ndarray:
    # ML for RM(1, m): correlate against every affine form via Hadamard.
    spectrum = _hadamard_rows(soft)
    peak_at = np.argmax(np.abs(spectrum), axis=1)
    peak = spectrum[np.arange(soft.shape[0]), peak_at]
    points = np.arange(1 << m, dtype=np.uint32)
    words = (np.bitwise_count(points[None, :] & peak_at[:, None].astype(np.uint32)) & 1)
    return (words ^ (peak < 0)[:, None]).astype(np.uint8)


def _decode(m: int, r: int, soft: np.ndarray) -> np.ndarray:
    if r == 0:
        totals = soft.sum(axis=1, dtype=np.int64)
        bits = (totals < 0).astype(np.uint8)
        return np.repeat(bits[:, None], 1 << m, axis=1)
    if r == m:
        return to_hard(soft)
    if r == 1:
        return _decode_order1(m, soft)
    half = 1 << (m - 1)
    y1, y2 = soft[:, :half], soft[:, half:]
    v = _decode(m - 1, r - 1, y1 * y2)
    flip = (1 - 2 * v).astype(np.int8)
    u_soft = y1 + y2 * flip
    if half >= SOFT_BLOCK:
        u_soft = np.sign(u_soft)
    u = _decode(m - 1, r, u_soft)
    return np.concatenate([u, u ^ v], axis=1)


def decode_closest(m: int, r: int, soft: np.ndarray) -> np.ndarray:
    """Closest-coset decode soft word(s) against RM(r, m).

    Accepts one word or a batch (rows) of soft values in {-1, 0, +1}.
    Returns codeword(s) in evaluation order, for any such input
    (including all-erased).  Exact ML whenever r <= 1 or r == m.

    Raises:
        ValueError: on a wrong length or a soft value outside {-1, 0, +1}
            (larger reliabilities would wrap int8 inside the soft blocks).
    """
    soft = np.asarray(soft)
    if not np.isin(soft, (-1, 0, 1)).all():
        raise ValueError("soft values must lie in {-1, 0, +1}")
    soft = soft.astype(np.int8)
    single = soft.ndim == 1
    if single:
        soft = soft[None, :]
    if soft.ndim != 2 or soft.shape[1] != 1 << m:
        raise ValueError(f"soft word length {soft.shape[-1]} != 2**{m}")
    out = _decode(m, r, soft)
    return out[0] if single else out


def _closest_errors(code: RmCode, v: np.ndarray, erased) -> np.ndarray:
    """v + c per row, c the codeword decoded from v (systematic order)
    with the columns in erased marked as erasures."""
    soft = to_soft(v)
    soft[:, erased] = 0
    soft_eval = np.empty_like(soft)
    soft_eval[:, code.info_perm] = soft
    return v ^ _decode(code.m, code.r, soft_eval)[:, code.info_perm]


def coset_leaders(code: RmCode, syndromes: np.ndarray) -> np.ndarray:
    """Minimum-weight error for each syndrome, as found by the decoder.

    Accepts one syndrome or a batch (rows) and returns the same shape.
    Starts from v = [0_k | s], which satisfies H v = s in systematic
    form, decodes v against the code and returns e = v + c.  The result
    always satisfies H e = s; the weight is exactly minimal whenever
    the decoder is ML for the code.
    """
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    rows = np.atleast_2d(syndromes)
    if rows.ndim != 2 or rows.shape[1] != code.n - code.k:
        raise ValueError(f"syndrome length {rows.shape[-1]} != n-k = {code.n - code.k}")
    v = np.zeros((rows.shape[0], code.n), dtype=np.uint8)
    v[:, code.k :] = rows
    err = _closest_errors(code, v, [])
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
    rows = np.atleast_2d(s_tops)
    top = base.n - base.k - mod.p
    if rows.ndim != 2 or rows.shape[1] != top:
        raise ValueError(f"syndrome length {rows.shape[-1]} != n-k-p = {top}")
    v = np.zeros((rows.shape[0], base.n), dtype=np.uint8)
    v[:, mod.kept_cols] = rows
    err = _closest_errors(base, v, mod.deleted)[:, mod.unpunctured_cols]
    check = gf2.mat_mul(err[:, : base.k], mod.P_kept) ^ err[:, base.k :]
    if not np.array_equal(check, rows):
        raise AssertionError("punctured decode violated H_p e = s_top")
    return err[0] if s_tops.ndim == 1 else err
