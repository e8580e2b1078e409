"""Checks of rmsig's outputs, computed apart from the program.

Nothing here calls rmsig.  Syndromes are rebuilt with hashlib from the
bit-exact rule in the `rmsig.scheme` docstring, GF(2) products are
taken on Python integers (one integer per matrix row, AND then
popcount), and the calibration bound uses exact integers from
`math.comb`.  Each check returns None when it holds and a one-line
reason when it does not.
"""

from __future__ import annotations

import hashlib
from math import comb

import numpy as np

_INNER_DIGEST_BYTES = 32


def bits_to_int(bits: np.ndarray) -> int:
    """Read a 0/1 vector as an integer, element 0 as the most significant bit."""
    bits = np.asarray(bits, dtype=np.uint8)
    pad = -bits.size % 8
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> pad


class ParityCheck:
    """A binary matrix held as one Python integer per row."""

    def __init__(self, h: np.ndarray):
        self.cols = h.shape[1]
        self.rows = [bits_to_int(row) for row in h]

    def syndrome(self, e_int: int) -> int:
        """H e over GF(2), row 0 as the most significant bit."""
        s = 0
        for row in self.rows:
            s = (s << 1) | ((row & e_int).bit_count() & 1)
        return s


def hashed_syndrome(message: bytes, i: int, bits: int) -> int:
    """First `bits` bits of SHAKE256(SHAKE256(M, 32) || i as u64 BE), MSB-first."""
    inner = hashlib.shake_256(message).digest(_INNER_DIGEST_BYTES)
    nbytes = (bits + 7) // 8
    stream = hashlib.shake_256(inner + i.to_bytes(8, "big")).digest(nbytes)
    return int.from_bytes(stream, "big") >> (8 * nbytes - bits)


def check_signature(h: ParityCheck, w: int, message: bytes, e, i) -> str | None:
    """e is binary of length n with weight <= w, and H' e = h(h(M) | i)."""
    e = np.asarray(e)
    if e.ndim != 1 or e.shape[0] != h.cols:
        return f"signature vector has shape {e.shape}, expected ({h.cols},)"
    if e.dtype.kind not in "biu" or not np.isin(e, (0, 1)).all():
        return "signature vector is not binary"
    weight = int(np.count_nonzero(e))
    if weight > w:
        return f"signature weight {weight} exceeds w={w}"
    if not isinstance(i, int) or not 1 <= i < 1 << 64:
        return f"counter {i!r} outside [1, 2**64)"
    if h.syndrome(bits_to_int(e)) != hashed_syndrome(message, i, len(h.rows)):
        return f"H'e differs from the hashed syndrome at counter {i}"
    return None


def check_coset_leaders(h: ParityCheck, syndromes: np.ndarray, leaders: np.ndarray) -> str | None:
    """Every returned error e satisfies H e = s."""
    if leaders.shape != (syndromes.shape[0], h.cols):
        return f"coset leaders have shape {leaders.shape}"
    for s, e in zip(syndromes, leaders):
        if h.syndrome(bits_to_int(e)) != bits_to_int(s):
            return "a coset leader does not satisfy He = s"
    return None


def check_distribution(histogram: dict, samples: int, n: int, k: int) -> str | None:
    """The histogram counts every sample, and no weight class is over-full.

    Distinct syndromes have distinct coset leaders, so at most
    sum_{i<=x} C(n, i) of the 2^(n-k) syndromes decode to weight <= x.
    The sampled share at every x is held to that bound in exact integers.
    """
    if sum(histogram.values()) != samples:
        return f"histogram counts {sum(histogram.values())} of {samples} samples"
    if any(not 0 <= wt <= n or c < 1 for wt, c in histogram.items()):
        return "histogram has a weight outside [0, n] or an empty class"
    total = 1 << (n - k)
    balls = 0
    cum = 0
    prev = -1
    for wt in sorted(histogram):
        balls += sum(comb(n, i) for i in range(prev + 1, wt + 1))
        prev = wt
        cum += histogram[wt]
        if cum * total > samples * balls:
            return f"share at weight <= {wt} exceeds the counting bound"
    return None
