"""Reed-Muller codes RM(r, m) in systematic form.

Evaluation points are the integers 0..2**m-1 read little-endian, so
variable j of point t is bit (t >> j) & 1.  Monomial rows are listed by
degree, then lexicographically within a degree.  That fixes the raw
evaluation generator bit-exactly; the systematic form [I_k | P] is then
obtained by moving the first information set in column order to the
front (gf2.systematize).

A code stores its generator G in the systematic column order, and
``info_perm`` records which evaluation position each systematic column
came from, which is what the recursive decoder needs.  The parity check
H is derived from G on first read; only tests and the benchmark's
oracle read it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import gf2

MAX_M = 12

# Exhaustive minimum-weight search is used up to this row-space dimension;
# above it a randomized information-set search over SEARCH_BUDGET column
# orders takes over.
EXHAUSTIVE_DIM = 20
SEARCH_BUDGET = 48


@dataclass(frozen=True)
class RmCode:
    """A systematic RM(r, m) code.

    Only G = [I_k | P] is stored; column j of G is evaluation position
    info_perm[j] of the raw monomial code.
    """

    m: int
    r: int
    n: int
    k: int
    d: int
    G: np.ndarray
    info_perm: np.ndarray

    @property
    def t(self) -> int:
        """Guaranteed error correctability floor((d-1)/2)."""
        return (self.d - 1) // 2

    @property
    def P(self) -> np.ndarray:
        return self.G[:, self.k :]

    @cached_property
    def H(self) -> np.ndarray:
        """H = [P^T | I_{n-k}], so G @ H.T = 0; built from G on first read."""
        h = np.concatenate([self.P.T, gf2.identity(self.n - self.k)], axis=1)
        h.flags.writeable = False
        return h

    def to_sys_order(self, word_eval: np.ndarray) -> np.ndarray:
        return word_eval[self.info_perm]

    def __repr__(self) -> str:  # pragma: no cover
        return f"RmCode(m={self.m}, r={self.r}, n={self.n}, k={self.k}, d={self.d})"


def variable_table(m: int) -> np.ndarray:
    """m x 2**m table of variable values at every evaluation point."""
    points = np.arange(1 << m, dtype=np.uint32)
    return ((points[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)


def monomial_generator(m: int, r: int) -> np.ndarray:
    """Raw k x n generator: one row per monomial of degree <= r."""
    n = 1 << m
    table = variable_table(m)
    rows = [np.ones(n, dtype=np.uint8)]
    for deg in range(1, r + 1):
        for combo in itertools.combinations(range(m), deg):
            rows.append(np.bitwise_and.reduce(table[list(combo)], axis=0))
    return np.array(rows, dtype=np.uint8)


def _assemble(m: int, r: int, g_sys: np.ndarray, perm: np.ndarray) -> RmCode:
    perm = np.ascontiguousarray(perm, dtype=np.int64)
    for a in (g_sys, perm):
        a.flags.writeable = False
    return RmCode(m=m, r=r, n=1 << m, k=g_sys.shape[0], d=1 << (m - r), G=g_sys, info_perm=perm)


def _check_params(m: int, r: int) -> None:
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the supported maximum {MAX_M}")


def code_dims(m: int, r: int) -> tuple[int, int, int]:
    """(n, k, t) of RM(r, m): 2**m, sum_{i<=r} C(m, i) and (2**(m-r) - 1) // 2.

    Raises:
        ValueError: unless 0 <= r <= m <= MAX_M, checked before any sizing.
    """
    _check_params(m, r)
    return 1 << m, sum(comb(m, i) for i in range(r + 1)), ((1 << (m - r)) - 1) // 2


def build(m: int, r: int) -> RmCode:
    """Construct RM(r, m) with n = 2**m, k = sum_i C(m, i), d = 2**(m-r)."""
    _check_params(m, r)
    g_sys, perm = gf2.systematize(monomial_generator(m, r))
    return _assemble(m, r, g_sys, perm)


def build_with_perm(m: int, r: int, info_perm: np.ndarray) -> RmCode:
    """Rebuild a code whose systematic column order is already known.

    Used when loading stored keys: the stored permutation reproduces the
    exact G the key was generated with.  Its first k columns must be an
    information set (gf2.RankError otherwise).
    """
    _check_params(m, r)
    raw = monomial_generator(m, r)
    k, n = raw.shape
    perm = np.asarray(info_perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("info_perm is not a permutation of the column indices")
    g_sys, _ = gf2.systematize(np.take(raw, perm, axis=1), excluded=range(k, n))
    return _assemble(m, r, g_sys, perm)


def supp(c: np.ndarray) -> np.ndarray:
    """Indices of the nonzero positions, ascending."""
    return np.flatnonzero(np.asarray(c))


def min_weight_codeword(code: RmCode, rng: np.random.Generator) -> np.ndarray:
    """Random codeword of weight exactly d = 2**(m-r).

    Sampled constructively as the indicator of a random (m-r)-flat: the
    product of r independent affine linear forms.  Returned in the
    code's systematic column order.
    """
    m, r = code.m, code.r
    if r == 0:
        return np.ones(code.n, dtype=np.uint8)
    while True:
        forms = gf2.random_bits((r, m), rng)
        if gf2.rank(forms) == r:
            break
    consts = gf2.random_bits(r, rng)
    vals = gf2.mat_mul(forms, variable_table(m))
    word_eval = np.all(vals == consts[:, None], axis=0).astype(np.uint8)
    return code.to_sys_order(word_eval)


def proj(code: RmCode, positions) -> np.ndarray:
    """Generator of the code projected onto the given positions."""
    pos = np.asarray(list(positions), dtype=np.int64)
    if pos.size == 0:
        raise ValueError("projection index set is empty")
    pos = np.sort(pos)
    return code.G[:, pos].copy()


def _candidate_words(basis: np.ndarray, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Batches of nonzero words in the row space of a reduced basis.

    Up to EXHAUSTIVE_DIM rows: every nonzero word, 2**14 at a time.
    Above it: the reduced rows of SEARCH_BUDGET column orders, the
    identity first and then orders drawn from rng one batch at a time.
    """
    dim, length = basis.shape
    if dim <= EXHAUSTIVE_DIM:
        shifts = np.arange(dim, dtype=np.uint32)
        chunk = 1 << 14
        for start in range(1, 1 << dim, chunk):
            msgs = np.arange(start, min(start + chunk, 1 << dim), dtype=np.uint32)
            yield gf2.mat_mul(((msgs[:, None] >> shifts) & 1).astype(np.uint8), basis)
        return
    for trial in range(SEARCH_BUDGET):
        perm = np.arange(length) if trial == 0 else rng.permutation(length)
        red, pivots = gf2.rref(basis[:, perm])
        words = np.empty((len(pivots), length), dtype=np.uint8)
        words[:, perm] = red[: len(pivots)]
        yield words


def min_weight_in_rowspace(g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Lowest-weight nonzero word found in the row space of g.

    Exhaustive (hence exact) when the row-space dimension is at most
    EXHAUSTIVE_DIM; otherwise a randomized information-set search over
    SEARCH_BUDGET column orders.  The first lightest word of the first
    batch that holds it is returned, and a weight-1 word ends the search.
    """
    red, pivots = gf2.rref(np.asarray(g, dtype=np.uint8))
    if len(pivots) == 0:
        raise ValueError("row space is zero")
    best, best_w = None, red.shape[1] + 1
    for words in _candidate_words(red[: len(pivots)], rng):
        weights = words.sum(axis=1)
        idx = int(np.argmin(weights))
        if weights[idx] < best_w:
            best, best_w = words[idx].copy(), int(weights[idx])
            if best_w == 1:
                break
    return best
