"""Reed-Muller codes RM(r, m) in systematic form.

Evaluation points are the integers 0..2**m-1 read little-endian, so
variable j of point t is bit (t >> j) & 1, and the code is spanned by
the evaluations of the monomials of degree <= r.  A point is identified
with its set of variables, a monomial with the set it multiplies; |x|
is the weight of x and y <= x means inclusion.

The systematic form [I_k | P] has a closed form, so no row reduction
builds a code.  For a point x let c_x be its column, the values
[S <= x] of the monomials S with |S| <= r.  Mobius inversion on the
Boolean lattice (MacWilliams and Sloane, ch. 13) gives

    sum over y <= x of c_y = (the [S = x] column) = 0   when |x| > r,

so the column of a point of weight above r is a sum of columns of its
proper subsets, all smaller integers, and the columns of the k points
of weight <= r are independent.  The first k independent columns in
ascending order are therefore exactly the points of weight <= r, and

    c_x = sum over y <= x, |y| <= r of C(|x| - |y| - 1, r - |y|) c_y,

because for S <= x with |S| = s, Vandermonde's identity (with upper
negation, mod 2) sums the coefficients of the y with S <= y <= x to
C(r - s, r - s) = 1.  By Lucas' theorem, C(a, b) is odd iff b & ~a == 0.
So P[y, x] = 1 iff y <= x and (r - |y|) & ~(|x| - |y| - 1) == 0: the
information set is the points of weight <= r in ascending order, the
parity part the others in ascending order.  For a given information set
and column order the systematic form is unique, so this is the form a
row reduction of the monomial generator would give.

The minimum-weight words of RM(r, m) are the indicators of its
(m-r)-flats (MacWilliams and Sloane, ch. 13), so min_weight_codeword
draws one as r independent affine forms and their constants.  On an
(m-r)-flat the code restricts to RM(min(r, m-r), m-r), whose lightest
words are the single points when 2r >= m and the (m-2r)-subflats
otherwise, so a puncture plan draws its y in closed form too
(modcode.puncture_plan); no minimum-weight search is run.

A code stores its generator G in the systematic column order, and
``info_perm`` records which evaluation position each systematic column
came from, which is what the recursive decoder needs.  build shares one
read-only code per (m, r) while any reference to it is held.  Moving the
information set off punctured columns eliminates only the rows of the
columns that leave it (modcode.align_information_set); keygen does this
once, and a private-key load replays the same move from the closed form,
and neither writes the generator of the new column order: the modified
parity check is read from the parent's packed parity block (packed_PT)
and the moved rows.  The parity check H is derived from G on first
read; only tests and the benchmark's oracle read it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import gf2

MAX_M = 12


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
    def packed_PT(self) -> np.ndarray:
        """P^T packed: row j holds column k + j of G, its k bits in
        ceil(k/8) bytes, bit i of byte b being row 8b + i (little-endian
        bit order); read-only, built on first read."""
        packed = np.ascontiguousarray(gf2._packbits_axis0(self.P).T)
        packed.flags.writeable = False
        return packed

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


_CLOSED_FORM_CELLS = 1 << 18
"""Largest temporary of the closed form, in uint32 cells (1 MB)."""


def _systematic(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """G = [I_k | P] and info_perm of RM(r, m), from the closed form in the
    module docstring, written row block by row block."""
    n = 1 << m
    points = np.arange(n, dtype=np.uint32)
    weights = np.bitwise_count(points).astype(np.int64)
    low = weights <= r
    info_perm = np.concatenate([np.flatnonzero(low), np.flatnonzero(~low)])
    k = int(low.sum())
    # P[y, x] = 1 iff key[y] & mask[x] == 0.  The low m bits test y <= x;
    # bit m + |y| of mask[x] is set when C(|x| - |y| - 1, r - |y|) is even.
    s = np.arange(r + 1)[:, None]
    w = np.arange(r + 1, m + 1)[None, :]
    even_bits = ((((r - s) & ~(w - s - 1)) != 0) << s).sum(axis=0)  # at |x| - r - 1
    key = (points[low] | (1 << (m + weights[low]))).astype(np.uint32)
    mask = (~points[~low] & (n - 1)) | (even_bits[weights[~low] - r - 1] << m)
    mask = mask.astype(np.uint32)
    g = np.zeros((k, n), dtype=np.uint8)
    np.fill_diagonal(g, 1)
    if k < n:
        rows = max(1, _CLOSED_FORM_CELLS // (n - k))
        cells = np.empty((min(rows, k), n - k), dtype=np.uint32)
        for start in range(0, k, rows):
            block = cells[: min(rows, k - start)]
            np.bitwise_and(key[start : start + rows, None], mask, out=block)
            np.equal(block, 0, out=g[start : start + rows, k:].view(np.bool_))
    return g, info_perm


_built: weakref.WeakValueDictionary[tuple[int, int], RmCode] = weakref.WeakValueDictionary()


def build(m: int, r: int) -> RmCode:
    """RM(r, m) with n = 2**m, k = sum_i C(m, i), d = 2**(m-r).

    One code per (m, r) while it is referenced: a build while any
    reference to RM(r, m) is held returns that object, whose arrays are
    read-only, and the code is freed with its last reference.  So a
    caller's code, keygen's parent and a key load's replay are one
    generator, and key set-up holds no other generator beside it: the
    aligned column order is a permutation and a few moved rows
    (modcode.align_information_set).  Two threads building one new code
    may each build it; both results are equal.
    """
    _check_params(m, r)
    code = _built.get((m, r))
    if code is None:
        code = _built[m, r] = _assemble(m, r, *_systematic(m, r))
    return code


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
        if len(gf2.rref(forms)[1]) == r:
            break
    consts = gf2.random_bits(r, rng)
    vals = gf2.mat_mul(forms, variable_table(m))
    word_eval = np.all(vals == consts[:, None], axis=0).astype(np.uint8)
    return code.to_sys_order(word_eval)
