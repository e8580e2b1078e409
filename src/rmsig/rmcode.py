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

A code stores only its parity check H = [P^T | I_{n-k}], as packed
rows (packed_H) in the layout of every packed matrix (gf2) and written
straight from the closed form, and ``info_perm``, the evaluation
position each systematic column came from, which the recursive decoder
needs; no program path forms a generator.  build shares one read-only
code per (m, r) while any reference to it is held.  Moving the
information set off punctured columns eliminates only the rows of the
columns that leave it (modcode.align_information_set), read with
RmCode.rows; keygen does this once, and a private-key load replays the
same move from the closed form.  The modified parity check is read from
the first k bits of packed_H's rows and the moved rows, and kept as
packed rows too (modcode.ModifiedCode).  Every parity check the scheme
holds, the code's H, H_m and the public H', is one type, CheckMatrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import gf2

MAX_M = 12


@dataclass(frozen=True, eq=False)
class CheckMatrix:
    """A parity check H, (n-k) x n, of a code of length n = 2**m and
    order r, held only as its packed rows in gf2.pack_rows' layout, with
    zero pad bits: a code's H, a modified code's H_m or a public key's
    H'.  H is unpacked from them on every read, so no holder keeps it;
    the naive forgery attack (analysis), the benchmark's oracle and
    tests read it, and no signing, verifying or key path does.
    The gf2.ProductTable of H^T, by which decoded errors are checked
    (decoder.check_leaders) and signatures verified (scheme.verify), is
    cached on first use.  Equality is identity.
    """

    m: int
    r: int
    packed_H: np.ndarray  # (n-k) x ceil(n/8) packed rows

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return self.n - self.packed_H.shape[0]

    @property
    def t(self) -> int:
        """The RM(r, m) code's error correctability floor((d-1)/2)."""
        return ((1 << (self.m - self.r)) - 1) // 2

    @property
    def H(self) -> np.ndarray:
        """H, a fresh unpacking of packed_H."""
        return np.unpackbits(self.packed_H, axis=1, count=self.n)

    @cached_property
    def H_T_table(self) -> gf2.ProductTable:
        """Product table of H.T, for e @ H.T of one error (a gather of its
        rows) or a batch; its rows, H's columns, are packed from a few
        rows of H unpacked at a time (gf2.pack_columns)."""
        return gf2.ProductTable(gf2.pack_columns(self.packed_H, self.n), self.packed_H.shape[0])


@dataclass(frozen=True, eq=False)
class RmCode(CheckMatrix):
    """A systematic RM(r, m) code, generator G = [I_k | P] and parity
    check H = [P^T | I_{n-k}].

    Row j of packed_H holds column k + j of G in its first k bits, so
    row i of G is bit 128 >> (i % 8) of byte i // 8 of those bits, and
    its identity bit k + j.  Column j of G is evaluation position
    info_perm[j] of the raw monomial code.
    """

    info_perm: np.ndarray

    @property
    def d(self) -> int:
        """Minimum distance 2**(m-r)."""
        return 1 << (self.m - self.r)

    def rows(self, index: np.ndarray) -> np.ndarray:
        """Rows index of G: the identity bit, and P's bits read out of
        the first k bits of packed_H's rows."""
        index = np.asarray(index, dtype=np.int64)
        g = np.zeros((index.size, self.n), dtype=np.uint8)
        g[np.arange(index.size), index] = 1
        g[:, self.k :] = ((self.packed_H[:, index >> 3] >> (7 - (index & 7))) & 1).T
        return g

    def __repr__(self) -> str:  # pragma: no cover
        return f"RmCode(m={self.m}, r={self.r}, n={self.n}, k={self.k}, d={self.d})"


def variable_table(m: int) -> np.ndarray:
    """m x 2**m table of variable values at every evaluation point."""
    points = np.arange(1 << m, dtype=np.uint32)
    return ((points[None, :] >> np.arange(m, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)


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


def _systematic(m: int, r: int) -> RmCode:
    """RM(r, m) from the closed form in the module docstring: the rows
    [P^T | I] of packed_H, P^T written a block of its rows at a time,
    and info_perm."""
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
    packed = np.zeros((n - k, (n + 7) // 8), dtype=np.uint8)
    rows = max(1, _CLOSED_FORM_CELLS // k)
    for start in range(0, n - k, rows):
        cells = mask[start : start + rows, None] & key
        packed[start : start + rows, : (k + 7) // 8] = np.packbits(cells == 0, axis=1)
    # The identity on the last n-k columns: bit k + i of row i.
    diag = np.arange(k, n)
    packed[diag - k, diag >> 3] |= (128 >> (diag & 7)).astype(np.uint8)
    for a in (packed, info_perm):
        a.flags.writeable = False
    return RmCode(m=m, r=r, packed_H=packed, info_perm=info_perm)


_built: weakref.WeakValueDictionary[tuple[int, int], RmCode] = weakref.WeakValueDictionary()


def build(m: int, r: int) -> RmCode:
    """RM(r, m) with n = 2**m, k = sum_i C(m, i), d = 2**(m-r).

    One code per (m, r) while it is referenced: a build while any
    reference to RM(r, m) is held returns that object, whose arrays are
    read-only, and the code is freed with its last reference.  So a
    caller's code, keygen's parent and a key load's replay are one
    packed parity check, and key set-up holds no other matrix of the
    code beside it: the aligned column order is a permutation and a few
    moved rows (modcode.align_information_set).  Two threads building
    one new code may each build it; both results are equal.
    """
    _check_params(m, r)
    code = _built.get((m, r))
    if code is None:
        code = _built[m, r] = _systematic(m, r)
    return code


def min_weight_codeword(code: RmCode, rng: np.random.Generator) -> np.ndarray:
    """Random codeword of weight exactly d = 2**(m-r).

    Sampled constructively as the indicator of a random (m-r)-flat: the
    product of r independent affine linear forms (none at r = 0, the
    all-ones word).  Returned in the code's systematic column order.
    """
    m, r = code.m, code.r
    while True:
        forms = gf2.random_bits((r, m), rng)
        if len(gf2.rref(forms)[1]) == r:
            break
    consts = gf2.random_bits(r, rng)
    vals = gf2.mat_mul(forms, variable_table(m))
    word_eval = np.all(vals == consts[:, None], axis=0).astype(np.uint8)
    return word_eval[code.info_perm]
