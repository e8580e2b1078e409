"""Puncturing plan and parity-check modification with random insertion.

The plan picks a minimum-weight codeword x, a minimum-weight word y of
the code projected onto supp(x), a puncture count p between wt(y) and
2*wt(y), and a deletion set of p columns containing supp(y) (extras
drawn from supp(x)).  y is drawn in closed form (see rmcode): the first
point of supp(x) when 2r >= m, else an (m-2r)-flat inside it.  After
re-aligning the information set so every deleted column sits in the
parity part, the modified parity check is

    H_m = [ P'^T  I_{n-k-p}  0   ]
          [ R               I_p ]

where P' is P minus the deleted columns and R is a uniform random p x
(n-p) block.  The alignment is kept as a column order, the few reduced
rows that move and the deletion set in that order (Alignment), one value
from which H_m is assembled.  P'^T is written from the P^T bits of the
parent's packed parity check and those rows, so neither keygen nor a key
load forms the generator of the aligned order.
Signing and verification need only H_m, so a ModifiedCode is the
rmcode.CheckMatrix of H_m's packed rows, the private key file's own
layout, plus the deletion set and, of the parent, only the column order
the decoder reads.  Its generator G_m = [I_k | P' | R_1^T + P' R_2^T],
with R = [R_1 | R_2] split after column k, is derived by the test
oracle (tests/reference.py), which checks G_m @ H_m.T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2
from .rmcode import CheckMatrix, RmCode, min_weight_codeword, variable_table


class PuncturePlan(NamedTuple):
    x: np.ndarray  # minimum-weight codeword, systematic order
    y: np.ndarray  # projected minimum-weight word written back into parent coordinates
    p: int
    deleted: np.ndarray  # sorted column indices, |deleted| = p, supp(y) included


class Alignment(NamedTuple):
    """A parent code's information set moved off a deletion set, written
    as the new column order, the q moved rows and the deletion set in
    the new order, not as a generator.

    Column j of the aligned code is column order[j] of the parent: the
    kept information columns, the q entering ones, the q leaving ones
    and the other parity columns, each ascending.  Row j of moved is the
    parent's generator row of the j-th leaving column (RmCode.rows),
    reduced to the identity on the entering columns, in the parent's
    column order.  q = 0 leaves the parent's order.  Every leaving column
    is deleted and no entering one is, so deleted, sorted and read-only,
    lies in the parity part and starts with k, k+1, ..., k+q-1.
    """

    code: RmCode
    order: np.ndarray
    moved: np.ndarray  # q x n
    deleted: np.ndarray  # p positions of the new order, sorted, all >= k

    @property
    def info_perm(self) -> np.ndarray:
        """The aligned code's systematic column order, as evaluation positions."""
        return self.code.info_perm[self.order]


@dataclass(frozen=True, eq=False)
class ModifiedCode(CheckMatrix):
    """Punctured-plus-inserted code built over an aligned parent.

    Column order: k information positions, then the n-k-p kept parity
    positions of the parent, then the p inserted positions.  H_m is the
    only matrix stored, as the CheckMatrix's packed rows, an eighth of
    its unpacked size; n, k, t and H_m's product table come with them,
    and p from the deletion set.  Keygen reads these rows for
    H' = L U H_m Q, permuting H_m's columns as the packed rows of H_m^T
    (scheme.keygen).  R is unpacked from H_m's rows on every read, as H
    is.
    """

    info_perm: np.ndarray  # the aligned parent's systematic column order
    deleted: np.ndarray  # parent parity columns removed, sorted, all >= k

    @property
    def p(self) -> int:
        return self.deleted.size

    @property
    def R(self) -> np.ndarray:
        """The inserted rows' left block, p x (n-p), a fresh unpacking of packed_H."""
        top = self.n - self.k - self.p
        return np.unpackbits(self.packed_H[top:], axis=1, count=self.n - self.p)

    @cached_property
    def kept_cols(self) -> np.ndarray:
        """Parent systematic columns that survive the puncturing (parity part)."""
        return np.delete(np.arange(self.k, self.n), self.deleted - self.k)


def puncture_plan(code: RmCode, rng: np.random.Generator) -> PuncturePlan:
    """Choose the deletion set for a code of order 1 <= r < m.

    When 2r < m, y is supp(x) cut by r more random affine forms and
    constants, redrawn until they keep exactly 2**(m-2r) of its points,
    so y is a uniformly random (m-2r)-flat inside supp(x).  When 2r >= m,
    y is the first point of supp(x) in systematic order: a function of
    x, not a uniform draw among its points (a known deviation; see the
    README).  Systematic order puts the information points first, so
    that y is an information column whenever supp(x) holds one.
    """
    m, r = code.m, code.r
    if not 1 <= r < m:
        raise ValueError(f"puncturing needs 1 <= r < m, got r={r}, m={m}")
    x = min_weight_codeword(code, rng)
    sx = np.flatnonzero(x)
    if 2 * r >= m:
        keep = sx[:1]
    else:
        table = variable_table(m)[:, code.info_perm[sx]]  # supp(x)'s points
        while True:
            forms = gf2.random_bits((r, m), rng)
            consts = gf2.random_bits(r, rng)
            hit = np.all(gf2.mat_mul(forms, table) == consts[:, None], axis=0)
            if np.count_nonzero(hit) == 1 << (m - 2 * r):
                break
        keep = sx[hit]
    y = np.zeros(code.n, dtype=np.uint8)
    y[keep] = 1
    wy = keep.size
    p = int(rng.integers(wy, 2 * wy + 1))
    # supp(y) lies in supp(x), so x > y marks supp(x) \ supp(y), of
    # 2**(m-r) - wy >= wy columns.
    pool = np.flatnonzero(x > y)
    chosen = rng.choice(pool, size=p - wy, replace=False) if p > wy else pool[:0]
    deleted = np.sort(np.concatenate([keep, chosen]))
    return PuncturePlan(x=x, y=y, p=p, deleted=deleted)


def align_information_set(code: RmCode, deleted) -> Alignment:
    """Move the information set so every deleted column lands in the parity part.

    Keeps the current column order wherever possible: the deleted
    information columns leave, and the first as many non-deleted parity
    columns in ascending order that complete an information set enter,
    so a deletion set already inside the parity part leaves the order
    unchanged.  One q x n Gauss-Jordan elimination of the q leaving rows
    finds the entering columns and makes those rows the identity on
    them; no generator is written for the new order (see Alignment),
    which carries the deletion set in that order.

    Raises:
        gf2.RankError: if the non-deleted columns hold no information set.
    """
    deleted = np.asarray(sorted(deleted), dtype=np.int64)
    n, k = code.n, code.k
    allowed = np.ones(n, dtype=bool)
    allowed[deleted] = False
    leaving = np.flatnonzero(~allowed[:k])
    if leaving.size == 0:
        deleted.flags.writeable = False
        return Alignment(code, np.arange(n), np.zeros((0, n), dtype=np.uint8), deleted)
    allowed[:k] = False
    candidates = np.flatnonzero(allowed)
    # The candidates first, so the pivots pick the first independent ones.
    cols = np.concatenate([candidates, np.flatnonzero(~allowed)])
    red, pivots = gf2.rref(np.take(code.rows(leaving), cols, axis=1))
    if pivots[-1] >= candidates.size:
        raise gf2.RankError(
            f"the candidate columns do not complete an information set of size k={k}"
        )
    entering = cols[pivots]
    moved = np.empty_like(red)
    moved[:, cols] = red
    kept = np.ones(k, dtype=bool)
    kept[leaving] = False
    parity = np.ones(n, dtype=bool)
    parity[:k] = False
    parity[entering] = False
    order = np.concatenate([np.flatnonzero(kept), entering, leaving, np.flatnonzero(parity)])
    # Positions of the old columns inside the new order.
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    deleted = np.sort(inv[deleted])
    deleted.flags.writeable = False
    return Alignment(code, order, moved, deleted)


_UNPACK_BLOCK_BYTES = 1 << 16
"""Largest slab of H_m's top rows that assemble_modified unpacks at once."""


def assemble_modified(aligned: Alignment, r_block: np.ndarray) -> ModifiedCode:
    """Assemble H_m from an alignment and the p x (n-p) block R.

    H_m is [P'^T 0; R] plus an identity on its last n-k columns.  The
    row of P'^T for a kept parity column x is column x of the aligned
    generator G'.  That column is column x of the parent's G plus column
    e_j of G for each moved row j with a 1 at x (e_j the j-th entering
    column), read at G's kept information rows, followed by the moved
    rows' bits at x.  So the rows are gathered from the first k bits of
    the parent's packed rows [P^T | I] (RmCode), take one packed XOR per
    moved row, and are unpacked a slab at a time, the leaving rows' bits
    dropped and the moved rows' bits placed, and packed into H_m's rows;
    R is packed whole, and the identity is set on the packed rows.  The
    kept parity columns are those the alignment's deletion set leaves.
    """
    code, order, moved, deleted = aligned
    n, k = code.n, code.k
    p, q = deleted.size, moved.shape[0]
    kept = order[np.delete(np.arange(k, n), deleted - k)]

    info_bytes = (k + 7) // 8
    rows = code.packed_H[kept - k, :info_bytes]
    for row, entering in zip(moved, order[k - q : k]):
        rows[row[kept] == 1] ^= code.packed_H[entering - k, :info_bytes]
    top = n - k - p
    packed_h = np.zeros((n - k, (n + 7) // 8), dtype=np.uint8)
    leaving = order[k : k + q]
    step = max(1, _UNPACK_BLOCK_BYTES // k)
    for start in range(0, top, step):
        bits = np.unpackbits(rows[start : start + step], axis=1, count=k)
        stop = start + bits.shape[0]
        # G's information rows in G' order: the kept ones, then the moved rows.
        slab = np.concatenate([np.delete(bits, leaving, axis=1), moved[:, kept[start:stop]].T], 1)
        packed_h[start:stop, :info_bytes] = np.packbits(slab, axis=1)
    packed_h[top:, : (n - p + 7) // 8] = np.packbits(r_block, axis=1)
    # The identity on the last n-k columns: bit k + i of row i.
    diag = np.arange(k, n)
    packed_h[diag - k, diag >> 3] |= (128 >> (diag & 7)).astype(np.uint8)

    packed_h.flags.writeable = False
    return ModifiedCode(
        m=code.m, r=code.r, packed_H=packed_h, info_perm=aligned.info_perm, deleted=deleted
    )


def build_modified(aligned: Alignment, rng: np.random.Generator) -> ModifiedCode:
    """Draw a uniform R and assemble the modified pair for an alignment."""
    p = aligned.deleted.size
    return assemble_modified(aligned, gf2.random_bits((p, aligned.code.n - p), rng))
