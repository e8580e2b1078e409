"""Puncturing plan and parity-check modification with random insertion.

The plan picks a minimum-weight codeword x, a minimum-weight word y of
the code projected onto supp(x), a puncture count p between wt(y) and
2*wt(y), and a deletion set of p columns containing supp(y) (extras
drawn from supp(x)).  After re-aligning the information set so every
deleted column sits in the parity part, the modified parity check is

    H_m = [ P'^T  I_{n-k-p}  0   ]
          [ R               I_p ]

where P' is P minus the deleted columns and R is a uniform random p x
(n-p) block.  Signing and verification need only H_m, so a
ModifiedCode keeps only H_m, with P'^T and R as views of its blocks,
and of the parent only the column order the decoder reads.  Its
generator G_m = [I_k | P' | R_1^T + P' R_2^T], with R = [R_1 | R_2]
split after column k, is derived by the test oracle
(tests/reference.py), which checks G_m @ H_m.T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2
from .rmcode import (
    RmCode,
    _assemble,
    _move_information_set,
    min_weight_codeword,
    min_weight_in_rowspace,
    proj,
    supp,
)


class PuncturePlan(NamedTuple):
    x: np.ndarray  # minimum-weight codeword, systematic order
    y: np.ndarray  # projected minimum-weight word written back into parent coordinates
    p: int
    deleted: np.ndarray  # sorted column indices, |deleted| = p, supp(y) included


@dataclass(frozen=True)
class ModifiedCode:
    """Punctured-plus-inserted code built over an aligned parent.

    Column order: k information positions, then the n-k-p kept parity
    positions of the parent, then the p inserted positions.  H_m is the
    only matrix stored; n, k, p and t follow from the fields.  The check
    of decoded errors caches a product table of H_m^T on first use.
    """

    m: int
    r: int
    info_perm: np.ndarray  # the aligned parent's systematic column order
    deleted: np.ndarray  # parent parity columns removed, sorted, all >= k
    H: np.ndarray  # modified parity check, (n-k) x n

    @property
    def n(self) -> int:
        return self.H.shape[1]

    @property
    def k(self) -> int:
        return self.H.shape[1] - self.H.shape[0]

    @property
    def p(self) -> int:
        return self.deleted.size

    @property
    def t(self) -> int:
        """The parent's error correctability floor((d-1)/2)."""
        return ((1 << (self.m - self.r)) - 1) // 2

    @property
    def R(self) -> np.ndarray:
        """The inserted rows' left block, p x (n-p): a view of H_m."""
        return self.H[self.n - self.k - self.p :, : self.n - self.p]

    @cached_property
    def kept_cols(self) -> np.ndarray:
        """Parent systematic columns that survive the puncturing (parity part)."""
        return np.delete(np.arange(self.k, self.n), self.deleted - self.k)

    @cached_property
    def H_T_table(self) -> gf2.ProductTable:
        """Product table of H.T, for the check e' @ H.T = s' of one
        error or a batch (decoder.check_leaders): 3.3 MB on RM(12,6)."""
        return gf2.ProductTable(self.H.T)

    def left_product(self, s: np.ndarray) -> np.ndarray:
        """s @ H for a binary s of n-k columns, as keygen's S @ H_m.

        H's last n-k columns are the identity plus R's right block R_2
        under the kept parity columns, so only the first k columns take
        a full product; the rest are s plus s's last p columns times R_2.
        On RM(12,6) (key seed 1, one BLAS thread) this takes 56-58 ms
        against 102-107 ms for gf2.mat_mul(s, H), best and median of 9.
        """
        k, top = self.k, self.n - self.k - self.p
        out = np.concatenate([gf2.mat_mul(s, self.H[:, :k]), s], axis=1)
        out[:, k : k + top] ^= gf2.mat_mul(s[:, top:], self.R[:, k:])
        return out


def puncture_plan(code: RmCode, rng: np.random.Generator) -> PuncturePlan:
    """Choose the deletion set for a code of order r >= 1."""
    if code.r < 1:
        raise ValueError("puncturing needs r >= 1")
    x = min_weight_codeword(code, rng)
    sx = supp(x)
    y_proj = min_weight_in_rowspace(proj(code, sx), rng)
    y = np.zeros(code.n, dtype=np.uint8)
    y[sx[supp(y_proj)]] = 1
    wy = gf2.weight(y)
    p = int(rng.integers(wy, 2 * wy + 1))
    # supp(y) lies in supp(x), so x > y marks supp(x) \ supp(y).
    pool = np.flatnonzero(x > y)
    extra = p - wy
    if extra > pool.size:
        # Only reachable when the randomized search returned a word of
        # weight above d/2; top up from the remaining columns.
        outside = np.flatnonzero(x == 0)
        pool = np.concatenate([pool, rng.permutation(outside)])
    chosen = rng.choice(pool, size=extra, replace=False) if extra else pool[:0]
    deleted = np.sort(np.concatenate([supp(y), chosen.astype(np.int64)]))
    return PuncturePlan(x=x, y=y, p=p, deleted=deleted)


def align_information_set(code: RmCode, deleted) -> tuple[RmCode, np.ndarray]:
    """Move the information set so every deleted column lands in the parity part.

    Keeps the current column order wherever possible: the deleted
    information columns leave, and the first as many non-deleted parity
    columns in ascending order that complete an information set enter
    (rmcode._move_information_set), so a deletion set already inside the
    parity part leaves the code unchanged.  Returns the aligned code and
    the deletion set re-expressed in its column order.

    Raises:
        gf2.RankError: if the non-deleted columns hold no information set.
    """
    deleted = np.asarray(sorted(deleted), dtype=np.int64)
    if deleted.size == 0 or deleted.min() >= code.k:
        return code, deleted
    allowed = np.ones(code.n, dtype=bool)
    allowed[deleted] = False
    leaving = np.flatnonzero(~allowed[: code.k])
    allowed[: code.k] = False
    g_new, order = _move_information_set(code.G, leaving, np.flatnonzero(allowed))
    # Positions of the old columns inside the new order.
    inv = np.empty(code.n, dtype=np.int64)
    inv[order] = np.arange(code.n)
    new_code = _assemble(code.m, code.r, g_new, code.info_perm[order])
    return new_code, np.sort(inv[deleted])


def assemble_modified(code: RmCode, deleted, r_block: np.ndarray) -> ModifiedCode:
    """Assemble H_m from an aligned code, its deletion set and the p x (n-p)
    block R.

    H_m is [P'^T 0; R] plus an identity on its last n-k columns.  It is
    written bit-packed and unpacked once: G packed by columns gives, at
    the kept columns, the rows of P'^T packed, so no strided copy
    transposes P' and none is kept.  On RM(12,6) (key seed 1, one BLAS
    thread, best to median of 41, three runs) this takes 3.2-5.1 ms, and
    3.4-5.1 ms with P' first copied from G run by run between the
    deleted columns; on RM(10,5) 0.2-0.4 against 0.3-0.7 ms.
    """
    deleted = np.asarray(sorted(deleted), dtype=np.int64)
    n, k = code.n, code.k
    p = deleted.size
    if p and deleted.min() < k:
        raise ValueError("deletion set must lie in the parity part; align first")
    kept = np.delete(np.arange(k, n), deleted - k)

    top = n - k - p
    packed = np.zeros((n - k, (n + 7) // 8), dtype=np.uint8)  # little-endian bit order
    packed[:top, : (k + 7) // 8] = gf2._packbits_axis0(code.G).T[kept]
    packed[top:, : (n - p + 7) // 8] = np.packbits(r_block, axis=1, bitorder="little")
    diag = np.arange(k, n)
    packed[diag - k, diag >> 3] |= np.left_shift(1, diag & 7).astype(np.uint8)
    h_mod = np.unpackbits(packed, axis=1, count=n, bitorder="little")

    for arr in (deleted, h_mod):
        arr.flags.writeable = False
    return ModifiedCode(m=code.m, r=code.r, info_perm=code.info_perm, deleted=deleted, H=h_mod)


def build_modified(code: RmCode, deleted, rng: np.random.Generator) -> ModifiedCode:
    """Draw a uniform R and assemble the modified pair for an aligned code."""
    p = len(deleted)
    return assemble_modified(code, deleted, gf2.random_bits((p, code.n - p), rng))
