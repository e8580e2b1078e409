"""Key generation, signing and verification over the modified code.

The private side holds the inverse of a scrambling matrix S, a
permutation (stored as an index vector sigma, meaning row i of the
matrix form has its 1 in column sigma[i]) and the modified code.  The
public check matrix is H' = S @ H_m @ Q.  Keygen draws S = L @ U from
unit lower- and upper-triangular factors and keeps only their inverses,
as one matrix F, so signing, which reads S^-1 = U^-1 @ L^-1 alone, never
inverts S.  Keygen does not form S either.  H_m = [A | B], where B, on
H_m's last n-k columns, is an identity plus the p rows of R below it,
so H' = L @ [U @ A | U @ B] @ Q: U @ A is a table product k columns
wide, U @ B is U plus a rank-p correction, Q permutes the columns, moved
as packed rows of the transpose, and L is applied by a second table
product.  Every step, from the draw of the factors to F and H', works
on packed rows.  F and both check matrices, H' and H_m, are held as
packed rows, the layout of their key files (gf2.pack_rows); a
PublicKey, like a ModifiedCode, is an rmcode.CheckMatrix.  Sign, verify
and the check of decoded errors read H' and H_m through the product
tables of their transposes (CheckMatrix.H_T_table), so no program path
unpacks either; S^-1 is formed from F packed, and its one unpacking is
PrivateKey.S_inv, which signing reads.

Hashing a message to a syndrome is fixed bit-exactly: the syndrome is
the first n-k bits of SHAKE256(h(M) || i as 8-byte big-endian), where
h(M) is SHAKE256(M, 32 bytes), bits taken MSB-first within each byte.
_syndrome_from_digest is the one place that states it.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import gf2
from .decoder import check_leaders, punctured_coset_leaders
from .modcode import ModifiedCode, align_information_set, build_modified, puncture_plan
from .rmcode import CheckMatrix, build

_INNER_DIGEST_BYTES = 32
_U32_MAX = (1 << 32) - 1  # w and N are u32 fields of a key file (formats)
# bytes.translate tables, cheaper than a numpy op: _PAD_CLEARED[z] clears a byte's z low bits.
_PAD_CLEARED = [bytes(b & -(1 << z) for b in range(256)) for z in range(8)]


@dataclass(frozen=True)
class SigningParams:
    """Error weight bound w, trial limit N and correctability t."""

    w: int
    N: int
    t: int

    def __post_init__(self) -> None:
        if self.w < self.t:
            raise ValueError(f"w={self.w} below error correctability t={self.t}")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.w > _U32_MAX or self.N > _U32_MAX:
            raise ValueError(f"w and N must be at most 2**32 - 1 = {_U32_MAX}")


@dataclass(frozen=True, eq=False)
class PublicKey(CheckMatrix):
    """The public check matrix H', (n-k) x n, as its packed rows: the
    public key file's body, n(n-k) bits.  verify reads its columns
    through the CheckMatrix's product table of H'^T."""

    params: SigningParams


@dataclass(frozen=True, eq=False)
class PrivateKey:
    # S^-1 = U^-1 @ L^-1 in one (n-k) x (n-k) matrix F with a zero
    # diagonal, L^-1 = I + tril(F, -1) and U^-1 = I + triu(F, 1), as the
    # private key file stores it: (n-k) x ceil((n-k)/8) packed rows.
    packed_F: np.ndarray
    sigma: np.ndarray  # permutation indices; Q[i, sigma[i]] = 1
    mod: ModifiedCode
    params: SigningParams

    @cached_property
    def _packed_S_inv(self) -> np.ndarray:
        """S^-1 = U^-1 @ L^-1 as packed rows, by one table product of the
        two triangles of F cut with a packed mask (gf2.cut_unit_triangles).
        The product skips the zero triangle of U^-1 (gf2.ProductTable)."""
        lower_inv, upper_inv = gf2.cut_unit_triangles(self.packed_F)
        return gf2.ProductTable(lower_inv, self.packed_F.shape[0]).product(upper_inv)

    @cached_property
    def S_inv(self) -> np.ndarray:
        """S^-1, unpacked from its packed rows: the only (n-k) x (n-k)
        matrix that keygen, a key load or signing unpacks."""
        return np.unpackbits(self._packed_S_inv, axis=1, count=self.packed_F.shape[0])

    @cached_property
    def _S_inv_T_table(self) -> gf2.ProductTable:
        n = self.packed_F.shape[0]
        return gf2.ProductTable(gf2.pack_columns(self._packed_S_inv, n), n)

    @cached_property
    def _sign_history(self) -> list[int]:
        """[signatures, sum of their counters] over this key's past signs,
        an exhausted one counting as N; sign sizes its first batch from it.

        Not a field, so it is neither compared, printed nor saved.  Two
        threads signing with one key may lose an update, which can change
        a batch width but never a result.
        """
        return [0, 0]


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey


@dataclass(frozen=True, eq=False)
class Signature:
    e: np.ndarray
    i: int


@dataclass(frozen=True)
class SigningExhausted:
    """All N trials exceeded the weight bound; raise N or w and retry."""

    trials: int
    best_weight: int


def _message_digest(message: bytes) -> bytes:
    """h(M), the first 32 bytes of SHAKE256(M)."""
    return hashlib.shake_256(message).digest(_INNER_DIGEST_BYTES)


def hash_to_syndrome(message: bytes, i: int, out_bits: int) -> np.ndarray:
    """Map (message, counter) to a syndrome of exactly out_bits bits: the
    row _syndrome_from_digest gives for h(M) and i, unpacked.

    Raises:
        ValueError: unless 1 <= i < 2**64 (the counter is hashed as 8 bytes).
    """
    if not 1 <= i < 1 << 64:
        raise ValueError("counter must satisfy 1 <= i < 2**64")
    packed = _syndrome_from_digest(_message_digest(message), i, 1, out_bits)
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=out_bits)


def _syndrome_from_digest(inner: bytes, first: int, count: int, out_bits: int) -> bytearray:
    """The hash rule: the syndromes h(inner | i) of the counters
    first..first+count-1, inner being h(M) and i hashed as 8 bytes
    big-endian, one after another.  Each is the first ceil(out_bits/8)
    bytes of its digest, read MSB-first as gf2.pack_rows packs a row, with
    its pad bits after out_bits cleared, as in every packed row."""
    nbytes = (out_bits + 7) // 8
    packed = bytearray().join([
        hashlib.shake_256(inner + i.to_bytes(8, "big")).digest(nbytes)
        for i in range(first, first + count)
    ])
    if out_bits % 8:
        last = slice(nbytes - 1, None, nbytes)  # each row's last byte
        packed[last] = packed[last].translate(_PAD_CLEARED[-out_bits % 8])
    return packed


def keygen(
    m: int, r: int, params: SigningParams, rng: np.random.Generator
) -> KeyPair:
    """Generate a key pair for RM(r, m), deterministic per rng state.

    It redraws only a plan that deletes all of supp(x), which occurs for
    r = 1 at p = 2 wt(y) and for r = m-1 at p = 2; every other plan
    aligns, so no plan makes keygen fail.  The factors L and U, their
    inverses, F and H' = L @ [U @ A | U @ B] @ Q are all packed rows
    (see the module docstring), and none is unpacked.
    """
    code = build(m, r)
    if params.t != code.t:
        raise ValueError(f"params.t={params.t} != code correctability {code.t}")
    plan = puncture_plan(code, rng)
    # Only a deletion set holding a nonzero codeword, of weight >= d, leaves
    # no information set; p <= d, so only p = d, all of supp(x), does.
    while plan.p == code.d:
        plan = puncture_plan(code, rng)
    mod = build_modified(align_information_set(code, plan.deleted), rng)
    del code  # H_m is all keygen needs of the code

    n, k = mod.n, mod.k
    top = n - k - mod.p
    lower, upper = gf2.random_unit_triangular(n - k, rng)
    sigma = rng.permutation(n)
    upper_t = gf2.pack_columns(upper, n - k)  # U^T, unit lower as invert takes it
    # F = L^-1 XOR U^-1: one XOR of packed rows; the unit diagonals cancel.
    packed_f = gf2.invert(lower) ^ gf2.pack_columns(gf2.invert(upper_t), n - k)
    # H_m = [A | B] with B = [[I, 0], [R_2, I_p]], so U H_m = [U A | U B]
    # and U B = U + U[:, top:] R_2 on B's first top columns.  Only U A, k
    # columns wide, is a table product, which skips U's zero triangle.
    # Columns are moved as the packed rows of (U H_m)^T: U A's transpose,
    # then (U B)^T = U^T plus R_2^T U^T[top:] on its first top rows.
    a_rows = mod.packed_H[:, : (k + 7) // 8].copy()
    a_rows[:, -1] &= 0xFF << (-k % 8) & 0xFF  # B's columns that share A's last byte
    columns = np.empty((n, (n - k + 7) // 8), dtype=np.uint8)
    columns[:k] = gf2.pack_columns(gf2.ProductTable(a_rows, k).product(upper), k)
    del a_rows, upper
    r2_t = gf2.pack_rows(np.unpackbits(mod.packed_H[top:], axis=1, count=n)[:, k : k + top].T)
    columns[k:] = upper_t
    columns[k : k + top] ^= gf2.ProductTable(upper_t[top:], n - k).product(r2_t)
    del upper_t, r2_t
    # H_m Q permutes the columns, so (U H_m Q)^T permutes these rows; then
    # H' = L (U H_m Q) by a table product that skips L's zero triangle.
    h_pub = gf2.pack_columns(columns[np.argsort(sigma)], n - k)
    del columns
    h_pub = gf2.ProductTable(h_pub, n).product(lower)
    del lower
    for arr in (packed_f, sigma, h_pub):
        arr.flags.writeable = False

    public = PublicKey(m=m, r=r, packed_H=h_pub, params=params)
    private = PrivateKey(packed_F=packed_f, sigma=sigma, mod=mod, params=params)
    return KeyPair(public=public, private=private)


SIGN_BATCH = 16
SIGN_BATCH_MAX = 256
"""sign's first batch is SIGN_BATCH counters on a key with no signing
history, else the smallest of 1, 4, 16, ... at least the mean counter of
the key's past signatures (PrivateKey._sign_history), capped at
SIGN_BATCH_MAX; the batch quadruples after each miss, up to
SIGN_BATCH_MAX.  Most of a _trials call is a fixed per-call cost, and
the mean counter ranges from about 1.3 (RM(12,6) at w = 530) to about
240 (RM(10,5) at w = 99), so no fixed first batch suits both ends:
RM(12,6) starts at 4 instead of paying for 16 rows to use about 1.3,
and RM(10,5) at w = 99 at 256 instead of first making a 16- and a
64-row call that mostly miss.  At a mean of about 240 the cap of 256
still gives the cheapest signatures: a 256-row call succeeds about two
times in three, and a 1024-row call would cost more than the 256-row
calls it saves, while a cap of 64 would make about four calls a
signature (CHANGES.md has the per-call times).  A start of 1 lasts only
while every past counter was 1: once one is 2 or more the mean stays
above 1, so RM(10,5) at w = 132 (about 1.001 trials per signature)
starts at 4 from then on.  A key with no history (a fresh keygen or a
load, so every one-shot `rmsig sign`) starts at 16.  Batch sizes never
change a result."""


def _modified_coset_leaders(mod: ModifiedCode, s_primes: np.ndarray) -> np.ndarray:
    """Rows e' = [e_np | e_p] with H_m e' = s' for each row s' of s_primes.

    e_np is the punctured coset leader of the top n-k-p syndrome bits;
    the inserted block then fixes e_p = s'_bot + R e_np.  R e_np is a
    product by the batch's (n-p, rows) columns, so from gf2._TABLE_MIN
    rows on mat_mul reads a table of the batch's packed columns: a
    gather for p = 1, a Four-Russians product for p >= 2, and no float
    copy of the batch.  The rows are a view of (n, rows) columns, the
    decoder's own layout, so the batch is column-major for every p.
    """
    top = mod.n - mod.k - mod.p
    e_np_cols = punctured_coset_leaders(mod, s_primes[:, :top]).T
    # The benchmark's trace reads this product as the R block (see _trials).
    e_p_cols = s_primes[:, top:].T ^ gf2.mat_mul(mod.R, e_np_cols)
    return np.concatenate([e_np_cols, e_p_cols], axis=0).T


def _trials(
    priv: PrivateKey, inner: bytes, first: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (s', e') for counters first..first+count-1 of one message.

    s' = S^-1 h(h(M)|i) and H_m e' = s' on every row, whatever the
    weight; inner is h(M).
    """
    # perfbench/tracer.py wraps public functions and _syndrome_from_digest,
    # charging a call to its nearest wrapped caller.  Trials are the rows
    # sign hands punctured_coset_leaders; a gf2.mat_mul under a decoder
    # function is the self-check, which sign makes once per signature in
    # decoder.check_leaders, so spread over every trial; one under sign
    # is this S^-1 product if an operand is square, else the R block.
    # Plain calibration must call decoder.coset_leaders.  Moving one of
    # these calls makes a per-layer metric read None, and
    # tests/test_perfbench.py then fails.
    out_bits = priv.mod.n - priv.mod.k
    packed = np.frombuffer(_syndrome_from_digest(inner, first, count, out_bits), dtype=np.uint8)
    synd = np.unpackbits(packed.reshape(count, -1), axis=1, count=out_bits)
    s_primes = gf2.mat_mul(synd, priv.S_inv.T, priv._S_inv_T_table)
    return s_primes, _modified_coset_leaders(priv.mod, s_primes)


def sign(priv: PrivateKey, message: bytes) -> Union[Signature, SigningExhausted]:
    """Sign a message, returning the smallest successful counter.

    Returns SigningExhausted when none of the N trials stays within the
    weight bound.  Only the returned error is checked against H_m e' = s'
    (decoder.check_leaders), which raises AssertionError on a mismatch;
    the discarded trials are not.  The batch widths follow the key's past
    counters (SIGN_BATCH), and the result is added to them; every counter
    up to the returned one is evaluated, so the result never depends on
    them.
    """
    inner = _message_digest(message)
    limit = priv.params.N
    best = priv.mod.n + 1
    history = priv._sign_history
    signed, counters = history
    batch = SIGN_BATCH
    if signed:  # the smallest of 1, 4, 16, ... at least the mean counter
        batch = 1
        while batch * signed < counters:
            batch *= 4
        batch = min(batch, SIGN_BATCH_MAX)
    first = 1
    while first <= limit:
        count = min(batch, limit + 1 - first)
        s_primes, e_primes = _trials(priv, inner, first, count)
        weights = e_primes.sum(axis=1, dtype=np.min_scalar_type(priv.mod.n))
        hits = np.nonzero(weights <= priv.params.w)[0]
        if hits.size:
            e_prime = e_primes[hits[0]]
            check_leaders(priv.mod, e_prime, s_primes[hits[0]])
            e = np.empty_like(e_prime)
            e[priv.sigma] = e_prime
            i = first + int(hits[0])
            history[:] = signed + 1, counters + i
            return Signature(e=e, i=i)
        best = min(best, int(weights.min()))
        first += count
        batch = min(4 * batch, SIGN_BATCH_MAX)
    history[:] = signed + 1, counters + limit
    return SigningExhausted(trials=limit, best_weight=best)


def check_signature(sig: Signature, n: int) -> tuple[np.ndarray, int]:
    """(e, i) of sig, if it lies in the domain verify accepts.

    Raises:
        ValueError: unless e is a nonempty integer or bool 1-D vector of
            length n with entries in {0, 1} and i an integer with
            1 <= i < 2**64.
    """
    try:
        e, i = np.asarray(sig.e), operator.index(sig.i)
    except TypeError:
        raise ValueError("a signature needs a vector e and an integer counter i") from None
    if e.dtype.kind not in "biu" or e.shape != (n,) or not 1 <= i < 1 << 64:
        raise ValueError(f"signature needs an integer vector of length {n} and 1 <= i < 2**64")
    if e.size == 0:  # the reductions below have no empty case
        raise ValueError("signature vector is empty")
    # Only a signed vector can hold a negative entry.
    if (e.dtype.kind == "i" and e.min() < 0) or e.max() > 1:
        raise ValueError("signature vector has entries outside {0, 1}")
    return e, i


def verify(pub: PublicKey, message: bytes, sig: Signature) -> bool:
    """ACCEPT iff e is binary of length n, wt(e) <= w and H' e = h(h(M)|i).

    Total over signatures: a signature outside the domain of
    check_signature is REJECT, never an exception.  Inside it, the
    support of e is read from a bool view of e (a wider dtype is compared
    to 0), its size is the weight, and H' e is formed packed
    (gf2.mat_vec) and compared with the packed digest byte for byte, so
    nothing is unpacked; both have zero pad bits (_syndrome_from_digest).
    """
    try:
        e, i = check_signature(sig, pub.n)
    except ValueError:
        return False
    # check_signature leaves only 0 and 1, so a one-byte e views as bool.
    support = (e.view(np.bool_) if e.itemsize == 1 else e != 0).nonzero()[0]
    if support.size > pub.params.w:
        return False
    expected = _syndrome_from_digest(_message_digest(message), i, 1, pub.packed_H.shape[0])
    return gf2.mat_vec(pub.H_T_table, support).tobytes() == expected
