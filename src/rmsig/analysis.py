"""Calibration of (w, N) and security estimation for the signature scheme.

Calibration decodes a stream of uniform random syndromes and records the
coset-leader weights; the resulting histogram feeds the closed form
P(success) = 1 - P(X > w)^N used to pick signing parameters.  The
forgery estimator evaluates sum_{i<=w} C(n-k, i) / 2^(n-k) in exact
integer arithmetic, since the interesting values live far below double
precision underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2
from typing import Union

import numpy as np

from . import gf2
from .decoder import check_leaders, coset_leaders
from .modcode import ModifiedCode
from .rmcode import RmCode
from . import scheme
from .scheme import PublicKey, Signature, SigningParams, verify
from .scheme import _modified_coset_leaders

_CHUNK = 1024


class NoFeasibleParams(ValueError):
    """No (w, N) candidate reaches the target success probability."""


@dataclass(frozen=True)
class WeightDistribution:
    """Histogram of decoded error weights for one code."""

    code_id: str
    samples: int
    histogram: dict[int, int]
    t: int

    @property
    def min_weight(self) -> int:
        return min(self.histogram)

    def prob_gt(self, w: int) -> float:
        tail = sum(c for wt, c in self.histogram.items() if wt > w)
        return tail / self.samples

    def to_csv(self) -> str:
        lines = ["weight,count"]
        lines += [f"{wt},{self.histogram[wt]}" for wt in sorted(self.histogram)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SecurityEstimate:
    """Exact forgery probability sum_{i<=w} C(n-k, i) / 2^(n-k)."""

    n: int
    k: int
    w: int
    prob: Fraction
    log2_prob: float


def _code_id(code: Union[RmCode, ModifiedCode]) -> str:
    name = f"RM(m={code.m},r={code.r})"
    return f"{name}/p={code.p}" if isinstance(code, ModifiedCode) else name


def calibrate(
    code: Union[RmCode, ModifiedCode],
    samples: int,
    rng: np.random.Generator,
    exhaustive: bool = False,
) -> WeightDistribution:
    """Decode random (or, exhaustively, all) syndromes and tally weights.

    A plain code goes through coset_leaders; a modified code goes
    through the signing path's decode, inserted block included, and
    every chunk it tallies is checked against H_m e' = s'
    (check_leaders), which raises AssertionError on a mismatch.  Either
    way the syndromes are decoded _CHUNK rows at a time: a sampled chunk
    draws its rows from its own seed, drawn once from rng, and an
    exhaustive chunk enumerates its own index range, so memory stays
    bounded however many syndromes there are.  A sampled chunk's bits
    are gf2.random_bits of a fresh default_rng of its seed, the bits
    integers(0, 2, dtype=np.uint8) draws.
    """
    modified = isinstance(code, ModifiedCode)
    decode = _modified_coset_leaders if modified else coset_leaders
    n_k = code.n - code.k
    if exhaustive:
        if n_k > 24:
            raise ValueError("exhaustive calibration is limited to n-k <= 24")
        samples = 1 << n_k
        shifts = np.arange(n_k, dtype=np.uint32)
    elif samples < 1:
        raise ValueError("samples must be >= 1")
    else:
        seeds = rng.integers(0, 2**63, size=-(-samples // _CHUNK))
    hist_arr = np.zeros(code.n + 1, dtype=np.int64)
    for j, start in enumerate(range(0, samples, _CHUNK)):
        count = min(_CHUNK, samples - start)
        if exhaustive:
            index = np.arange(start, start + count, dtype=np.uint32)
            synd = ((index[:, None] >> shifts) & 1).astype(np.uint8)
        else:
            synd = gf2.random_bits((count, n_k), np.random.default_rng(seeds[j]))
        errors = decode(code, synd)
        if modified:
            check_leaders(code, errors, synd)
        weights = errors.sum(axis=1, dtype=np.min_scalar_type(code.n))
        hist_arr += np.bincount(weights, minlength=code.n + 1)
    histogram = {int(w): int(c) for w, c in enumerate(hist_arr) if c}
    return WeightDistribution(
        code_id=_code_id(code), samples=samples, histogram=histogram, t=code.t
    )


def success_probability(dist: WeightDistribution, w: int, n_trials: int) -> float:
    """Closed-form P(min of N i.i.d. draws <= w) = 1 - q^N."""
    if n_trials < 1:
        raise ValueError("N must be >= 1")
    return 1.0 - dist.prob_gt(w) ** n_trials


def choose_params(dist: WeightDistribution, target_success: float, candidates):
    """Smallest w (then smallest N) whose success probability meets target.

    Candidates that SigningParams rejects are skipped.
    """
    grid = sorted(set((int(w), int(n)) for w, n in candidates))
    if not grid:
        raise NoFeasibleParams("empty candidate grid")
    for w, n in grid:
        try:
            params = SigningParams(w=w, N=n, t=dist.t)
        except ValueError:
            continue
        if success_probability(dist, w, n) >= target_success:
            return params
    raise NoFeasibleParams(
        f"no (w, N) in grid reaches success probability {target_success}"
    )


def forgery_probability(n: int, k: int, w: int) -> SecurityEstimate:
    """Exact probability that a uniform syndrome has weight <= w."""
    n_k = n - k
    if not 0 <= w <= n_k:
        raise ValueError(f"need 0 <= w <= n-k, got w={w}, n-k={n_k}")
    total = sum(comb(n_k, i) for i in range(w + 1))
    return SecurityEstimate(
        n=n,
        k=k,
        w=w,
        prob=Fraction(total, 1 << n_k),
        log2_prob=log2(total) - n_k,
    )


def systematic_attack_transform(h_pub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce H' so an identity block sits on a chosen column set.

    Prefers the rightmost n-k columns (the natural [H0 | I] shape) and
    falls back to earlier columns wherever that block is rank deficient.
    Returns (T, cols) with (T @ H')[:, cols] = I, cols in pivot order.
    """
    n_k, n = h_pub.shape
    aug = np.concatenate([h_pub, np.eye(n_k, dtype=np.uint8)], axis=1)
    # Scan parity-block columns first, then the rest, then the augmented part.
    order = list(range(n - n_k, n)) + list(range(n - n_k)) + list(range(n, n + n_k))
    red, piv = gf2.rref(aug[:, order])
    if len(piv) < n_k or piv[n_k - 1] >= n:
        raise gf2.RankError("public check matrix is rank deficient")
    cols = np.asarray(order, dtype=np.int64)[piv[:n_k]]
    # Row ops applied to the identity block accumulate the transform.
    return red[:, n:].copy(), cols


def naive_forgery_attack(
    pub: PublicKey,
    message: bytes,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical success rate of the zero-information-part forgery.

    Each trial hashes a random counter, writes the reduced syndrome T s
    into the identity columns and succeeds when the weight bound holds.
    h(M) is taken once, and each trial's syndrome s from it
    (scheme._syndrome_from_digest).  T s is formed packed, as verify
    forms H'e: the XOR of the rows of a product table of T^T at the
    support of s (gf2.mat_vec), weighed by its set bits and unpacked
    only on a success.  Every success is cross-checked through verify().
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    h_pub = pub.H
    transform, cols = systematic_attack_transform(h_pub)
    assert np.array_equal(gf2.mat_mul(transform, h_pub[:, cols]), np.eye(len(cols), dtype=np.uint8))
    n_k = h_pub.shape[0]
    table = gf2.ProductTable(gf2.pack_rows(transform.T), n_k)
    inner = scheme._message_digest(message)
    successes = 0
    for _ in range(trials):
        i = int(rng.integers(1, 2**62))
        s = np.frombuffer(scheme._syndrome_from_digest(inner, i, 1, n_k), dtype=np.uint8)
        z_red = gf2.mat_vec(table, np.flatnonzero(np.unpackbits(s, count=n_k)))
        if int(np.bitwise_count(z_red).sum()) <= pub.params.w:
            z = np.zeros(pub.n, dtype=np.uint8)
            z[cols] = np.unpackbits(z_red, count=n_k)
            if not verify(pub, message, Signature(e=z, i=i)):
                raise AssertionError("forged signature failed verification")
            successes += 1
    return successes / trials
