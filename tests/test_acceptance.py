"""Acceptance suite: one test (or small group) per release criterion.

Each test prints a `criterion N: PASS detail` line on success; a failed
assertion is the FAIL line.  Criterion 5's success-rate floor sets how
deep the decoder's weight tail must reach (see the sizing note on the
test).
"""

import hashlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from rmsig import analysis, decoder, gf2, rmcode, scheme

from reference import (
    coset_leader_weights,
    int_to_bits,
    modified_generator,
    perm_matrix,
    vec_product,
)

CLI = [sys.executable, "-m", "rmsig"]


def run_cli(*args):
    return subprocess.run(CLI + [str(a) for a in args], capture_output=True, text=True)


# --- criterion 1: code parameter table -------------------------------------

PARAMETER_TABLE = [
    (10, 4, 1024, 386, 64),
    (10, 5, 1024, 638, 32),
    (11, 5, 2048, 1024, 64),
    (12, 5, 4096, 1586, 128),
    (12, 6, 4096, 2510, 64),
]


def test_criterion_1_parameter_table():
    start = time.monotonic()
    for m, r, n, k, d in PARAMETER_TABLE:
        code = rmcode.build(m, r)
        assert (code.n, code.k, code.d) == (n, k, d), f"RM(m={m},r={r})"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS all 5 parameter rows exact in {elapsed:.1f}s")


# --- criterion 2: exact security estimator ---------------------------------

SECURITY_TABLE = [
    (1024, 386, 192, 74),
    (1024, 638, 98, 70),
    (2048, 1024, 306, 122),
    (4096, 1586, 855, 186),
    (4096, 2510, 458, 209),
]


def test_criterion_2_security_estimator():
    for n, k, w, bound_bits in SECURITY_TABLE:
        est = analysis.forgery_probability(n, k, w)
        assert est.prob <= Fraction(1, 2**bound_bits), (n, k, w)
        assert est.log2_prob <= -bound_bits
    print("criterion 2: PASS all 5 bounds hold with exact arithmetic")


# --- criterion 3: decoder equals the standard-array oracle -----------------

def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    for m in (3, 4):
        code = rmcode.build(m, 1)
        oracle = coset_leader_weights(code.H)
        n_k = code.n - code.k
        synd = np.stack([int_to_bits(s, n_k) for s in range(1 << n_k)])
        errors = decoder.coset_leaders(code, synd)
        assert np.array_equal(gf2.mat_mul(errors, code.H.T), synd)
        weights = errors.sum(axis=1)
        assert np.array_equal(weights, oracle), f"m={m}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3: PASS exact coset-leader weights for all syndromes ({elapsed:.1f}s)")


# --- criterion 4: algebraic identities over 50 seeded keygens --------------

def test_criterion_4_algebraic_identities():
    combos = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]
    c4_inner = hashlib.shake_256(b"c4").digest(32)  # h(M) of the trial message
    keygens = 0
    for m, r in combos:
        t = ((1 << (m - r)) - 1) // 2
        params = scheme.SigningParams(w=1 << m, N=8, t=t)
        for seed in range(7):
            kp = scheme.keygen(m, r, params, np.random.default_rng(1000 * m + 10 * r + seed))
            keygens += 1
            mod = kp.private.mod
            assert not gf2.mat_mul(modified_generator(mod), mod.H.T).any()
            q = perm_matrix(kp.private.sigma)
            descrambled = gf2.mat_mul(kp.private.S_inv, kp.public.H)
            assert np.array_equal(descrambled, gf2.mat_mul(mod.H, q))
            s_primes, e_primes = scheme._trials(kp.private, c4_inner, 1, 5)
            for s_prime, e_prime in zip(s_primes, e_primes):
                assert np.array_equal(vec_product(mod.H, e_prime), s_prime)
    assert keygens >= 50
    print(f"criterion 4: PASS identities hold over {keygens} keygens, 5 trials each")


# --- criterion 5: full-size signing round trip ------------------------------

N_MESSAGES = 100


@pytest.fixture(scope="module")
def signing_session():
    params = scheme.SigningParams(w=99, N=10_000, t=15)
    kp = scheme.keygen(10, 5, params, np.random.default_rng(1))
    rng = np.random.default_rng(777)
    messages = [rng.bytes(int(rng.integers(8, 64))) for _ in range(N_MESSAGES)]
    results = []
    slowest = 0.0
    for msg in messages:
        t0 = time.monotonic()
        results.append(scheme.sign(kp.private, msg))
        slowest = max(slowest, time.monotonic() - t0)
    return kp, messages, results, slowest


def test_criterion_5_signing_success_rate(signing_session):
    # Sizing note: at (w=99, N=10000) the success floor of 95/100 needs a
    # per-trial P(weight <= 99) of at least 3.0e-4.  With exact int8
    # reliabilities inside the decoder's length-64 sub-blocks (signs into
    # its length-16 leaves) and Wagner's rule at its RM(k-1, k) leaves the
    # signing path measures about 2.2e-3 (key seed 1, 1M syndromes); a
    # decoder that clips every u-branch sum to sign measures about 1.5e-4
    # and signs only about 76 of 100.
    _kp, _messages, results, _ = signing_session
    successes = sum(isinstance(s, scheme.Signature) for s in results)
    print(f"criterion 5 (rate): {successes}/{N_MESSAGES} signed at w=99, N=10000")
    assert successes >= 95


def test_criterion_5_successes_verify(signing_session):
    kp, messages, results, _ = signing_session
    verified = 0
    for msg, sig in zip(messages, results):
        if isinstance(sig, scheme.Signature):
            assert int(sig.e.sum()) <= 99
            assert scheme.verify(kp.public, msg, sig)
            verified += 1
    assert verified > 0
    print(f"criterion 5 (verify): PASS {verified} successful signatures all verify")


def test_criterion_5_tampered_signatures_reject(signing_session):
    kp, messages, results, _ = signing_session
    rng = np.random.default_rng(31337)
    checked = 0
    pairs = [(m, s) for m, s in zip(messages, results) if isinstance(s, scheme.Signature)]
    while checked < 100:
        msg, sig = pairs[checked % len(pairs)]
        e = sig.e.copy()
        e[int(rng.integers(0, e.size))] ^= 1
        assert not scheme.verify(kp.public, msg, scheme.Signature(e=e, i=sig.i))
        checked += 1
    print("criterion 5 (tamper): PASS 100 single-bit tampered signatures reject")


def test_criterion_5_wrong_message_rejects(signing_session):
    kp, messages, results, _ = signing_session
    rng = np.random.default_rng(24601)
    checked = 0
    pairs = [(m, s) for m, s in zip(messages, results) if isinstance(s, scheme.Signature)]
    while checked < 100:
        _msg, sig = pairs[checked % len(pairs)]
        other = rng.bytes(24)
        assert not scheme.verify(kp.public, other, sig)
        checked += 1
    print("criterion 5 (wrong message): PASS 100 wrong-message verifications reject")


def test_criterion_5_runtime_budget(signing_session):
    _kp, _messages, _results, slowest = signing_session
    assert slowest <= 60.0
    print(f"criterion 5 (runtime): PASS slowest signature took {slowest:.2f}s")


# --- criterion 6: calibration distribution ---------------------------------

def test_criterion_6_calibration_smoke():
    code = rmcode.build(10, 5)
    dist = analysis.calibrate(code, 10_000, np.random.default_rng(1234))
    assert 85 <= dist.min_weight <= 105
    print(f"criterion 6 (smoke): PASS min weight {dist.min_weight} in [85, 105]")


def test_criterion_6_calibration_full():
    code = rmcode.build(10, 5)
    dist = analysis.calibrate(code, 100_000, np.random.default_rng(2026))
    p97 = sum(c for w, c in dist.histogram.items() if w <= 97) / dist.samples
    print(
        f"criterion 6 (full): min weight {dist.min_weight}, "
        f"P(X <= 97) = {p97:.2e} over {dist.samples} syndromes"
    )
    assert 85 <= dist.min_weight <= 102
    assert 0.3e-4 <= p97 <= 10e-4


# --- criterion 7: closed-form success probability vs Monte Carlo -----------

def test_criterion_7_success_formula_vs_monte_carlo():
    rng = np.random.default_rng(4242)
    pairs_checked = 0
    for _ in range(10):
        support = rng.integers(1, 60, size=int(rng.integers(2, 7)))
        counts = rng.integers(1, 80, size=support.size)
        hist = {}
        for s, c in zip(support, counts):
            hist[int(s)] = hist.get(int(s), 0) + int(c)
        dist = analysis.WeightDistribution(
            code_id="synthetic", samples=sum(hist.values()), histogram=hist, t=1
        )
        values = np.repeat(list(hist.keys()), list(hist.values()))
        for _ in range(2):
            w = int(rng.integers(1, 61))
            n_trials = int(rng.integers(1, 40))
            draws = rng.choice(values, size=(100_000, n_trials))
            mc = float((draws.min(axis=1) <= w).mean())
            closed = analysis.success_probability(dist, w, n_trials)
            assert abs(closed - mc) < 0.02, (hist, w, n_trials)
            pairs_checked += 1
    assert pairs_checked == 20
    print("criterion 7: PASS closed form within 0.02 of Monte Carlo on 20 (w, N) pairs")


# --- criterion 8: naive forgery attack consistency --------------------------

def test_criterion_8_attack_toy_rate():
    params = scheme.SigningParams(w=1, N=10, t=1)
    kp = scheme.keygen(4, 2, params, np.random.default_rng(5))  # n-k = 5
    rate = analysis.naive_forgery_attack(kp.public, b"forge me", 10_000, np.random.default_rng(8))
    assert abs(rate - 0.1875) < 0.02
    print(f"criterion 8 (toy): PASS rate {rate:.4f} within 0.02 of 6/32")


def test_criterion_8_attack_full_size_never_succeeds():
    params = scheme.SigningParams(w=98, N=10_000, t=15)
    kp = scheme.keygen(10, 5, params, np.random.default_rng(12))
    rate = analysis.naive_forgery_attack(kp.public, b"forge me", 10_000, np.random.default_rng(9))
    assert rate == 0.0
    print("criterion 8 (full): PASS 0 forgeries in 10000 trials at w=98")


# --- criterion 9: byte-level determinism ------------------------------------

def test_criterion_9_determinism(tmp_path):
    keygen_args = ["keygen", "--m", 5, "--r", 2, "--w", 12, "--n-trials", 100, "--seed", 4]
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"determinism check")
    artifacts = []
    for tag in ("one", "two"):
        prefix = tmp_path / tag
        assert run_cli(*keygen_args, "--out-prefix", prefix).returncode == 0
        sig = tmp_path / f"{tag}.sig"
        assert run_cli(
            "sign", "--key", prefix.with_suffix(".sec"), "--message-file", msg, "--out", sig
        ).returncode == 0
        csv = tmp_path / f"{tag}.csv"
        assert run_cli(
            "calibrate", "--m", 4, "--r", 1, "--samples", 300, "--seed", 77, "--csv", csv
        ).returncode == 0
        artifacts.append(
            (
                prefix.with_suffix(".pub").read_bytes(),
                prefix.with_suffix(".sec").read_bytes(),
                sig.read_bytes(),
                csv.read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    print("criterion 9: PASS key files, signatures and calibration CSVs byte-identical")
