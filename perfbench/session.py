"""The three workloads: set-up, a closed loop of rounds, checks and metrics.

Every workload is a session on one RM(r, m) key, run by one caller that
starts each operation after the previous one returns.  A round signs
`signs` seeded messages, verifies three pairs per signature (valid,
one bit flipped, wrong message), runs the three fault probes where the
workload has them, and calibrates `calib_samples` seeded syndromes of
the plain code.  The workloads differ in the code and in how the time
splits between those operations (see README.md).  The timed part calls
only rmsig's public API, through module attributes looked up at call
time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
from rmsig import analysis, decoder, formats, rmcode, scheme

import oracle
from tracer import Tracer, layer_metrics

KEY_SEED = 1
# Criterion 5 pairs w=99 with N=10000, where about one message in a few
# thousand exhausts its trials.  Whether a run meets one depends on the
# seed, so the failed count would too; N=30000 makes that a slow success
# (e^-30 per message) and leaves every other signature unchanged.
N_TRIALS = 30_000
SETUPS = 3
PROBE_MESSAGE = b"rmsig perfbench: fixed message for warm-up and fault probes"
LEADER_ROWS = 64
# Run times are reported at a fixed host speed: the speed at which
# HostReference.time_ns() takes REF_NS (see README.md, "Host speed").
REF_NS = 4_000_000


@dataclass(frozen=True)
class Workload:
    m: int
    r: int
    w: int
    signs: int  # signatures per round
    calib_samples: int  # calibrate() samples per round
    probes: bool  # the three verify fault probes, once per round
    round_s: float  # one round's length on the reference host; sets rounds per run


WORKLOADS = {
    "sign-rm10": Workload(10, 5, 99, signs=4, calib_samples=1024, probes=False, round_s=0.5),
    "roundtrip-rm12": Workload(12, 6, 530, signs=10, calib_samples=256, probes=True, round_s=1.0),
    "calibrate-rm10": Workload(10, 5, 132, signs=1, calib_samples=8192, probes=False, round_s=0.31),
}


@dataclass
class Keys:
    code: rmcode.RmCode
    pub: scheme.PublicKey
    priv: scheme.PrivateKey
    pub_bytes: bytes
    sec_bytes: bytes
    probe_sig: scheme.Signature


def set_up(wl: Workload) -> tuple[Keys, float]:
    """Everything before the timed part; returns the keys and the S^-1 time."""
    code = rmcode.build(wl.m, wl.r)
    params = scheme.SigningParams(w=wl.w, N=N_TRIALS, t=code.t)
    kp = scheme.keygen(wl.m, wl.r, params, np.random.default_rng(KEY_SEED))
    pub_bytes = formats.save_public_key(kp.public)
    sec_bytes = formats.save_private_key(kp.private)
    pub = formats.load_public_key(pub_bytes)
    priv = formats.load_private_key(sec_bytes)
    t0 = time.perf_counter()
    priv.S_inv  # lazy; the first signature would pay it otherwise
    s_inv_s = time.perf_counter() - t0
    probe_sig = scheme.sign(priv, PROBE_MESSAGE)
    if not isinstance(probe_sig, scheme.Signature):
        raise RuntimeError(f"warm-up signature failed: {probe_sig}")
    scheme.verify(pub, PROBE_MESSAGE, probe_sig)
    analysis.calibrate(code, 64, np.random.default_rng(0))
    return Keys(code, pub, priv, pub_bytes, sec_bytes, probe_sig), s_inv_s


def _message(rng: np.random.Generator) -> bytes:
    return rng.bytes(int(rng.integers(8, 64)))


def make_inputs(seed: int, count: int, n: int):
    """Seeded messages (8-63 bytes), a different message each, and a flip position each."""
    rng = np.random.default_rng([seed, 0])
    messages = [_message(rng) for _ in range(count)]
    wrong = []
    for msg in messages:
        other = _message(rng)
        wrong.append(other if other != msg else other + b"\x00")
    flips = [int(x) for x in rng.integers(0, n, size=count)]
    return messages, wrong, flips


def fault_probes(sig: scheme.Signature) -> list[tuple[str, scheme.Signature]]:
    """Non-binary or out-of-range forms of a valid signature; verify must REJECT each."""
    wrapped = sig.e.astype(np.int64)
    wrapped[np.flatnonzero(sig.e)[0]] = 257
    return [
        ("int64 vector with a 1 stored as 257", scheme.Signature(e=wrapped, i=sig.i)),
        ("float vector plus 0.5", scheme.Signature(e=sig.e + 0.5, i=sig.i)),
        ("counter 2**64", scheme.Signature(e=sig.e.copy(), i=2**64)),
    ]


class Books:
    """Operation accounting and the reasons behind failures and wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.wrong: Counter[str] = Counter()

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[why] += 1

    def check(self, reason: str | None, what: str) -> None:
        if reason is not None:
            self.wrong[f"{what}: {reason}"] += 1


class HostReference:
    """A fixed piece of numpy work, independent of rmsig, timed once per round.

    It mixes what rmsig's operations are made of: float64 BLAS products,
    small int8 array arithmetic paid mostly in dispatch, and a uint8 to
    float64 conversion larger than the L2 cache.  On a shared host other
    tenants slow whole stretches of a run, and whole runs, by up to a
    half.  The time of this reference moves with them, so operation times
    multiplied by REF_NS / (the reference time around them) no longer do.
    Its arrays stay small so that the peak RSS is still rmsig's.
    """

    def __init__(self) -> None:
        g = np.random.default_rng(0)
        self.a = g.random((192, 192))
        self.b = g.random((192, 192))
        self.small = g.integers(-1, 2, size=(64, 32), dtype=np.int8)
        self.bits = g.integers(0, 2, size=(1024, 512), dtype=np.uint8)

    def time_ns(self) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(8):
            self.a @ self.b
        x = self.small
        for _ in range(300):
            x = x * self.small + self.small
        for _ in range(4):
            self.bits.astype(np.float64)
        return time.perf_counter_ns() - t0


def _at_ref_speed(spent: list[int], refs: list[int]) -> float:
    """Total of per-round times, each scaled by REF_NS / the reference time around it.

    The reference time of round r is the median over rounds r-2..r+2, so
    that one disturbed reference measurement does not rescale a round.
    """
    return sum(t * REF_NS / statistics.median(refs[max(0, r - 2):r + 3])
               for r, t in enumerate(spent))


def _timed(fn, *args):
    """Call fn once; return (result or the exception it raised, nanoseconds)."""
    t0 = time.perf_counter_ns()
    try:
        out = fn(*args)
    except Exception as exc:  # counted as a failed operation by the caller
        out = exc
    return out, time.perf_counter_ns() - t0


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run(name: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = WORKLOADS[name]
    tracer = Tracer()
    wrapped = tracer.install() if traced else []
    reference = HostReference()

    setup_s, setup_refs, s_inv = [], [], []
    for j in range(SETUPS):
        setup_refs.append(reference.time_ns())
        tracer.root = f"setup:{j}"
        t0 = time.perf_counter()
        keys, s_inv_s = set_up(wl)
        setup_s.append(time.perf_counter() - t0)
        s_inv.append(s_inv_s)

    books = Books()
    tracer.root = "check"
    code, pub, priv = keys.code, keys.pub, keys.priv
    books.check(None if formats.save_public_key(pub) == keys.pub_bytes
                else "save(load(bytes)) != bytes", "public key")
    books.check(None if formats.save_private_key(priv) == keys.sec_bytes
                else "save(load(bytes)) != bytes", "private key")
    h_pub = oracle.ParityCheck(pub.H)
    h_code = oracle.ParityCheck(code.H)
    rounds = max(1, round(seconds / wl.round_s))
    messages, wrong, flips = make_inputs(seed, rounds * wl.signs, code.n)
    probes = fault_probes(keys.probe_sig) if wl.probes else []
    calib_rng = np.random.default_rng([seed, 1])

    # Per round: the reference time and the time spent in each kind of operation.
    refs, t_sign, t_verify, t_calib = [], [], [], []
    trials, faults = [], []
    signs = verifies = 0
    loop_start = time.perf_counter()
    for rnd in range(rounds):
        block = range(rnd * wl.signs, (rnd + 1) * wl.signs)
        refs.append(reference.time_ns())
        sigs = {}
        spent = 0
        for j in block:
            tracer.root = "sign"
            res, ns = _timed(scheme.sign, priv, messages[j])
            spent += ns
            signs += 1
            tracer.root = "check"
            if isinstance(res, scheme.Signature):
                books.op(True)
                sigs[j] = res
                trials.append(res.i)
                books.check(oracle.check_signature(h_pub, wl.w, messages[j], res.e, res.i),
                            "signature")
            else:
                books.op(False, f"sign: {type(res).__name__}")
        t_sign.append(spent)

        stream = []
        for j in block:
            sig = sigs.get(j)
            if sig is None:
                for _ in range(3):
                    books.op(False, "verify: no signature to verify")
                continue
            flipped = sig.e.copy()
            flipped[flips[j]] ^= 1
            stream += [("valid pair", messages[j], sig, True),
                       ("one bit flipped", messages[j], scheme.Signature(e=flipped, i=sig.i), False),
                       ("wrong message", wrong[j], sig, False)]
        stream += [(f"probe: {label}", PROBE_MESSAGE, probe, False) for label, probe in probes]
        spent = 0
        tracer.root = "verify"
        for label, msg, sig, expect in stream:
            f0 = _minflt()
            verdict, ns = _timed(scheme.verify, pub, msg, sig)
            faults.append(_minflt() - f0)
            spent += ns
            verifies += 1
            if isinstance(verdict, Exception):  # verify is documented never to raise
                books.op(False, f"verify, {label}: raised {type(verdict).__name__}")
            else:
                books.op(verdict == expect, f"verify, {label}: returned {verdict}")
        t_verify.append(spent)

        tracer.root = "calibrate"
        dist, ns = _timed(analysis.calibrate, code, wl.calib_samples, calib_rng)
        t_calib.append(ns)
        tracer.root = "check"
        if isinstance(dist, analysis.WeightDistribution):
            books.op(True)
            books.check(oracle.check_distribution(dist.histogram, dist.samples, code.n, code.k)
                        or (None if dist.samples == wl.calib_samples else "wrong sample count"),
                        "calibration")
        else:
            books.op(False, f"calibrate: {type(dist).__name__}")

    loop_s = time.perf_counter() - loop_start
    tracer.root = "check"
    synd = np.random.default_rng([seed, 2]).integers(
        0, 2, size=(LEADER_ROWS, code.n - code.k), dtype=np.uint8)
    books.check(oracle.check_coset_leaders(h_code, synd, decoder.coset_leaders(code, synd)),
                "coset leaders")
    tracer.uninstall()

    end_to_end = {
        "setup_s": statistics.median(setup_s) * REF_NS / statistics.median(setup_refs),
        "sign_per_s": signs * 1e9 / _at_ref_speed(t_sign, refs),
        "trials_per_sig": statistics.fmean(trials) if trials else None,
        "verify_per_s": verifies * 1e9 / _at_ref_speed(t_verify, refs),
        "calib_syndromes_per_s": rounds * wl.calib_samples * 1e9 / _at_ref_speed(t_calib, refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    as_measured = {
        "setup_s": statistics.median(setup_s),
        "sign_per_s": signs * 1e9 / sum(t_sign),
        "verify_per_s": verifies * 1e9 / sum(t_verify),
        "calib_syndromes_per_s": rounds * wl.calib_samples * 1e9 / sum(t_calib),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "config": {"m": wl.m, "r": wl.r, "w": wl.w, "N": N_TRIALS, "key_seed": KEY_SEED,
                   "rounds": rounds, "signs_per_round": wl.signs,
                   "verifies_per_round": 3 * wl.signs + len(probes),
                   "calib_samples_per_round": wl.calib_samples, "setups": SETUPS},
        "correct": not books.wrong,
        "attempted": books.attempted,
        "failed": books.failed,
        "failures": dict(books.failures),
        "wrong_outputs": dict(books.wrong),
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "per_round_ns": {"reference": refs, "sign": t_sign, "verify": t_verify,
                         "calibrate": t_calib},
        "setup_samples_s": setup_s,
        "setup_reference_ns": setup_refs,
        "loop_s": loop_s,
    }
    if traced:
        record["wrapped"] = wrapped
        record["per_layer"] = layer_metrics(
            tracer, setups=SETUPS, signatures=len(trials), trials_sum=sum(trials),
            verifies=verifies, minflt_per_verify=statistics.fmean(faults),
            syndromes=rounds * wl.calib_samples, s_inv_s=statistics.median(s_inv),
            speed=REF_NS / statistics.median(refs + setup_refs))
        record["trace"] = tracer.rows_report()
    return record
