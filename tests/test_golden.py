"""Golden bytes: keys, signatures and calibration CSVs for fixed seeds.

Criterion 9 compares two runs of the same program.  These digests were
recorded once and pin the outputs across refactors: a change that moves
any of them changes what the scheme produces for a given seed, and must
say so.  The weight bounds sit near t so that signing takes several
trials.  The signing counters are pinned too: `sign` tries counters in
batches of 16, 64, 256, 256, ..., so the boundaries fall after 16, 80,
336 and 592 trials.  The RM(1,4) case signs all five messages inside
the first batch; RM(3,6) signs inside the first (1), the second (21,
37, 48) and past the first three (347); and the RM(5,10) case (m = 10,
r = 5) signs inside the second (30, 38) and the third (206, 232, 258).
"""

import hashlib

import numpy as np
import pytest

from rmsig import analysis, formats, rmcode, scheme
from rmsig.modcode import puncture_plan

MESSAGES = [b"golden message %d" % j for j in range(5)]
CALIB_SAMPLES = 3000  # three calibration chunks, the last one partial

# (m, r, w, N, key seed) -> SHA-256 of: public key, private key, the five
# signature files, the plain-code CSV and the modified-code CSV; and the
# five signing counters.
GOLDEN = {
    (4, 1, 3, 2000, 11): {
        "public": "299bea355158dd6c6952e059ba484d7290ac2458c1c9bcd007b476a9bb6f1aee",
        "private": "490bc39d76a42e98bc1ef8f0e25693c8d1ad3171878517765e90294ad27e5034",
        "sig0": "03eb9073aa3dd27e14736e684b7da28c99bfa8756f31bde378e5f9f0c0f3d6c0",
        "sig1": "bc16a056347d7ee126fca25299489f9eb296a4f05dfe3a2b4b386a886e6ea47d",
        "sig2": "3c8599f9351ffd319d5106dc3c78ec0ef3823cadfc4c28b4356b7cea376e0f53",
        "sig3": "e5c07b04907eba79b7ac7973182dab5c7fdd8307c01435b1cd117e01c3626d3e",
        "sig4": "3b216c4e2e25915b991c14a62a465503869bb1718dae8ebe32057f2f2824bd8a",
        "csv_plain": "e5db25e23ee07d69e77994d485fe57892f761fbe4223dbfec79e71399935ac49",
        "csv_modified": "efec3482ec6a78240fa8e981a8e9d8ed15b2bfde799587cc20dc95d1c05c94b0",
        "counters": [8, 9, 1, 6, 2],
    },
    (6, 3, 3, 4000, 13): {
        "public": "5bc90393509e03e23578790f1b4e3d61525030fa1746e5f46725b7c177b4c60a",
        "private": "24ae29084473c323d2952c9f56edc6d56a65dfc5649bef9be75db13f5a631f91",
        "sig0": "e2bada91308d9f6cf4b5fc07e7d844ae0ba1943e84bbb4a8257846f14a0cd563",
        "sig1": "611f64b353d6df1911101b57c18c7b1a21ff0c9124faea657a0e0276390dfb50",
        "sig2": "1635372eb0bf35b3b8cb975c96686b23904ba293acc9ac1773be3162fe938f44",
        "sig3": "c2b735e4e4dd19d625f8fd3429fbafd0bbc7ba12ad5e81b11aca31ff873aaca3",
        "sig4": "98f35fe72dd6a476eac3959893ac86fbb019f58344142572dacf27e3b646fa59",
        "csv_plain": "ef0aa1ad663bf820e0867c7b1f3e603e0215cf10d187760db459854f4d91a0cf",
        "csv_modified": "d27e300b8808708790b9b7ef55435cd470e6c3505c31b881451b5eacd7933a18",
        "counters": [347, 1, 48, 21, 37],
    },
    (10, 5, 99, 30000, 23): {
        "public": "77676b8d83aa870fe41bdd65b6063cb7aacdef8ea3716e1e91ca9261c967017f",
        "private": "e734b75a12c4441d3f55fcb59dcb53b8964a5b3a8572ef845680e7c3a3cd2113",
        "sig0": "b9be0986202fbe8103cc7f44744f1cd0aa37ea76aaf5d0593842e168ce5a3b61",
        "sig1": "7d044d59a06d961b3b88aef9260c05ff453f6b165bb2f132e418807b38e5987c",
        "sig2": "b84ff4b2cd07833ba6e6ccb38d2444ce34a66f9563bf06ac35e52ea6258301e2",
        "sig3": "a84abeb9192cf042ef212d9d32d41d4242b038f3acbb45a1320c6d6f06ee8f20",
        "sig4": "966a9a4b9d032b3cbde8b385e5096eeb7d2fd8147674c423612611f0bbfe9216",
        "csv_plain": "2109ad1b0876b9b89dabb104a6ed0741f6b9a656665169969e7d17819dba5b2c",
        "csv_modified": "b04dabbfe70903d96d39ffd9258b71b59cc596824fe9829cd4dfecb4cba1d572",
        "counters": [38, 206, 258, 232, 30],
    },
}

# SHA-256 of exhaustive calibration CSVs (every syndrome once, so no
# seed enters): plain RM(r, m) codes by (m, r), and the modified code of
# the RM(1,4) key above.  RM(2,5) spans 64 decode chunks.
EXHAUSTIVE = {
    (3, 1): "7f9f6f3adcc1e1a8d4eef32fd3b4fd42f1fb18814a60f2e1a40778b009605f65",
    (4, 1): "68c72ff59ff29b831ec236f9a0fee9192856256213bb44d847df5907366dacc5",
    (4, 2): "8fa3b5d2be79b2296e6435c092b618ca34b17adc9e0b7e1d57eaec127d2c5a51",
    (5, 2): "9013fa53c47c7d841b68034070f811c3ede791c2bbc2981efd7b2b304db1eeed",
}
EXHAUSTIVE_MODIFIED_RM41 = "aada76271338db4ca8fd6c356a5a8e43167f47e6a3039b0a4586f315bb4e3e22"

# SHA-256 of the puncture plans (y, p, deleted) of key seeds 0-4, by
# (m, r).  The golden keys above take the exhaustive minimum-weight
# search or stop at a weight-1 word on its first column order; these
# projections have dimension 22 and 64 and lightest word 16, so every
# plan runs the randomized search through all its column orders and
# pins its draws from rng.
PLANS = {
    (8, 2): "577d52cc0922156a02c42ffe8492c80eda5c511fa1094df8145c47924e09bc20",
    (10, 3): "5b3769aad5b1d247cffb5afb95407160606eafdb8b71e276dbaee4c349456dca",
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _artifacts(m, r, w, n_trials, seed):
    code = rmcode.build(m, r)
    params = scheme.SigningParams(w=w, N=n_trials, t=code.t)
    kp = scheme.keygen(m, r, params, np.random.default_rng(seed))
    out = {
        "public": _sha(formats.save_public_key(kp.public)),
        "private": _sha(formats.save_private_key(kp.private)),
    }
    out["counters"] = []
    for j, msg in enumerate(MESSAGES):
        sig = scheme.sign(kp.private, msg)
        assert isinstance(sig, scheme.Signature), sig
        out[f"sig{j}"] = _sha(formats.save_signature(sig, code.n))
        out["counters"].append(sig.i)
    plain = analysis.calibrate(code, CALIB_SAMPLES, np.random.default_rng(seed + 1))
    modified = analysis.calibrate(kp.private.mod, CALIB_SAMPLES, np.random.default_rng(seed + 2))
    out["csv_plain"] = _sha(plain.to_csv())
    out["csv_modified"] = _sha(modified.to_csv())
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"RM({c[1]},{c[0]})")
def test_golden_bytes(case):
    assert _artifacts(*case) == GOLDEN[case]


@pytest.mark.parametrize("m,r", sorted(EXHAUSTIVE), ids=lambda v: str(v))
def test_exhaustive_csv(m, r):
    dist = analysis.calibrate(rmcode.build(m, r), 0, np.random.default_rng(0), exhaustive=True)
    assert _sha(dist.to_csv()) == EXHAUSTIVE[(m, r)]


@pytest.mark.parametrize("m,r", sorted(PLANS), ids=lambda v: str(v))
def test_randomized_puncture_plans(m, r):
    code = rmcode.build(m, r)
    digest = hashlib.sha256()
    for seed in range(5):
        plan = puncture_plan(code, np.random.default_rng(seed))
        assert int(plan.y.sum()) == 16
        digest.update(plan.y.tobytes())
        digest.update(np.int64(plan.p).tobytes())
        digest.update(plan.deleted.astype("<i8").tobytes())
    assert digest.hexdigest() == PLANS[(m, r)]


def test_exhaustive_csv_modified():
    code = rmcode.build(4, 1)
    params = scheme.SigningParams(w=3, N=2000, t=code.t)
    kp = scheme.keygen(4, 1, params, np.random.default_rng(11))
    dist = analysis.calibrate(kp.private.mod, 0, np.random.default_rng(0), exhaustive=True)
    assert dist.samples == 1 << 11
    assert _sha(dist.to_csv()) == EXHAUSTIVE_MODIFIED_RM41
