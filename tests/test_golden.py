"""Golden bytes: keys, signatures and calibration CSVs for fixed seeds.

Criterion 9 compares two runs of the same program.  These digests were
recorded once and pin the outputs across refactors: a change that moves
any of them changes what the scheme produces for a given seed, and must
say so.  The weight bounds sit near t so that signing takes several
trials.  The signing counters are pinned too.  A key with no signing
history tries counters in batches of 16, 64, 256, 256, ..., so the
boundaries fall after 16, 80, 336 and 592 trials (a key's later
signatures start from its past counters; see scheme.SIGN_BATCH).
Against those boundaries the RM(1,4) case signs all five messages inside
the first batch; RM(3,6) signs inside the first (1), the second (21,
37, 48) and past the first three (347); and the RM(5,10) case (m = 10,
r = 5) signs inside the second (30, 38), the third (206, 232) and
past the first three (445).
"""

import hashlib

import numpy as np
import pytest

from rmsig import analysis, formats, rmcode, scheme
from rmsig.modcode import puncture_plan

MESSAGES = [b"golden message %d" % j for j in range(5)]
CALIB_SAMPLES = 3000  # three calibration chunks, the last one partial

# (m, r, w, N, key seed) -> SHA-256 of: public key, private key (file
# version 4, which stores the inverse factors of S and the punctured
# points), the five signature files, the plain-code CSV and the
# modified-code CSV; and the five signing counters.
GOLDEN = {
    (4, 1, 3, 2000, 11): {
        "public": "758b99219582ade06549fe1672eecf5ca1fef9131323eb13e7a787b4954ee7c9",
        "private": "29e25448f3c3d1853f7e29c56630eec134c366fc962090d4fb44c8f222e0ecd4",
        "sig0": "2c47482552d3c100f839aa658cb132d68524d4fcd9f4b4f98a6bd4aac69b37af",
        "sig1": "eeebe1d8fc07671ac17b8b49e2b9161f8ba7358bf469962b5532736c58fd7b53",
        "sig2": "44f51b43e7fa7f92ac7aafb7befae5175551b35ce7fbd420423285efec29ecbb",
        "sig3": "e092188f726a460d160305152c75824d786965e7c62f0e9ffbf7b8bff358d50f",
        "sig4": "6dd7447b3a7c1fb0f4b2ce55ccb534063e6c86e1a206a5d56a741035dd2fe78f",
        "csv_plain": "e5db25e23ee07d69e77994d485fe57892f761fbe4223dbfec79e71399935ac49",
        "csv_modified": "06754bf3d54aa36c310cb110992becdf110400728f449443141fdab886bce77d",
        "counters": [7, 3, 1, 7, 10],
    },
    (6, 3, 3, 4000, 13): {
        "public": "5bc90393509e03e23578790f1b4e3d61525030fa1746e5f46725b7c177b4c60a",
        "private": "fec8dc5977051928e14581b8011cd2cd971841af41460a5612a3cf5693b17f9a",
        "sig0": "e2bada91308d9f6cf4b5fc07e7d844ae0ba1943e84bbb4a8257846f14a0cd563",
        "sig1": "611f64b353d6df1911101b57c18c7b1a21ff0c9124faea657a0e0276390dfb50",
        "sig2": "1635372eb0bf35b3b8cb975c96686b23904ba293acc9ac1773be3162fe938f44",
        "sig3": "c2b735e4e4dd19d625f8fd3429fbafd0bbc7ba12ad5e81b11aca31ff873aaca3",
        "sig4": "98f35fe72dd6a476eac3959893ac86fbb019f58344142572dacf27e3b646fa59",
        "csv_plain": "ef0aa1ad663bf820e0867c7b1f3e603e0215cf10d187760db459854f4d91a0cf",
        "csv_modified": "59e34f776e6bf99e4691f4919e8df1f11d6b55e83084ba1e107745ba2d2be649",
        "counters": [347, 1, 48, 21, 37],
    },
    (10, 5, 99, 30000, 23): {
        "public": "77676b8d83aa870fe41bdd65b6063cb7aacdef8ea3716e1e91ca9261c967017f",
        "private": "a5fd6f0b51e1d7b682ad1bf1583aac21771f1782bbf1ebfd492bbb5976fb035d",
        "sig0": "4c2deda70ed1734e341659dfec4e412db66f71e08e19925efb267d7deaf84a00",
        "sig1": "7d044d59a06d961b3b88aef9260c05ff453f6b165bb2f132e418807b38e5987c",
        "sig2": "859e95d51f00360ce7a2cd7696405d67d2dfa30baac7f6d0d96907fc00212cef",
        "sig3": "a84abeb9192cf042ef212d9d32d41d4242b038f3acbb45a1320c6d6f06ee8f20",
        "sig4": "966a9a4b9d032b3cbde8b385e5096eeb7d2fd8147674c423612611f0bbfe9216",
        "csv_plain": "2109ad1b0876b9b89dabb104a6ed0741f6b9a656665169969e7d17819dba5b2c",
        "csv_modified": "c37905fecbb6dd4a847d7850053a167047a1d0d3af278837f06be0ef5a0563da",
        "counters": [38, 206, 445, 232, 30],
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
EXHAUSTIVE_MODIFIED_RM41 = "7763588cb1852cff8dcceef1f12e00b26f23ee5486302ad1db10e6853dc7f2cc"

# SHA-256 of the puncture plans (y, p, deleted) of key seeds 0-4, by
# (m, r).  The golden RM(3,6) and RM(5,10) keys have 2r >= m, so their
# y is the first point of supp(x) and draws nothing from rng; here
# 2r < m, so y is a 16-point flat cut out of supp(x) by r random affine
# forms, redrawn until they keep 16 points, and these digests pin those
# draws.
PLANS = {
    (8, 2): "cc58094f2901c6d3805214eb528b5caf84de2cb092c78670719d9a9a45fba9a5",
    (10, 3): "9515614f47da7268dedc01261a92c7aefc40996a19c458206ebfd608ed220084",
}

# SHA-256 of the public and private key files of the benchmark's
# largest key: m = 12, r = 6, w = 530, N = 30000, key seed 1.  Building
# it moves the information set of the largest code, and loading the
# private key moves it again, off the stored punctured points.
LARGEST = (12, 6, 530, 30000, 1)
LARGEST_KEYS = {
    "public": "a76dfd67cc8b90eb236b5dc58bb3adc4a3f98c16387137411a494842dd055327",
    "private": "ce0196e036d7948301731a46292c92c3ae8cead297cb4fbdfd16fa52766bb80b",
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


def test_largest_keys():
    m, r, w, n_trials, seed = LARGEST
    params = scheme.SigningParams(w=w, N=n_trials, t=rmcode.build(m, r).t)
    kp = scheme.keygen(m, r, params, np.random.default_rng(seed))
    pub, sec = formats.save_public_key(kp.public), formats.save_private_key(kp.private)
    assert {"public": _sha(pub), "private": _sha(sec)} == LARGEST_KEYS
    assert formats.save_private_key(formats.load_private_key(sec)) == sec
