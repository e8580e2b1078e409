"""Signatures from punctured Reed-Muller codes with random insertion."""

from .gf2 import RankError
from .rmcode import RmCode, build
from .decoder import coset_leaders, decode_closest, punctured_coset_leaders
from .modcode import ModifiedCode, align_information_set, build_modified, puncture_plan
from .scheme import (
    KeyPair,
    PrivateKey,
    PublicKey,
    Signature,
    SigningExhausted,
    SigningParams,
    hash_to_syndrome,
    keygen,
    sign,
    verify,
)
from .analysis import (
    NoFeasibleParams,
    SecurityEstimate,
    WeightDistribution,
    calibrate,
    choose_params,
    forgery_probability,
    naive_forgery_attack,
    success_probability,
)

__all__ = [
    "RankError",
    "RmCode",
    "build",
    "decode_closest",
    "coset_leaders",
    "punctured_coset_leaders",
    "ModifiedCode",
    "puncture_plan",
    "align_information_set",
    "build_modified",
    "SigningParams",
    "KeyPair",
    "PublicKey",
    "PrivateKey",
    "Signature",
    "SigningExhausted",
    "hash_to_syndrome",
    "keygen",
    "sign",
    "verify",
    "WeightDistribution",
    "SecurityEstimate",
    "NoFeasibleParams",
    "calibrate",
    "success_probability",
    "choose_params",
    "forgery_probability",
    "naive_forgery_attack",
]

__version__ = "0.1.0"
