"""Command line surface.

Exit codes: 0 on success (verify: ACCEPT, attack: at least one forgery),
1 for REJECT / no forgery found, 2 for usage, parameter or file format
errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, formats, rmcode, scheme

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2

DEFAULT_ATTACK_MESSAGE = b"rmsig naive forgery target"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_keygen(args: argparse.Namespace) -> int:
    _n, _k, t = rmcode.code_dims(args.m, args.r)
    params = scheme.SigningParams(w=args.w, N=args.n_trials, t=t)
    kp = scheme.keygen(args.m, args.r, params, np.random.default_rng(args.seed))
    pub_path, sec_path = formats.save_keypair(kp, args.out_prefix)
    print(f"wrote {pub_path} and {sec_path}")
    return EXIT_OK


def cmd_sign(args: argparse.Namespace) -> int:
    priv = formats.load_private_key(_read(args.key))
    message = _read(args.message_file)
    result = scheme.sign(priv, message)
    if isinstance(result, scheme.SigningExhausted):
        print(
            f"signing exhausted after {result.trials} trials "
            f"(best weight {result.best_weight} > w={priv.params.w})",
            file=sys.stderr,
        )
        return EXIT_REJECT
    with open(args.out, "wb") as fh:
        fh.write(formats.save_signature(result, priv.mod.n))
    print(f"signed with counter i={result.i}, weight {int(result.e.sum())}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    pub = formats.load_public_key(_read(args.pubkey))
    sig = formats.load_signature(_read(args.sig))
    message = _read(args.message_file)
    if scheme.verify(pub, message, sig):
        print("ACCEPT")
        return EXIT_OK
    print("REJECT")
    return EXIT_REJECT


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.key is not None:
        if args.m is not None or args.r is not None:
            raise ValueError("calibrate takes --key or --m/--r, not both")
        # The key's modified code: the signing path's decode and weights.
        code = formats.load_private_key(_read(args.key)).mod
    elif args.m is None or args.r is None:
        raise ValueError("calibrate needs --key, or both --m and --r")
    else:
        code = rmcode.build(args.m, args.r)
    if args.samples == "exhaustive":
        dist = analysis.calibrate(code, 0, np.random.default_rng(args.seed), exhaustive=True)
    else:
        dist = analysis.calibrate(code, int(args.samples), np.random.default_rng(args.seed))
    csv = dist.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    est = analysis.forgery_probability(args.n, args.k, args.w)
    print("log2_prob")
    print(f"{est.log2_prob:.6f}")
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    pub = formats.load_public_key(_read(args.pubkey))
    message = _read(args.message_file) if args.message_file else DEFAULT_ATTACK_MESSAGE
    rng = np.random.default_rng(args.seed)
    rate = analysis.naive_forgery_attack(pub, message, args.trials, rng)
    successes = round(rate * args.trials)
    print("successes,trials,rate")
    print(f"{successes},{args.trials},{rate:.6f}")
    return EXIT_OK if successes else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmsig",
        description="Signatures from punctured Reed-Muller codes with random insertion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--m", type=int, required=True)
    kg.add_argument("--r", type=int, required=True)
    kg.add_argument("--w", type=int, required=True, help="error weight bound")
    kg.add_argument("--n-trials", type=int, required=True, help="max signing trials N")
    kg.add_argument("--seed", type=int, default=None)
    kg.add_argument("--out-prefix", required=True)
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--key", required=True, help="private key file")
    sg.add_argument("--message-file", required=True)
    sg.add_argument("--out", required=True, help="signature output path")
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--pubkey", required=True)
    vf.add_argument("--message-file", required=True)
    vf.add_argument("--sig", required=True)
    vf.set_defaults(func=cmd_verify)

    cal = sub.add_parser("calibrate", help="coset-leader weight histogram as CSV")
    cal.add_argument("--m", type=int, help="plain RM(r, m) code")
    cal.add_argument("--r", type=int)
    cal.add_argument("--key", default=None, help="private key file: calibrate its signing path")
    cal.add_argument("--samples", required=True, help="sample count or 'exhaustive'")
    cal.add_argument("--seed", type=int, default=None)
    cal.add_argument("--csv", default=None, help="output path (default stdout)")
    cal.set_defaults(func=cmd_calibrate)

    est = sub.add_parser("estimate", help="exact naive-forgery probability")
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--k", type=int, required=True)
    est.add_argument("--w", type=int, required=True)
    est.set_defaults(func=cmd_estimate)

    atk = sub.add_parser("attack", help="run the naive syndrome forgery attack")
    atk.add_argument("--pubkey", required=True)
    atk.add_argument("--trials", type=int, required=True)
    atk.add_argument("--seed", type=int, default=None)
    atk.add_argument("--message-file", default=None)
    atk.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
