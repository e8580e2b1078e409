"""Binary file formats for keys and signatures.

Key file ("RMSG"):
    magic      4s   "RMSG"
    version    u16  1 for a public key, 4 for a private key
    role       u8   0 = public, 1 = private
    m, r       u16, u16
    p          u32  punctured column count
    w          u32  error weight bound
    N          u32  maximum signing trials
    n_points   u32  followed by n_points * u32 punctured evaluation points,
                    ascending (private files only; public files store 0)
    body       role specific, see below
    crc32      u32  zlib CRC of every preceding byte

Public body:  packed H', (n-k) rows of ceil(n/8) bytes.
Private body: packed F, sigma as n * u32, packed R, then the 32-byte
              SHA-256 of every preceding byte (header included) followed
              by the packed H_m rebuilt from the points and R.
              The points are the evaluation positions keygen punctured.
              A load reads them as columns of the closed-form code and
              replays keygen's alignment off them, which gives the
              aligned parent's column order and the deleted columns in
              it; a point set that leaves no information set is rejected.
              F is the (n-k) x (n-k) matrix of the scrambler's inverse
              factors, S^-1 = (I + triu(F, 1)) @ (I + tril(F, -1)), and
              its diagonal must be zero; any such F is a valid scrambler.
              Version 3 also stored the aligned column order and its
              deleted columns in place of the points; version 2 stored S,
              which a load had to invert; version 1 also stored P'.

All header integers are little-endian.  The signature file ("RMSS")
stores the counter big-endian, mirroring its role as hash input:
    magic "RMSS", version u16, n u32, i u64 BIG-endian, packed e, crc32.

A matrix packs row-major, each row padded to whole bytes, MSB first.
Every padding bit must be zero, so every file that loads saves back to
the same bytes.  H', F and H_m are held in this layout (PublicKey,
PrivateKey, ModifiedCode), so they are written, read and hashed with no
pack or unpack pass.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np

from . import gf2
from .modcode import ModifiedCode, align_information_set, assemble_modified
from .rmcode import build, code_dims
from .scheme import KeyPair, PrivateKey, PublicKey, Signature, SigningParams, check_signature

KEY_MAGIC = b"RMSG"
SIG_MAGIC = b"RMSS"
VERSION = 1
ROLE_PUBLIC = 0
ROLE_PRIVATE = 1
_KEY_VERSION = {ROLE_PUBLIC: VERSION, ROLE_PRIVATE: 4}

_HEADER = struct.Struct("<4sHBHHIII")


class FormatError(ValueError):
    """Malformed, truncated or corrupted file content."""


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _check_crc(raw: bytes, kind: str) -> bytes:
    if len(raw) < 4:
        raise FormatError(f"{kind} file is truncated")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != crc:
        raise FormatError(f"{kind} file failed its CRC check")
    return body


class _Reader:
    def __init__(self, buf: bytes, kind: str):
        self.buf = buf
        self.pos = 0
        self.kind = kind

    def take(self, size: int) -> bytes:
        if self.pos + size > len(self.buf):
            raise FormatError(f"{self.kind} file is truncated")
        out = self.buf[self.pos : self.pos + size]
        self.pos += size
        return out

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"{self.kind} file has trailing bytes")


def _header(role: int, m: int, r: int, p: int, params: SigningParams) -> bytes:
    return _HEADER.pack(KEY_MAGIC, _KEY_VERSION[role], role, m, r, p, params.w, params.N)


def _u32_list(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


def save_public_key(pub: PublicKey) -> bytes:
    body = _header(ROLE_PUBLIC, pub.m, pub.r, 0, pub.params)
    body += struct.pack("<I", 0)
    body += pub.packed_H.tobytes()
    return _with_crc(body)


def save_private_key(priv: PrivateKey) -> bytes:
    mod = priv.mod
    body = _header(ROLE_PRIVATE, mod.m, mod.r, mod.p, priv.params)
    body += struct.pack("<I", mod.p) + _u32_list(np.sort(mod.info_perm[mod.deleted]))
    body += priv.packed_F.tobytes()
    body += _u32_list(priv.sigma)
    body += gf2.pack_rows(mod.R).tobytes()
    body += _digest(body, mod)
    return _with_crc(body)


def _digest(body: bytes, mod: ModifiedCode) -> bytes:
    """SHA-256 of body followed by H_m's packed rows."""
    digest = hashlib.sha256(body)
    digest.update(mod.packed_H)
    return digest.digest()


def _packed(rd: _Reader, rows: int, cols: int, what: str) -> np.ndarray:
    """The next rows x cols packed matrix, as read-only rows of bytes.

    Raises:
        FormatError: if a padding bit is set; such a file would not save
            back to its own bytes.
    """
    row_bytes = (cols + 7) // 8
    packed = np.frombuffer(rd.take(rows * row_bytes), dtype=np.uint8).reshape(rows, row_bytes)
    if cols % 8 and (packed[:, -1] & (0xFF >> cols % 8)).any():
        raise FormatError(f"{what} has nonzero padding bits")
    return packed


def _parse_header(rd: _Reader, expect_role: int):
    """Read and check the header; returns (m, r, n, k, p, params, points).

    m and r are checked against the range keygen makes keys for, 1 <= r
    < m <= rmcode.MAX_M, before anything is sized from them.
    """
    magic, version, role, m, r, p, w, n_trials = _HEADER.unpack(rd.take(_HEADER.size))
    if magic != KEY_MAGIC:
        raise FormatError("not a key file (bad magic)")
    if role != expect_role:
        raise FormatError("key file has the wrong role for this operation")
    if version != _KEY_VERSION[role]:
        raise FormatError(f"unsupported {rd.kind} file version {version}")
    try:
        if not 1 <= r < m:
            raise ValueError(f"need 1 <= r < m, got r={r}, m={m}")
        n, k, t = code_dims(m, r)
        params = SigningParams(w=w, N=n_trials, t=t)
    except ValueError as err:
        raise FormatError(f"invalid key header: {err}") from None
    (count,) = struct.unpack("<I", rd.take(4))
    points = np.frombuffer(rd.take(4 * count), dtype="<u4").astype(np.int64)
    return m, r, n, k, p, params, points


def load_public_key(raw: bytes) -> PublicKey:
    rd = _Reader(_check_crc(raw, "public key"), "public key")
    m, r, n, k, p, params, points = _parse_header(rd, ROLE_PUBLIC)
    if p or points.size:
        raise FormatError("a public key stores p = 0 and no punctured points")
    h_pub = _packed(rd, n - k, n, "the public check matrix")
    rd.done()
    return PublicKey(m=m, r=r, packed_H=h_pub, params=params)


def load_private_key(raw: bytes) -> PrivateKey:
    rd = _Reader(_check_crc(raw, "private key"), "private key")
    m, r, n, k, p, params, points = _parse_header(rd, ROLE_PRIVATE)
    if points.size != p:
        raise FormatError("punctured point list does not match p")
    if p and (points[-1] >= n or (np.diff(points) <= 0).any()):
        raise FormatError(f"punctured points must increase strictly below n = {n}")
    packed_f = _packed(rd, n - k, n - k, "the S^-1 factor matrix")
    diag = np.arange(n - k)
    if (packed_f[diag, diag >> 3] & (128 >> (diag & 7))).any():
        raise FormatError("the S^-1 factor matrix has a nonzero diagonal")
    sigma = np.frombuffer(rd.take(4 * n), dtype="<u4").astype(np.int64)
    if not np.array_equal(np.sort(sigma), np.arange(n)):
        raise FormatError("sigma is not a permutation of the column indices")
    r_block = np.unpackbits(_packed(rd, p, n - p, "the R block"), axis=1, count=n - p)
    stored_digest = rd.take(32)
    rd.done()

    # Replay keygen's alignment: the points, read as columns of the
    # closed-form code, are the plan keygen aligned.
    code = build(m, r)
    try:
        aligned, deleted = align_information_set(code, np.argsort(code.info_perm)[points])
    except gf2.RankError:
        raise FormatError("the punctured points leave no information set") from None
    mod = assemble_modified(aligned, deleted, r_block)
    del code, aligned  # H_m is all the key keeps of them
    if _digest(rd.buf[:-32], mod) != stored_digest:
        raise FormatError("private key digest mismatch")
    sigma.flags.writeable = False
    return PrivateKey(packed_F=packed_f, sigma=sigma, mod=mod, params=params)


def save_keypair(kp: KeyPair, out_prefix: str) -> tuple[str, str]:
    pub_path, sec_path = out_prefix + ".pub", out_prefix + ".sec"
    # Both keys are serialised first, so a key that cannot be written
    # leaves no file behind.
    pub_bytes, sec_bytes = save_public_key(kp.public), save_private_key(kp.private)
    with open(pub_path, "wb") as fh:
        fh.write(pub_bytes)
    with open(sec_path, "wb") as fh:
        fh.write(sec_bytes)
    return pub_path, sec_path


def save_signature(sig: Signature, n: int) -> bytes:
    """Raises ValueError unless sig lies in the domain verify accepts
    (scheme.check_signature); the file then holds sig exactly."""
    e, i = check_signature(sig, n)
    body = SIG_MAGIC + struct.pack("<HI", VERSION, n)
    body += struct.pack(">Q", i)
    body += np.packbits(e).tobytes()
    return _with_crc(body)


def load_signature(raw: bytes) -> Signature:
    """The signature save_signature wrote as raw.

    Raises:
        FormatError: unless raw is a file save_signature can write, so a
            signature has one file: nonzero padding bits after e, a
            counter of 0 or n = 0 are rejected.
    """
    rd = _Reader(_check_crc(raw, "signature"), "signature")
    magic = rd.take(4)
    if magic != SIG_MAGIC:
        raise FormatError("not a signature file (bad magic)")
    version, n = struct.unpack("<HI", rd.take(6))
    if version != VERSION:
        raise FormatError(f"unsupported signature file version {version}")
    (counter,) = struct.unpack(">Q", rd.take(8))
    packed = _packed(rd, 1, n, "signature vector")
    rd.done()
    sig = Signature(e=np.unpackbits(packed[0], count=n), i=counter)
    try:
        check_signature(sig, n)
    except ValueError as err:
        raise FormatError(f"signature outside the domain verify accepts: {err}") from None
    sig.e.flags.writeable = False
    return sig
