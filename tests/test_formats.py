import dataclasses
import hashlib
import struct
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsig import formats, gf2, modcode, rmcode, scheme

from reference import modified_generator, perm_matrix


@pytest.fixture(scope="module")
def keypair():
    params = scheme.SigningParams(w=12, N=100, t=3)
    return scheme.keygen(5, 2, params, np.random.default_rng(21))


class TestPublicKeyFile:
    def test_round_trip(self, keypair):
        raw = formats.save_public_key(keypair.public)
        pub = formats.load_public_key(raw)
        assert np.array_equal(pub.H, keypair.public.H)
        assert pub.params == keypair.public.params
        assert (pub.m, pub.r) == (5, 2)

    def test_round_trip_is_byte_stable(self, keypair):
        raw = formats.save_public_key(keypair.public)
        again = formats.save_public_key(formats.load_public_key(raw))
        assert raw == again

    def test_crc_corruption_rejected(self, keypair):
        raw = bytearray(formats.save_public_key(keypair.public))
        raw[20] ^= 1
        with pytest.raises(formats.FormatError):
            formats.load_public_key(bytes(raw))

    def test_truncation_rejected(self, keypair):
        raw = formats.save_public_key(keypair.public)
        with pytest.raises(formats.FormatError):
            formats.load_public_key(raw[:-9])

    def test_bad_magic_rejected(self, keypair):
        raw = bytearray(formats.save_public_key(keypair.public))
        raw[:4] = b"NOPE"
        # CRC still matches the body, so re-CRC to isolate the magic check.
        import struct, zlib

        body = bytes(raw[:-4])
        with pytest.raises(formats.FormatError):
            formats.load_public_key(body + struct.pack("<I", zlib.crc32(body)))

    def test_wrong_role_rejected(self, keypair):
        raw = formats.save_private_key(keypair.private)
        with pytest.raises(formats.FormatError):
            formats.load_public_key(raw)

    def test_header_holds_exactly_the_params_bound(self):
        # SigningParams bounds w and N by scheme._U32_MAX; the header's
        # fields must hold that value and no larger one.
        import struct

        top = scheme._U32_MAX
        fields = (formats.KEY_MAGIC, 1, 0, 4, 1, 0)
        formats._HEADER.pack(*fields, top, top)
        for w, n in [(top + 1, top), (top, top + 1)]:
            with pytest.raises(struct.error):
                formats._HEADER.pack(*fields, w, n)


class TestPrivateKeyFile:
    def test_round_trip_bit_exact(self, keypair):
        raw = formats.save_private_key(keypair.private)
        priv = formats.load_private_key(raw)
        assert np.array_equal(priv.packed_F, keypair.private.packed_F)
        # The loaded S^-1 undoes keygen's S: S^-1 @ H' = H_m @ Q.
        q = perm_matrix(priv.sigma)
        descrambled = gf2.mat_mul(priv.S_inv, keypair.public.H)
        assert np.array_equal(descrambled, gf2.mat_mul(priv.mod.H, q))
        assert np.array_equal(priv.sigma, keypair.private.sigma)
        assert np.array_equal(priv.mod.R, keypair.private.mod.R)
        assert np.array_equal(priv.mod.deleted, keypair.private.mod.deleted)
        assert np.array_equal(priv.mod.H, keypair.private.mod.H)
        assert np.array_equal(modified_generator(priv.mod), modified_generator(keypair.private.mod))
        assert np.array_equal(priv.mod.info_perm, keypair.private.mod.info_perm)
        assert priv.params == keypair.private.params

    @pytest.mark.parametrize("m,r", [(8, 4), (10, 5)])
    def test_s_inv_is_the_product_of_f_triangles(self, m, r):
        """S^-1 = (I + triu(F, 1)) @ (I + tril(F, -1)), formed here with
        numpy's masks and a float64 product, for a key and its reload."""
        priv = _keygen_private(m, r, m)
        size = priv.packed_F.shape[0]
        f = np.unpackbits(priv.packed_F, axis=1, count=size).astype(np.float64)
        eye = np.eye(size)
        expected = ((eye + np.triu(f, 1)) @ (eye + np.tril(f, -1))).astype(np.int64) & 1
        loaded = formats.load_private_key(formats.save_private_key(priv))
        for key in (priv, loaded):
            assert key.S_inv.dtype == np.uint8 and np.array_equal(key.S_inv, expected)

    def test_reloaded_key_signs_identically(self, keypair):
        raw = formats.save_private_key(keypair.private)
        priv = formats.load_private_key(raw)
        a = scheme.sign(keypair.private, b"same bytes")
        b = scheme.sign(priv, b"same bytes")
        assert a.i == b.i
        assert np.array_equal(a.e, b.e)

    def test_digest_guards_assembly(self, keypair):
        raw = bytearray(formats.save_private_key(keypair.private))
        # Flip one bit inside the stored digest, then fix the CRC.
        import struct, zlib

        raw[-6] ^= 1
        body = bytes(raw[:-4])
        raw = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(formats.FormatError):
            formats.load_private_key(raw)

    def test_layout(self, keypair):
        # Header and punctured points, F, sigma, R, digest, CRC; no P' and
        # no column order.
        mod = keypair.private.mod
        n, k, p = mod.n, mod.k, mod.p
        raw = formats.save_private_key(keypair.private)
        rows = (n - k) * ((n - k + 7) // 8) + p * ((n - p + 7) // 8)
        assert len(raw) == 27 + 4 * p + rows + 4 * n + 32 + 4
        assert raw[4:6] == b"\x04\x00"

    def test_version_1_rejected_by_name(self, keypair):
        # Version 1 stored P' and digested H_m alone; there is no v1 loader.
        raw = _patched(formats.save_private_key(keypair.private), 4, b"\x01\x00")
        with pytest.raises(formats.FormatError, match="private key file version 1"):
            formats.load_private_key(raw)

    def test_version_2_rejected_by_name(self, keypair):
        # Version 2 stored S, which a load inverted; there is no v2 loader.
        raw = _patched(formats.save_private_key(keypair.private), 4, b"\x02\x00")
        with pytest.raises(formats.FormatError, match="private key file version 2"):
            formats.load_private_key(raw)

    def test_save_keypair_writes_two_files(self, keypair, tmp_path):
        prefix = str(tmp_path / "toy")
        pub_path, sec_path = formats.save_keypair(keypair, prefix)
        assert pub_path.endswith(".pub") and sec_path.endswith(".sec")
        pub = formats.load_public_key(Path(pub_path).read_bytes())
        priv = formats.load_private_key(Path(sec_path).read_bytes())
        sig = scheme.sign(priv, b"file trip")
        assert scheme.verify(pub, b"file trip", sig)

    @staticmethod
    def _load_peak(code):
        """tracemalloc peak of loading a key of code, which the caller
        holds, so the load shares it."""
        params = scheme.SigningParams(w=code.t, N=10, t=code.t)
        raw = formats.save_private_key(
            scheme.keygen(code.m, code.r, params, np.random.default_rng(1)).private
        )
        tracemalloc.start()
        try:
            priv = formats.load_private_key(raw)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The load moved the information set, so it took the aligning path.
        assert not np.array_equal(priv.mod.info_perm, code.info_perm)
        return peak

    def test_load_holds_one_generator_beside_the_code(self):
        # With the caller holding RM(10,5), a load shares that code, so the
        # only k x n uint8 generator is the code's own; the aligned order
        # is a permutation and a few moved rows.  The load holds H_m,
        # (n-k) x n = 0.61 k n bytes, F, (n-k)^2 = 0.23 k n, and packed
        # rows and row blocks under 0.4 k n: under 1.3 k n in all.  A
        # rebuilt parent and an aligned generator add k n each, which
        # together pass 3 k n.
        code = rmcode.build(10, 5)
        assert self._load_peak(code) < 3 * code.k * code.n

    def test_load_forms_no_aligned_generator(self):
        # H_m and F, which the loaded key keeps, take (n-k) n + (n-k)^2
        # bytes, 0.84 k n on RM(10,5).  Forming the aligned generator beside
        # them, even for a moment, adds k n more, past the bound; the
        # load's other arrays (packed rows, 64 KB row blocks, the digest's
        # packed H_m) take under 0.5 k n, which stays below it.
        code = rmcode.build(10, 5)
        n, k = code.n, code.k
        bound = 1.7 * k * n
        kept = (n - k) * n + (n - k) ** 2
        assert kept + 0.5 * k * n < bound < kept + k * n
        assert self._load_peak(code) < bound

    def test_save_keypair_writes_nothing_for_a_key_it_cannot_save(
        self, keypair, tmp_path, monkeypatch
    ):
        def unsavable(priv):
            raise ValueError("cannot serialise")

        monkeypatch.setattr(formats, "save_private_key", unsavable)
        with pytest.raises(ValueError, match="cannot serialise"):
            formats.save_keypair(keypair, str(tmp_path / "toy"))
        assert list(tmp_path.iterdir()) == []


class TestSignatureFile:
    def test_round_trip(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = formats.save_signature(sig, keypair.public.n)
        back = formats.load_signature(raw)
        assert back.i == sig.i
        assert np.array_equal(back.e, sig.e)

    def test_counter_is_big_endian_u64(self, keypair):
        sig = scheme.Signature(e=np.zeros(32, dtype=np.uint8), i=0x0102030405060708)
        raw = formats.save_signature(sig, 32)
        # magic(4) + version(2) + n(4), then the counter.
        assert raw[10:18] == bytes([1, 2, 3, 4, 5, 6, 7, 8])

    def test_crc_corruption_rejected(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = bytearray(formats.save_signature(sig, keypair.public.n))
        raw[12] ^= 1
        with pytest.raises(formats.FormatError):
            formats.load_signature(bytes(raw))

    def test_truncation_rejected(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = formats.save_signature(sig, keypair.public.n)
        with pytest.raises(formats.FormatError):
            formats.load_signature(raw[:11])

    def test_wrong_length_vector_rejected(self):
        with pytest.raises(ValueError):
            formats.save_signature(scheme.Signature(e=np.zeros(8, dtype=np.uint8), i=1), 16)

    @pytest.mark.parametrize(
        "e,i",
        [
            (np.zeros(16, dtype=np.uint8), 2**64),
            (np.zeros(16, dtype=np.uint8), 0),
            (np.zeros(16, dtype=np.uint8), -1),
            (np.zeros(16, dtype=np.uint8), 1.0),
            (np.array([2] + [0] * 15, dtype=np.uint8), 1),
            (np.array([-1] + [0] * 15, dtype=np.int8), 1),
            (np.zeros(16, dtype=np.float64), 1),
            (np.zeros((1, 16), dtype=np.uint8), 1),
        ],
        ids=["i=2**64", "i=0", "i=-1", "float i", "entry 2", "entry -1", "float e", "2-D e"],
    )
    def test_outside_verify_domain_rejected(self, e, i):
        sig = scheme.Signature(e=e, i=i)
        with pytest.raises(ValueError):
            formats.save_signature(sig, 16)

    def test_bool_and_wide_vectors_saved_exactly(self):
        e = np.zeros(16, dtype=bool)
        e[[1, 9]] = True
        for vec in (e, e.astype(np.int64)):
            raw = formats.save_signature(scheme.Signature(e=vec, i=2**64 - 1), 16)
            back = formats.load_signature(raw)
            assert back.i == 2**64 - 1
            assert np.array_equal(back.e, e)

    def test_counter_zero_rejected(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = _patched(formats.save_signature(sig, keypair.public.n), 10, bytes(8))
        with pytest.raises(formats.FormatError, match="domain"):
            formats.load_signature(raw)

    def test_nonzero_padding_rejected(self):
        e = np.zeros(13, dtype=np.uint8)
        e[[0, 12]] = 1
        raw = formats.save_signature(scheme.Signature(e=e, i=1), 13)
        # e fills bytes 18-19; bit 12 is mask 8 of byte 19, and the three
        # bits below it are padding.
        assert raw[18:20] == b"\x80\x08"
        for pad in (1, 2, 4):
            with pytest.raises(formats.FormatError, match="padding"):
                formats.load_signature(_patched(raw, 19, bytes([8 | pad])))

    def test_empty_vector_rejected(self):
        import struct

        body = formats.SIG_MAGIC + struct.pack("<HI", formats.VERSION, 0) + struct.pack(">Q", 1)
        with pytest.raises(formats.FormatError, match="domain"):
            formats.load_signature(formats._with_crc(body))

    def test_every_loading_file_saves_back(self):
        """Each byte of a 13-bit signature file set to each of its 256
        values, CRC recomputed: the file either raises FormatError or is
        the one save_signature writes for the signature it loads as."""
        e = np.zeros(13, dtype=np.uint8)
        e[[2, 7, 11]] = 1
        raw = formats.save_signature(scheme.Signature(e=e, i=2**40 + 3), 13)
        loaded = 0
        for offset in range(len(raw) - 4):
            for value in range(256):
                mutant = _patched(raw, offset, bytes([value]))
                try:
                    sig = formats.load_signature(mutant)
                except formats.FormatError:
                    continue
                assert formats.save_signature(sig, sig.e.size) == mutant, (offset, value)
                loaded += 1
        assert loaded > len(raw)


# The RM(1,4) key pair of key seed 11 (w = 3, N = 2000) as keygen wrote
# it while a puncture plan's y was found by a minimum-weight search.  For
# this 2r < m code keygen now draws another y, so a new key differs, but
# a load replays the stored punctured points and never draws a plan.  The
# private key is written as version 4; SEARCHED_RM41_PRIVATE_V3 is the
# version 3 file keygen wrote, which stored the aligned column order and
# its deleted columns in place of the points.
SEARCHED_RM41_PUBLIC = bytes.fromhex(
    "524d5347010000040001000000000003000000d00700000000000072ad2c2653671e0935"
    "f80239c0c5dcc10e70bfd6139de93fad86"
)
SEARCHED_RM41_PRIVATE = bytes.fromhex(
    "524d5347040001040001000700000003000000d007000007000000000000000100000004"
    "0000000500000008000000090000000c0000001b809ea00f60062096a0eb002c406c2032"
    "201fa0e700050000000f000000000000000e00000008000000060000000d0000000b0000"
    "000c00000001000000040000000200000003000000070000000a00000009000000ca0056"
    "804080e2807f00b2000280c0682daa5300ad91c28cc669775f0b991df0d727ccc068e8e6"
    "8468d3a35b25895d76e743"
)
SEARCHED_RM41_PRIVATE_V3 = bytes.fromhex(
    "524d5347030001040001000700000003000000d007000007000000050000000600000007"
    "00000008000000090000000b0000000d0000001b809ea00f60062096a0eb002c406c2032"
    "201fa0e700050000000f000000000000000e00000008000000060000000d0000000b0000"
    "000c00000001000000040000000200000003000000070000000a00000009000000ca0056"
    "804080e2807f00b20002800200000003000000060000000a0000000d0000000000000001"
    "00000004000000080000000500000007000000090000000b0000000c0000000e0000000f"
    "000000589c92641a31d21a0748f838bae67574524a1955263067f1b063e1f67130c5dce3"
    "5a0ea5"
)


class TestKeyFromTheSearch:
    def test_loads_signs_and_saves_back(self):
        pub = formats.load_public_key(SEARCHED_RM41_PUBLIC)
        priv = formats.load_private_key(SEARCHED_RM41_PRIVATE)
        assert formats.save_public_key(pub) == SEARCHED_RM41_PUBLIC
        assert formats.save_private_key(priv) == SEARCHED_RM41_PRIVATE
        for j in range(5):
            message = b"old key %d" % j
            sig = scheme.sign(priv, message)
            assert isinstance(sig, scheme.Signature)
            assert scheme.verify(pub, message, sig)


def _patched(raw: bytes, offset: int, data: bytes) -> bytes:
    """Overwrite bytes at offset, then recompute the CRC so only the content is wrong."""
    import struct, zlib

    body = bytearray(raw[:-4])
    body[offset : offset + len(data)] = data
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


# Header layout: magic 0, version 4, role 6, m 7, r 9, p 11, w 15, N 19,
# deleted count 23, deleted list 27; the private body follows the list.
HUGE_CODE = (7, b"\x60\xea\x30\x75")  # m=60000, r=30000: sizes nothing could allocate


def _hostile_private_keys(keypair):
    import struct

    raw = formats.save_private_key(keypair.private)
    mod = keypair.private.mod
    n, k, p = mod.n, mod.k, mod.p
    deleted_at = 27
    f_at = deleted_at + 4 * p
    f_row = (n - k + 7) // 8
    sigma_at = f_at + (n - k) * f_row
    sigma = keypair.private.sigma
    points = np.frombuffer(raw[deleted_at:f_at], dtype="<u4")
    return {
        "huge m and r": _patched(raw, *HUGE_CODE),
        "r above m": _patched(raw, 7, struct.pack("<HH", 5, 6)),
        "w below t": _patched(raw, 15, struct.pack("<I", 1)),
        "N of zero": _patched(raw, 19, struct.pack("<I", 0)),
        "points out of order": _patched(
            raw, deleted_at, struct.pack("<II", points[1], points[0])),
        "point past n": _patched(raw, deleted_at + 4 * (p - 1), struct.pack("<I", n)),
        "sigma repeats an index": _patched(raw, sigma_at + 4, struct.pack("<I", sigma[0])),
        "F has two equal rows": _patched(raw, f_at + f_row, raw[f_at : f_at + f_row]),
        "F has a diagonal bit set": _patched(raw, f_at, bytes([raw[f_at] | 0x80])),
    }


class TestHostileFiles:
    """Valid CRC, invalid content: every loader raises FormatError, at once."""

    def test_public_key_with_huge_dimensions(self, keypair):
        raw = _patched(formats.save_public_key(keypair.public), *HUGE_CODE)
        start = time.monotonic()
        with pytest.raises(formats.FormatError):
            formats.load_public_key(raw)
        assert time.monotonic() - start < 1.0

    def test_public_key_with_invalid_params(self, keypair):
        raw = _patched(formats.save_public_key(keypair.public), 15, b"\x01\x00\x00\x00")
        with pytest.raises(formats.FormatError):
            formats.load_public_key(raw)

    @pytest.mark.parametrize("role", ["public", "private"])
    @pytest.mark.parametrize("r", [0, 5])
    def test_order_outside_what_keygen_makes(self, keypair, role, r):
        """Keygen makes keys of order 1 <= r < m only (modcode.puncture_plan),
        so a header of RM(0, 5) or RM(5, 5) is refused before the body."""
        save, load = {
            "public": (formats.save_public_key, formats.load_public_key),
            "private": (formats.save_private_key, formats.load_private_key),
        }[role]
        key = keypair.public if role == "public" else keypair.private
        raw = _patched(save(key), 9, struct.pack("<H", r))
        with pytest.raises(formats.FormatError, match="1 <= r < m"):
            load(raw)

    def test_public_key_of_order_m_with_its_empty_body(self):
        # RM(4, 4) has n - k = 0 parity rows, so its public body is empty.
        header = formats._HEADER.pack(formats.KEY_MAGIC, formats.VERSION, formats.ROLE_PUBLIC,
                                      4, 4, 0, 0, 1)
        raw = _patched(header + struct.pack("<I", 0) + bytes(4), 0, b"")
        with pytest.raises(formats.FormatError, match="1 <= r < m"):
            formats.load_public_key(raw)

    def test_public_key_with_puncture_fields(self, keypair):
        import struct

        raw = formats.save_public_key(keypair.public)
        # A public file stores p = 0 and an empty deleted list; a nonzero
        # p, or one deleted entry inserted after the count, is rejected.
        # (_patched with no data only recomputes the CRC.)
        with_p = _patched(raw, 11, struct.pack("<I", 5))
        entry = struct.pack("<II", 1, keypair.public.n - 1)
        with_deleted = _patched(raw[:23] + entry + raw[27:], 0, b"")
        for hostile in (with_p, with_deleted):
            with pytest.raises(formats.FormatError):
                formats.load_public_key(hostile)

    def test_private_keys(self, keypair):
        assert keypair.private.mod.p >= 2
        for label, raw in _hostile_private_keys(keypair).items():
            start = time.monotonic()
            with pytest.raises(formats.FormatError):
                formats.load_private_key(raw)
            assert time.monotonic() - start < 1.0, label

    def test_public_key_shorter_than_its_crc(self, keypair):
        raw = formats.save_public_key(keypair.public)[:3]
        with pytest.raises(formats.FormatError, match="truncated"):
            formats.load_public_key(raw)

    def test_trailing_byte(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        for saved, load in (
            (formats.save_public_key(keypair.public), formats.load_public_key),
            (formats.save_signature(sig, keypair.public.n), formats.load_signature),
        ):
            # One byte appended before the CRC, which _patched recomputes.
            raw = _patched(saved[:-4] + b"\x00" + saved[-4:], 0, b"")
            with pytest.raises(formats.FormatError, match="trailing bytes"):
                load(raw)

    def test_private_key_with_singular_s(self, keypair, toy_keypair):
        """Every F with a zero diagonal stores an invertible S^-1, so a
        singular S cannot be written.  The nearest file sets one diagonal
        bit of F, saved through save_private_key so the digest and CRC
        are valid: only the diagonal check, which reads F's packed rows,
        can reject it.  RM(4,1) has n - k = 11, so its last diagonal bit
        lies in the pad byte of its row; the bit beside a diagonal one is
        no diagonal bit, and loads."""
        for priv, at in ((keypair.private, 1), (toy_keypair.private, 10)):
            size = priv.packed_F.shape[0]
            for row, col, loads in ((at, at, False), (at, at - 1, True)):
                f = np.unpackbits(priv.packed_F, axis=1, count=size)
                f[row, col] = 1
                packed_f = np.packbits(f, axis=1)
                raw = formats.save_private_key(dataclasses.replace(priv, packed_F=packed_f))
                if loads:
                    assert np.array_equal(formats.load_private_key(raw).packed_F, packed_f)
                    continue
                with pytest.raises(formats.FormatError, match="nonzero diagonal"):
                    formats.load_private_key(raw)

    @pytest.mark.parametrize("m,r,w,shape", [(4, 1, 10, (11, 2)), (12, 6, 530, (1586, 199))])
    def test_loaded_F_is_held_as_its_file_stores_it(self, m, r, w, shape):
        """A loaded key holds F as (n-k) x ceil((n-k)/8) read-only packed
        rows, the rows keygen packed, and saves them back as they are."""
        params = scheme.SigningParams(w=w, N=100, t=rmcode.build(m, r).t)
        priv = scheme.keygen(m, r, params, np.random.default_rng(1)).private
        raw = formats.save_private_key(priv)
        loaded = formats.load_private_key(raw)
        assert loaded.packed_F.shape == shape and loaded.packed_F.dtype == np.uint8
        assert not loaded.packed_F.flags.writeable and not priv.packed_F.flags.writeable
        assert np.array_equal(loaded.packed_F, priv.packed_F)
        assert formats.save_private_key(loaded) == raw

    def test_signature_with_huge_length(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = _patched(formats.save_signature(sig, keypair.public.n), 6, b"\xff\xff\xff\xff")
        start = time.monotonic()
        with pytest.raises(formats.FormatError):
            formats.load_signature(raw)
        assert time.monotonic() - start < 1.0


def _resealed(raw: bytes, offset: int, mask: int, mod=None) -> bytes:
    """raw with byte offset XORed by mask, then the private digest (when
    mod is given, over the bytes before it and mod's packed H_m) and the
    CRC recomputed, so only the content checks can reject it."""
    import hashlib

    body = bytearray(raw[:-4])
    body[offset] ^= mask
    if mod is not None:
        body[-32:] = hashlib.sha256(bytes(body[:-32]) + mod.packed_H.tobytes()).digest()
    return _patched(bytes(body) + raw[-4:], 0, b"")


class TestPaddingBits:
    """Every key loader rejects a set padding bit in each packed matrix it
    reads, so every key file that loads saves back to its own bytes."""

    def test_public_matrix(self):
        # n = 4 for m = 2: each row of H' fills half a byte.
        params = scheme.SigningParams(w=1, N=10, t=0)
        pub = scheme.keygen(2, 1, params, np.random.default_rng(0)).public
        raw = formats.save_public_key(pub)
        assert formats.save_public_key(formats.load_public_key(raw)) == raw
        body = len(raw) - 4 - pub.packed_H.size  # H' is the whole body
        for pad in (1, 2, 4, 8):
            with pytest.raises(formats.FormatError, match="padding"):
                formats.load_public_key(_resealed(raw, body, pad))

    def test_private_matrices(self, toy_keypair):
        # RM(1,4): F is 11 x 11 and R is 6 x 10, so the second byte of
        # each row of both holds padding, below masks 0x20 and 0x40.
        priv = toy_keypair.private
        mod = priv.mod
        n, k, p = mod.n, mod.k, mod.p
        assert (n - k) % 8 == 3 and (n - p) % 8 == 2
        raw = formats.save_private_key(priv)
        assert formats.save_private_key(formats.load_private_key(raw)) == raw
        f_at = formats._HEADER.size + 4 + 4 * p
        r_at = f_at + 2 * (n - k) + 4 * n
        hostile = {
            "F, first row": (f_at + 1, 1),
            "F, last row": (f_at + 2 * (n - k) - 1, 0x10),
            "R, first row": (r_at + 1, 1),
            "R, last row": (r_at + 2 * p - 1, 0x20),
        }
        for label, (offset, mask) in hostile.items():
            with pytest.raises(formats.FormatError, match="padding"):
                formats.load_private_key(_resealed(raw, offset, mask, mod))
        # A flipped data bit beside them passes the padding checks and fails
        # only later: R's bits are part of H_m, which the digest covers.
        with pytest.raises(formats.FormatError, match="digest"):
            formats.load_private_key(_resealed(raw, r_at + 1, 0x40, mod))


class TestPackedKeys:
    """A loaded key pair holds H' and H_m as packed rows, as their files do."""

    def test_loaded_pair_holds_packed_rows(self):
        # With the caller holding RM(10,5), a loaded pair keeps packed H'
        # and H_m, (n-k) ceil(n/8) bytes each, packed F, (n-k) ceil((n-k)/8),
        # and n-vectors of int64: sigma and the code's column order.
        # An unpacked H' or H_m alone would add 7/8 of (n-k) n, more than
        # twice the margin.
        code = rmcode.build(10, 5)
        n, k = code.n, code.k
        params = scheme.SigningParams(w=code.t, N=10, t=code.t)
        kp = scheme.keygen(10, 5, params, np.random.default_rng(1))
        pub_raw, sec_raw = formats.save_public_key(kp.public), formats.save_private_key(kp.private)
        del kp
        packed = (n - k) * ((n + 7) // 8)
        held = 2 * packed + (n - k) * ((n - k + 7) // 8) + 2 * 8 * n
        margin = 16 * 1024
        assert 7 * (n - k) * n // 8 > 2 * margin
        tracemalloc.start()
        try:
            pub = formats.load_public_key(pub_raw)
            priv = formats.load_private_key(sec_raw)
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pub.packed_H.nbytes == priv.mod.packed_H.nbytes == packed
        assert held <= current < held + margin


def _keygen_private(m, r, seed):
    t = rmcode.code_dims(m, r)[2]
    params = scheme.SigningParams(w=t, N=1, t=t)
    return scheme.keygen(m, r, params, np.random.default_rng(seed)).private


class TestColumnOrder:
    """A load derives the aligned column order by replaying keygen's
    alignment off the stored punctured points; no file stores it."""

    @pytest.mark.parametrize("m,r,seed", [(6, 3, 0), (8, 4, 0), (10, 5, 7)])
    def test_load_makes_keygen_eliminations(self, m, r, seed, rref_shapes):
        """The eliminations of a load are those of aligning the closed-form
        code on keygen's own (first) puncture plan."""
        priv = _keygen_private(m, r, seed)
        raw = formats.save_private_key(priv)
        plan = modcode.puncture_plan(rmcode.build(m, r), np.random.default_rng(seed))
        rref_shapes.clear()
        aligned, _ = modcode.align_information_set(rmcode.build(m, r), plan.deleted)
        expected = list(rref_shapes)
        assert expected and np.array_equal(aligned.info_perm, priv.mod.info_perm)
        rref_shapes.clear()
        loaded = formats.load_private_key(raw)
        assert rref_shapes == expected
        assert np.array_equal(loaded.mod.H, priv.mod.H)


# Bytes of the key seed 1 private file of each code, by (m, r), as in the README.
SEED_1_PRIVATE_SIZES = {(8, 4): 2_239, (10, 5): 23_205, (12, 6): 333_093}


def _with_points(raw: bytes, points, p=None) -> bytes:
    """The private file raw with its point list replaced by points and p
    set to p (the number of points by default): R becomes p zero rows,
    the digest 32 zero bytes and the CRC is recomputed.  The fields
    after the points are sized from the header, so the file is complete."""
    m, r, old_p = struct.unpack("<HHI", raw[7:15])
    n, k, _t = rmcode.code_dims(m, r)
    p = len(points) if p is None else p
    f_at = 27 + 4 * old_p
    f_and_sigma = raw[f_at : f_at + (n - k) * ((n - k + 7) // 8) + 4 * n]
    body = raw[:11] + struct.pack("<I", p) + raw[15:23] + struct.pack("<I", len(points))
    body += np.asarray(points, dtype="<u4").tobytes() + f_and_sigma
    body += bytes(p * ((n - p + 7) // 8)) + bytes(32)
    return body + struct.pack("<I", zlib.crc32(body))


class TestPuncturedPoints:
    """The private header lists the punctured evaluation points, sorted;
    a load replays keygen's alignment off them."""

    def test_hostile_point_lists(self, keypair):
        """Each file raises FormatError, naming its fault, within 1 s."""
        raw = formats.save_private_key(keypair.private)
        mod = keypair.private.mod
        n, p = mod.n, mod.p
        points = np.sort(mod.info_perm[mod.deleted])
        assert (mod.m, mod.r) == (5, 2) and p >= 2
        repeated, swapped, at_n, above_n = (points.copy() for _ in range(4))
        repeated[1] = repeated[0]
        swapped[[0, 1]] = swapped[[1, 0]]
        at_n[-1], above_n[-1] = n, n + 5
        hostile = {
            "a repeated point": (_with_points(raw, repeated), "increase strictly"),
            "points out of order": (_with_points(raw, swapped), "increase strictly"),
            "a point at n": (_with_points(raw, at_n), "increase strictly"),
            "a point above n": (_with_points(raw, above_n), "increase strictly"),
            "one point more than p": (_with_points(raw, points, p - 1), "does not match p"),
            "one point fewer than p": (_with_points(raw, points[1:], p), "does not match p"),
            # RM(2,5) is self-dual, so the support of one of its minimum-
            # weight words, the 3-flat of points 0-7, holds a dual word:
            # the other 24 columns hold no information set.
            "a 3-flat": (_with_points(raw, np.arange(8)), "no information set"),
            "a version 3 file": (SEARCHED_RM41_PRIVATE_V3, "private key file version 3"),
        }
        for label, (file, fault) in hostile.items():
            start = time.monotonic()
            with pytest.raises(formats.FormatError, match=fault):
                formats.load_private_key(file)
            assert time.monotonic() - start < 1.0, label

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m,r", sorted(SEED_1_PRIVATE_SIZES))
    def test_round_trip(self, m, r, seed):
        """The file stores keygen's points, sorted, and no column order; a
        load of it replays keygen's column order, deletion set and H_m, and
        saves back to the same bytes."""
        priv = _keygen_private(m, r, seed)
        mod = priv.mod
        raw = formats.save_private_key(priv)
        stored = np.frombuffer(raw[27 : 27 + 4 * mod.p], dtype="<u4")
        assert np.array_equal(stored, np.sort(mod.info_perm[mod.deleted]))
        if seed == 1:
            assert len(raw) == SEED_1_PRIVATE_SIZES[m, r]
        loaded = formats.load_private_key(raw)
        assert formats.save_private_key(loaded) == raw
        assert np.array_equal(loaded.mod.info_perm, mod.info_perm)
        assert np.array_equal(loaded.mod.deleted, mod.deleted)
        assert np.array_equal(loaded.mod.packed_H, mod.packed_H)


def _mutants(raw: bytes, seed: int):
    """(offset, file) with each byte before the CRC XORed by two distinct
    seeded masks in turn; the CRC is recomputed, so only the content checks
    can reject it."""
    rng = np.random.default_rng(seed)
    for offset in range(len(raw) - 4):
        for mask in rng.choice(np.arange(1, 256), size=2, replace=False):
            yield offset, _patched(raw, offset, bytes([raw[offset] ^ int(mask)]))


class TestMutationFuzz:
    """Every loader either loads a mutated file or raises FormatError, fast.
    The private key's digest covers every byte before it, so a mutated
    private file never loads."""

    @pytest.mark.parametrize("kind", ["public", "private", "signature"])
    def test_every_byte(self, toy_keypair, kind):
        pub, priv = toy_keypair.public, toy_keypair.private
        sig = scheme.sign(priv, b"fuzz")
        saved, load = {
            "public": (formats.save_public_key(pub), formats.load_public_key),
            "private": (formats.save_private_key(priv), formats.load_private_key),
            "signature": (formats.save_signature(sig, pub.n), formats.load_signature),
        }[kind]
        mutants = 0
        for offset, raw in _mutants(saved, seed=7):
            start = time.monotonic()
            try:
                load(raw)
            except formats.FormatError:  # any other exception fails the test
                pass
            else:
                assert kind != "private", ("a mutated private key loaded", offset)
            assert time.monotonic() - start < 1.0, (kind, offset)
            mutants += 1
        assert mutants == 2 * (len(saved) - 4)


@pytest.fixture(scope="module")
def rm10_files():
    """(file, loader, header length) of each file of the RM(10,5) key seed 1."""
    params = scheme.SigningParams(w=99, N=10_000, t=15)
    kp = scheme.keygen(10, 5, params, np.random.default_rng(1))
    sig = scheme.sign(kp.private, b"fuzz")
    # Fixed fields, then the count of deleted columns and their indices.
    key_header = formats._HEADER.size + 4
    return {
        "public": (formats.save_public_key(kp.public), formats.load_public_key, key_header),
        "private": (
            formats.save_private_key(kp.private),
            formats.load_private_key,
            key_header + 4 * kp.private.mod.p,
        ),
        "signature": (formats.save_signature(sig, kp.public.n), formats.load_signature, 18),
    }


def _sampled_mutants(raw: bytes, header: int, seed: int):
    """(offset, file) for every header byte, 64 seeded offsets after it and
    the four CRC bytes, each byte XORed by a seeded mask.  The CRC is
    recomputed unless the mutated byte is part of it."""
    rng = np.random.default_rng(seed)
    crc = len(raw) - 4
    sampled = np.sort(rng.choice(np.arange(header, crc), size=64, replace=False))
    for offset in [*range(header), *sampled.tolist(), *range(crc, len(raw))]:
        mask = int(rng.integers(1, 256))
        if offset < crc:
            yield offset, _patched(raw, offset, bytes([raw[offset] ^ mask]))
        else:
            yield offset, raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1 :]


class TestMutationFuzzRm10:
    """The mutation fuzz on full-size files, at sampled offsets: a private
    load takes tens of milliseconds, too long to visit all 27 KB."""

    @pytest.mark.parametrize("kind", ["public", "private", "signature"])
    def test_sampled_offsets(self, rm10_files, kind):
        saved, load, header = rm10_files[kind]
        offsets = []
        for offset, raw in _sampled_mutants(saved, header, seed=10):
            start = time.monotonic()
            try:
                load(raw)
            except formats.FormatError:  # any other exception fails the test
                pass
            else:
                assert offset < len(saved) - 4, "a file with a broken CRC loaded"
                assert kind != "private", ("a mutated private key loaded", offset)
            assert time.monotonic() - start < 1.0, (kind, offset)
            offsets.append(offset)
        assert len(set(offsets)) == header + 64 + 4

    def test_edited_s_rejected(self, rm10_files):
        """Bit 0x10 of the sixth byte of the S^-1 factors F flipped, CRC
        recomputed.  That bit lies off the diagonal, so F still stores an
        invertible S^-1; in version 2, where the same edit to S left it
        invertible, a digest of H_m alone let such a file load, and 3 of 8
        of its signatures then failed verify."""
        saved, load, header = rm10_files["private"]
        s_byte = header + 5  # F follows the deleted columns
        raw = _patched(saved, s_byte, bytes([saved[s_byte] ^ 0x10]))
        with pytest.raises(formats.FormatError, match="digest"):
            load(raw)


# Header fields (offset, struct format) that a mutation sets to an extreme
# value: key files as in _HEADER, then the deleted-column count; signature
# files: version, n and the big-endian counter.
KEY_FIELDS = [(4, "<H"), (6, "<B"), (7, "<H"), (9, "<H"), (11, "<I"), (15, "<I"), (19, "<I"),
              (23, "<I")]
SIG_FIELDS = [(4, "<H"), (6, "<I"), (10, ">Q")]


@st.composite
def _mutated_body(draw, body: bytes, fields):
    """(what, offset, body) after one bit flip, one header field set to an
    extreme value of its width, or a truncation of the CRC-less body."""
    what = draw(st.sampled_from(["flip", "field", "truncate"]))
    out = bytearray(body)
    if what == "flip":
        offset = draw(st.integers(0, len(out) - 1))
        out[offset] ^= 1 << draw(st.integers(0, 7))
    elif what == "field":
        offset, fmt = draw(st.sampled_from(fields))
        top = 1 << 8 * struct.calcsize(fmt)
        value = draw(st.sampled_from([0, 1, top // 2 - 1, top // 2, top - 2, top - 1]))
        out[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    else:
        offset = draw(st.integers(0, len(out) - 1))
        del out[offset:]
    return what, offset, bytes(out)


@pytest.fixture(scope="module")
def fuzz_files():
    """(file, load, save, fields, H_m) for each file of one key per code."""
    files = {}
    for m, r in [(4, 1), (5, 2), (6, 3)]:
        n, _k, t = rmcode.code_dims(m, r)
        params = scheme.SigningParams(w=n // 2, N=1000, t=t)
        kp = scheme.keygen(m, r, params, np.random.default_rng(m + r))
        sig = scheme.sign(kp.private, b"property fuzz")
        files[m, r, "public"] = (formats.save_public_key(kp.public), formats.load_public_key,
                                 formats.save_public_key, KEY_FIELDS, None)
        files[m, r, "private"] = (formats.save_private_key(kp.private), formats.load_private_key,
                                  formats.save_private_key, KEY_FIELDS, kp.private.mod.packed_H)
        files[m, r, "signature"] = (formats.save_signature(sig, n), formats.load_signature,
                                    lambda s: formats.save_signature(s, s.e.size), SIG_FIELDS,
                                    None)
    return files


class TestLoaderProperty:
    """Any file one mutation away from a saved one, with the CRC (and, for
    a private key, the digest of every byte before it and H_m) recomputed
    so the content checks decide: the loader raises FormatError or loads a
    value that saves back to exactly the mutated bytes."""

    @pytest.mark.parametrize("kind", ["public", "private", "signature"])
    @pytest.mark.parametrize("m,r", [(4, 1), (5, 2), (6, 3)])
    @settings(derandomize=True, database=None, max_examples=150, deadline=1000)
    @given(data=st.data())
    def test_mutated_file_raises_or_saves_back(self, fuzz_files, m, r, kind, data):
        raw, load, save, fields, packed_h = fuzz_files[m, r, kind]
        what, offset, body = data.draw(_mutated_body(raw[:-4], fields))
        if packed_h is not None and what != "truncate" and offset < len(body) - 32:
            body = body[:-32] + hashlib.sha256(body[:-32] + packed_h.tobytes()).digest()
        mutated = body + struct.pack("<I", zlib.crc32(body))
        try:
            loaded = load(mutated)
        except formats.FormatError:
            return
        assert save(loaded) == mutated, (what, offset)
