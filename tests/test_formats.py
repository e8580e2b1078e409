import dataclasses
import time

import numpy as np
import pytest

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


class TestPrivateKeyFile:
    def test_round_trip_bit_exact(self, keypair):
        raw = formats.save_private_key(keypair.private)
        priv = formats.load_private_key(raw)
        assert np.array_equal(priv.S_inv_factors, keypair.private.S_inv_factors)
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
        # Header and deleted list, F, sigma, R, info_perm, digest, CRC; no P'.
        mod = keypair.private.mod
        n, k, p = mod.n, mod.k, mod.p
        raw = formats.save_private_key(keypair.private)
        rows = (n - k) * ((n - k + 7) // 8) + p * ((n - p + 7) // 8)
        assert len(raw) == 27 + 4 * p + rows + 4 * n + 4 * n + 32 + 4
        assert raw[4:6] == b"\x03\x00"

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
        pub = formats.load_public_key(open(pub_path, "rb").read())
        priv = formats.load_private_key(open(sec_path, "rb").read())
        sig = scheme.sign(priv, b"file trip")
        assert scheme.verify(pub, b"file trip", sig)


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
    perm_at = sigma_at + 4 * n + p * ((n - p + 7) // 8)
    info_perm = keypair.private.mod.info_perm
    return {
        "huge m and r": _patched(raw, *HUGE_CODE),
        "r above m": _patched(raw, 7, struct.pack("<HH", 5, 6)),
        "w below t": _patched(raw, 15, struct.pack("<I", 1)),
        "N of zero": _patched(raw, 19, struct.pack("<I", 0)),
        "deleted column in the information part": _patched(
            raw, deleted_at, struct.pack("<I", k - 1)),
        "deleted columns out of order": _patched(
            raw, deleted_at, struct.pack("<II", mod.deleted[1], mod.deleted[0])),
        "deleted column past n": _patched(
            raw, deleted_at + 4 * (p - 1), struct.pack("<I", n)),
        "sigma repeats an index": _patched(raw, sigma_at + 4, struct.pack("<I", sigma[0])),
        "F has two equal rows": _patched(raw, f_at + f_row, raw[f_at : f_at + f_row]),
        "F has a diagonal bit set": _patched(raw, f_at, bytes([raw[f_at] | 0x80])),
        "info_perm repeats an index": _patched(raw, perm_at + 4, struct.pack("<I", info_perm[0])),
        # On RM(2,5) the first k = 16 points span only RM(2,4), of dimension 11.
        "info_perm head is no information set": _patched(
            raw, perm_at, np.arange(n, dtype="<u4").tobytes()),
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

    def test_private_key_with_singular_s(self, keypair):
        """Every F with a zero diagonal stores an invertible S^-1, so a
        singular S cannot be written.  The nearest file sets one diagonal
        bit of F, saved through save_private_key so the digest and CRC
        are valid: only the diagonal check can reject it."""
        f = keypair.private.S_inv_factors.copy()
        f[1, 1] = 1
        raw = formats.save_private_key(dataclasses.replace(keypair.private, S_inv_factors=f))
        with pytest.raises(formats.FormatError, match="nonzero diagonal"):
            formats.load_private_key(raw)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_private_key_in_a_random_column_order(self, seed):
        """An RM(10,5) key stored in a random column order moves about half
        the information set.  Its digest is valid, so it loads, or is
        rejected for a head that is no information set, within a second."""
        params = scheme.SigningParams(w=99, N=100, t=15)
        priv = scheme.keygen(10, 5, params, np.random.default_rng(3)).private
        order = np.random.default_rng(seed).permutation(priv.mod.n)
        try:
            base = rmcode.build_with_perm(10, 5, order)
        except gf2.RankError:
            mod = dataclasses.replace(priv.mod, info_perm=order)  # saved as is
        else:
            mod = modcode.assemble_modified(base, priv.mod.deleted, priv.mod.R)
        raw = formats.save_private_key(dataclasses.replace(priv, mod=mod))
        start = time.monotonic()
        try:
            loaded = formats.load_private_key(raw)
        except formats.FormatError as err:
            assert "info_perm" in str(err)
        else:
            assert np.array_equal(loaded.mod.H, mod.H)
        assert time.monotonic() - start < 1.0

    def test_signature_with_huge_length(self, keypair):
        sig = scheme.sign(keypair.private, b"message")
        raw = _patched(formats.save_signature(sig, keypair.public.n), 6, b"\xff\xff\xff\xff")
        start = time.monotonic()
        with pytest.raises(formats.FormatError):
            formats.load_signature(raw)
        assert time.monotonic() - start < 1.0


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
