import dataclasses
import functools
import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rmsig import analysis, decoder, formats, gf2, modcode, rmcode, scheme

import reference
from reference import modified_generator, perm_matrix, vec_product


def trials(priv, message, limit):
    """Yield (i, s', e') for counters 1..limit, one signing trial per call."""
    inner = hashlib.shake_256(message).digest(32)
    for i in range(1, limit + 1):
        s_primes, e_primes = scheme._trials(priv, inner, i, 1)
        yield i, s_primes[0], e_primes[0]


class TestHashToSyndrome:
    def test_deterministic(self):
        a = scheme.hash_to_syndrome(b"message", 3, 100)
        b = scheme.hash_to_syndrome(b"message", 3, 100)
        assert np.array_equal(a, b)

    def test_counter_changes_output(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            i = int(rng.integers(1, 1 << 40))
            a = scheme.hash_to_syndrome(b"m", i, 64)
            b = scheme.hash_to_syndrome(b"m", i + 1, 64)
            assert not np.array_equal(a, b)

    def test_length_contract(self):
        s = scheme.hash_to_syndrome(b"x", 1, 386)
        assert s.shape == (386,)
        assert set(np.unique(s)) <= {0, 1}

    def test_bit_order_msb_first(self):
        import hashlib

        inner = hashlib.shake_256(b"m").digest(32)
        stream = hashlib.shake_256(inner + (7).to_bytes(8, "big")).digest(2)
        s = scheme.hash_to_syndrome(b"m", 7, 12)
        expect = [(stream[j // 8] >> (7 - j % 8)) & 1 for j in range(12)]
        assert s.tolist() == expect

    def test_counter_must_be_positive(self):
        with pytest.raises(ValueError):
            scheme.hash_to_syndrome(b"m", 0, 16)
        # The counter is hashed as 8 bytes, so 2**64 is out of range too.
        with pytest.raises(ValueError):
            scheme.hash_to_syndrome(b"m", 2**64, 16)

    # 386 and 1586 are n - k of RM(10,5) and RM(12,6).
    @pytest.mark.parametrize("out_bits", [1, 12, 64, 386, 1586])
    def test_counter_range_matches_one_at_a_time(self, out_bits):
        inner = hashlib.shake_256(b"range").digest(32)

        def spelled_out(i):
            stream = hashlib.shake_256(inner + i.to_bytes(8, "big")).digest(2 + out_bits // 8)
            return np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:out_bits]

        def unpacked(first, count):
            stream = scheme._syndrome_from_digest(inner, first, count, out_bits)
            assert len(stream) == count * ((out_bits + 7) // 8)
            packed = np.frombuffer(stream, dtype=np.uint8).reshape(count, -1)
            # Every row's pad bits, past out_bits, are zero.
            assert not np.unpackbits(packed, axis=1)[:, out_bits:].any()
            return np.unpackbits(packed, axis=1, count=out_bits)

        rows = unpacked(5, 300)
        assert rows.shape == (300, out_bits) and rows.dtype == np.uint8
        for j, i in enumerate(range(5, 305)):
            assert np.array_equal(rows[j], spelled_out(i))
        for i in (5, 6, 7, 2**64 - 1):
            expect = spelled_out(i)
            got = scheme.hash_to_syndrome(b"range", i, out_bits)
            assert got.shape == (out_bits,) and got.dtype == np.uint8
            assert np.array_equal(got, expect)
            assert np.array_equal(unpacked(i, 1)[0], expect)


class TestSigningParams:
    def test_w_below_t_rejected(self):
        with pytest.raises(ValueError):
            scheme.SigningParams(w=2, N=10, t=3)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            scheme.SigningParams(w=5, N=0, t=3)

    def test_w_and_n_fit_the_key_files_u32(self):
        top = 2**32 - 1
        params = scheme.SigningParams(w=top, N=top, t=3)
        kp = scheme.keygen(4, 1, params, np.random.default_rng(1))
        assert formats.load_public_key(formats.save_public_key(kp.public)).params == params
        assert formats.load_private_key(formats.save_private_key(kp.private)).params == params
        for w, n in [(top + 1, 10), (5, top + 1)]:
            with pytest.raises(ValueError, match="2\\*\\*32 - 1"):
                scheme.SigningParams(w=w, N=n, t=3)


class TestKeygen:
    def test_rm41_shapes_and_identity(self):
        params = scheme.SigningParams(w=8, N=50, t=3)
        kp = scheme.keygen(4, 1, params, np.random.default_rng(7))
        assert kp.public.H.shape == (11, 16)
        q = perm_matrix(kp.private.sigma)
        # H' = S @ H_m @ Q, checked as S^-1 @ H' = H_m @ Q.
        descrambled = gf2.mat_mul(kp.private.S_inv, kp.public.H)
        assert np.array_equal(descrambled, gf2.mat_mul(kp.private.mod.H, q))

    def test_deterministic(self):
        params = scheme.SigningParams(w=8, N=50, t=3)
        a = scheme.keygen(4, 1, params, np.random.default_rng(3))
        b = scheme.keygen(4, 1, params, np.random.default_rng(3))
        assert np.array_equal(a.public.H, b.public.H)
        assert np.array_equal(a.private.packed_F, b.private.packed_F)
        assert np.array_equal(a.private.sigma, b.private.sigma)
        assert np.array_equal(a.private.mod.R, b.private.mod.R)

    def test_rm10_5_shape(self):
        params = scheme.SigningParams(w=97, N=10000, t=15)
        kp = scheme.keygen(10, 5, params, np.random.default_rng(0))
        assert kp.public.H.shape == (386, 1024)

    def test_r_equal_to_m_fails_on_its_first_plan(self, monkeypatch):
        """RM(3,3) has no parity part to puncture, so its first plan
        raises and keygen draws no other."""
        plans = []

        def counted(code, rng):
            plans.append(code)
            return modcode.puncture_plan(code, rng)

        monkeypatch.setattr(scheme, "puncture_plan", counted)
        params = scheme.SigningParams(w=1, N=10, t=0)
        with pytest.raises(ValueError, match="r < m") as err:
            scheme.keygen(3, 3, params, np.random.default_rng(0))
        assert not isinstance(err.value, gf2.RankError)
        assert len(plans) == 1

    def test_t_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scheme.keygen(4, 1, scheme.SigningParams(w=8, N=50, t=2), np.random.default_rng(0))

    # SHA-256 of the public and private key files (w = max(t, 2), N = 100)
    # of keys (m, r, seed) whose first `redraws` puncture plans delete all
    # of supp(x), recorded while keygen still caught the RankError of such
    # plans.
    RESAMPLED = {
        (4, 1, 4, 1): (
            "2a380bc5daf862d935758523628afea250b02107293a98cc9edf3f60fa7aa39c",
            "ee41e07bcd59d8ee5b62b2c4854da0d4fe2b37518d68feae5c392160da4f4f38",
        ),
        (4, 1, 22, 3): (
            "81f6cb2e153c2640308bdd8971ba4f18467cde554382ab36307cdfe4b30dcc01",
            "9028959ee282d5ed21e00f57e767e8c92f28bb0575985d008c83ccfd08ad7c0a",
        ),
        (4, 3, 10, 7): (
            "d71afcc249e35ebb35c4aba259f6a33defec80e774502774732a01b1c5ee003e",
            "fc10a76561a08b3fc840c8223cbbf665c947a0ac025af2723d7dbbda2eaa22cb",
        ),
        (4, 3, 27, 10): (
            "017ac07872180b8abb2a18b3ec76b78aff40ad033abba2be20581e39f69ab397",
            "c80f4d62507fa9c3871f0a7eff29c2e51c77bcae903b688f55ac979b76a14828",
        ),
        (5, 4, 8, 5): (
            "e64e3b828a1e302fa5c88694c7e8a94861eebfb7dfb0b6af4d94322783de5067",
            "a8eb8bd55b8289c123c6b5cdc79b6adc3324628089d043001ed2688cc88c4c6b",
        ),
    }

    @pytest.mark.parametrize("m,r,seed,redraws", list(RESAMPLED))
    def test_resampled_plan_gives_the_same_key(self, m, r, seed, redraws):
        """Keygen redraws each plan with p = d, which alone has no
        alignment, and draws R only after the first plan with p < d, so
        the key files keep their recorded bytes."""
        code = rmcode.build(m, r)
        rng = np.random.default_rng(seed)
        for _ in range(redraws):
            plan = modcode.puncture_plan(code, rng)
            assert plan.p == code.d
            with pytest.raises(gf2.RankError):
                modcode.align_information_set(code, plan.deleted)
        plan = modcode.puncture_plan(code, rng)
        assert plan.p < code.d
        modcode.align_information_set(code, plan.deleted)
        params = scheme.SigningParams(w=max(code.t, 2), N=100, t=code.t)
        kp = scheme.keygen(m, r, params, np.random.default_rng(seed))
        digests = tuple(
            hashlib.sha256(raw).hexdigest()
            for raw in (formats.save_public_key(kp.public), formats.save_private_key(kp.private))
        )
        assert digests == self.RESAMPLED[m, r, seed, redraws]

    def test_survives_forty_whole_support_plans(self, monkeypatch):
        """Keygen has no cap on redraws: after 40 plans that delete all of
        supp(x) it takes the next, and the key is the one its rng gives
        with no such plan in the way."""
        code = rmcode.build(4, 3)
        whole = modcode.puncture_plan(code, np.random.default_rng(4))
        assert whole.p == code.d
        calls = []

        def whole_first(code, rng):
            calls.append(code)
            if len(calls) <= 40:
                return whole
            return modcode.puncture_plan(code, rng)

        params = scheme.SigningParams(w=2, N=100, t=0)
        expected = scheme.keygen(4, 3, params, np.random.default_rng(5))
        monkeypatch.setattr(scheme, "puncture_plan", whole_first)
        kp = scheme.keygen(4, 3, params, np.random.default_rng(5))
        assert len(calls) == 41
        assert formats.save_public_key(kp.public) == formats.save_public_key(expected.public)
        assert formats.save_private_key(kp.private) == formats.save_private_key(expected.private)

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 2), (5, 2), (6, 3), (8, 4), (10, 5), (10, 4)])
    def test_small_keygens_consistent(self, m, r):
        code_t = ((1 << (m - r)) - 1) // 2
        params = scheme.SigningParams(w=1 << m, N=10, t=code_t)
        for seed in range(5):
            kp = scheme.keygen(m, r, params, np.random.default_rng(seed))
            mod = kp.private.mod
            assert not gf2.mat_mul(modified_generator(mod), mod.H.T).any()
            q = perm_matrix(kp.private.sigma)
            descrambled = gf2.mat_mul(kp.private.S_inv, kp.public.H)
            assert np.array_equal(descrambled, gf2.mat_mul(mod.H, q))


    KEY_SIZES = [(m, r) for m in range(3, 9) for r in range(1, m)]
    KEY_SEEDS = (1, 2, 3)

    @pytest.mark.parametrize("m,r", KEY_SIZES)
    def test_matches_reference_keygen(self, m, r):
        """The key files are those of reference.keygen, which draws the
        factors bit by bit, cuts them with np.tril and np.triu, inverts
        them by Gauss-Jordan and forms H' = L U H_m Q unpacked, and the
        generator ends in the same state, at every RM(r, m) with
        3 <= m <= 8 and 1 <= r < m; H_m's identity block holds p rows of R."""
        code_t = ((1 << (m - r)) - 1) // 2
        params = scheme.SigningParams(w=max(code_t, 1), N=10, t=code_t)
        for seed in self.KEY_SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            kp = scheme.keygen(m, r, params, ours)
            mod, h_pub, f, sigma = reference.keygen(m, r, theirs)
            public = scheme.PublicKey(m=m, r=r, packed_H=np.packbits(h_pub, axis=1), params=params)
            private = scheme.PrivateKey(
                packed_F=np.packbits(f, axis=1), sigma=sigma, mod=mod, params=params
            )
            assert formats.save_public_key(kp.public) == formats.save_public_key(public)
            assert formats.save_private_key(kp.private) == formats.save_private_key(private)
            np.testing.assert_equal(
                reference.generator_state(ours), reference.generator_state(theirs)
            )

    def test_reference_keygen_covers_wide_corrections(self):
        """The rank-p correction of U B runs with more than one row in
        most keys of test_matches_reference_keygen: keygen's p is that of
        its first puncture plan with p < d."""
        ps = []
        for m, r in self.KEY_SIZES:
            code = rmcode.build(m, r)
            for seed in self.KEY_SEEDS:
                rng = np.random.default_rng(seed)
                plan = modcode.puncture_plan(code, rng)
                while plan.p == code.d:
                    plan = modcode.puncture_plan(code, rng)
                ps.append(plan.p)
        assert sum(p >= 2 for p in ps) > len(ps) // 2 and max(ps) >= 16, ps

    def test_keygen_and_s_inv_memory(self):
        """On RM(6,12), keygen's traced peak stays below 10 MiB, and the
        formation of S^-1, its unpacked 2.4 MiB included, below 6 MiB:
        no step unpacks an (n-k) x (n-k) factor beside S_inv."""
        code = rmcode.build(12, 6)
        params = scheme.SigningParams(w=530, N=10, t=code.t)
        scheme.keygen(12, 6, params, np.random.default_rng(1))  # builds the cached tables
        tracemalloc.start()
        try:
            kp = scheme.keygen(12, 6, params, np.random.default_rng(1))
            keygen_peak = tracemalloc.get_traced_memory()[1]
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            s_inv = kp.private.S_inv
            s_inv_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert s_inv.shape == (1586, 1586)
        assert keygen_peak < 10 * 2**20, keygen_peak
        assert s_inv_peak < 6 * 2**20, s_inv_peak

    def test_s_inv_is_cached_once(self):
        """After a signature a private key caches S^-1 once, unpacked
        (S_inv), beside the table of its transpose that signing reads,
        packed from S_inv's columns; it keeps no packed copy of S^-1."""
        params = scheme.SigningParams(w=12, N=200, t=3)
        priv = scheme.keygen(5, 2, params, np.random.default_rng(21)).private
        assert isinstance(scheme.sign(priv, b"message"), scheme.Signature)
        fields = {field.name for field in dataclasses.fields(priv)}
        assert set(vars(priv)) - fields == {"S_inv", "_S_inv_T_table", "_sign_history"}
        n = priv.S_inv.shape[0]
        rows = priv._S_inv_T_table._rows.view(np.uint8)
        assert priv._S_inv_T_table.shape == (n, n)
        assert np.array_equal(rows[:n, : (n + 7) // 8], np.packbits(priv.S_inv.T, axis=1))
        assert not rows[n:].any() and not rows[:, (n + 7) // 8 :].any()


def test_no_program_path_builds_the_parity_check(monkeypatch):
    """Every check matrix, the code's H, H_m and the public key's H', is
    unpacked from its packed rows on every read (rmcode.CheckMatrix).
    With CheckMatrix.H raising, keygen, save/load, sign, verify and
    calibrate run: only tests and the benchmark's oracle read an H.
    Each read is also recorded, in case a caller catches the error."""
    reads = []

    def unread(holder):
        reads.append(holder)
        raise AssertionError(f"{type(holder).__name__}.H read")

    plain = rmcode.build(5, 2)
    with monkeypatch.context() as patch:
        patch.setattr(rmcode.CheckMatrix, "H", property(unread))
        params = scheme.SigningParams(w=12, N=100, t=3)
        kp = scheme.keygen(5, 2, params, np.random.default_rng(21))
        pub = formats.load_public_key(formats.save_public_key(kp.public))
        loaded = formats.load_private_key(formats.save_private_key(kp.private))
        for priv in (kp.private, loaded):
            sig = scheme.sign(priv, b"no parity check")
            assert scheme.verify(pub, b"no parity check", sig)
            analysis.calibrate(priv.mod, 2000, np.random.default_rng(0))
        analysis.calibrate(plain, 2000, np.random.default_rng(1))
        assert reads == []
        with pytest.raises(AssertionError, match="RmCode.H read"):
            plain.H
        assert reads == [plain]
    assert plain.H.shape == (plain.n - plain.k, plain.n) and "H" not in vars(plain)


class TestPackedCheckMatrices:
    """Keys hold H' and H_m as packed rows, as their files do; their H
    unpacks them on every read, for the benchmark's oracle and tests,
    and no signing or verifying path reads it."""

    def test_H_is_a_fresh_unpacking(self, toy_keypair):
        pub, priv = toy_keypair.public, toy_keypair.private
        loaded_pub = formats.load_public_key(formats.save_public_key(pub))
        loaded = formats.load_private_key(formats.save_private_key(priv))
        for holder in (pub, priv.mod, loaded_pub, loaded.mod):
            packed = holder.packed_H
            assert packed.shape == (holder.n - 5, (holder.n + 7) // 8)  # k = 5
            assert not packed.flags.writeable
        for holder in (pub, priv.mod, loaded_pub, loaded.mod):
            h, packed = holder.H, holder.packed_H.copy()
            assert np.array_equal(h, np.unpackbits(packed, axis=1, count=holder.n))
            assert np.array_equal(h, holder.H) and h is not holder.H
            # A write to one read reaches neither packed_H nor the next read.
            h[0, 0] ^= 1
            assert np.array_equal(holder.packed_H, packed)
            assert holder.H[0, 0] != h[0, 0]

    def test_R_is_a_fresh_unpacking(self, toy_keypair):
        priv = toy_keypair.private
        loaded = formats.load_private_key(formats.save_private_key(priv))
        for mod in (priv.mod, loaded.mod):
            n, k, p = mod.n, mod.k, mod.p
            block, packed = mod.R, mod.packed_H.copy()
            bits = np.unpackbits(packed, axis=1, count=n)
            assert np.array_equal(block, bits[n - k - p :, : n - p])
            assert np.array_equal(block, mod.R) and block is not mod.R
            assert "R" not in vars(mod)
            # A write to one read reaches neither packed_H nor the next read.
            block[0, 0] ^= 1
            assert np.array_equal(mod.packed_H, packed)
            assert mod.R[0, 0] != block[0, 0]

    def test_hot_paths_allocate_less_than_one_packed_matrix(self):
        """verify and the check of one decoded error, after a first
        signature built their tables, on RM(10,5): less than the 49 KB
        of one packed check matrix, so neither unpacks one (395 KB)."""
        params = scheme.SigningParams(w=99, N=10_000, t=15)
        kp = scheme.keygen(10, 5, params, np.random.default_rng(1))
        pub, priv = kp.public, kp.private
        message = b"packed rows"
        sig = scheme.sign(priv, message)
        assert scheme.verify(pub, message, sig)
        e_prime = sig.e[priv.sigma]
        syndrome = scheme.hash_to_syndrome(message, sig.i, priv.mod.n - priv.mod.k)
        s_prime = vec_product(priv.S_inv, syndrome)
        calls = {
            "verify": lambda: scheme.verify(pub, message, sig),
            "check_leaders": lambda: decoder.check_leaders(priv.mod, e_prime, s_prime),
        }
        allocated = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                allocated[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert max(allocated.values()) < pub.packed_H.nbytes == priv.mod.packed_H.nbytes, allocated
        assert "H" not in vars(pub) and "H" not in vars(priv.mod)

    def test_reading_H_allocates_only_H(self):
        """Reading H on an RM(6,12) code, its modified code and its public
        key peaks below 1.1 times H's own bytes (6.5 MB): one unpacking
        of the packed rows, with no temporary beside it."""
        code = rmcode.build(12, 6)
        params = scheme.SigningParams(w=530, N=10, t=code.t)
        kp = scheme.keygen(12, 6, params, np.random.default_rng(1))
        for holder in (code, kp.private.mod, kp.public):
            tracemalloc.start()
            try:
                h = holder.H
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert h.shape == (holder.n - holder.k, holder.n) == (1586, 4096)
            assert peak < 1.1 * h.nbytes, (type(holder).__name__, peak)


class TestIdentityEquality:
    """The classes that hold arrays compare and hash by identity: a
    field-wise == would raise on two equal but distinct objects, and
    hash on any."""

    def test_equal_copies_are_distinct_and_hash(self, toy_keypair):
        pub, priv = toy_keypair.public, toy_keypair.private
        sig = scheme.sign(priv, b"identity")
        for obj in (rmcode.build(4, 1), priv.mod, pub, priv, sig):
            twin = dataclasses.replace(obj)
            assert obj == obj and not obj != obj
            assert obj != twin and not obj == twin
            assert hash(obj) == hash(obj)
            assert len({obj, twin, obj}) == 2


class TestSignVerify:
    def test_round_trip_100_messages(self, toy_keypair):
        rng = np.random.default_rng(11)
        for _ in range(100):
            msg = rng.bytes(rng.integers(0, 64))
            sig = scheme.sign(toy_keypair.private, msg)
            assert isinstance(sig, scheme.Signature)
            assert int(sig.e.sum()) <= toy_keypair.public.params.w
            assert scheme.verify(toy_keypair.public, msg, sig)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rm_m_minus_1_round_trip(self, m):
        # RM(m-1, m) has n-k = 1 and punctures that one parity column.
        params = scheme.SigningParams(w=1, N=50, t=0)
        for seed in range(3):
            kp = scheme.keygen(m, m - 1, params, np.random.default_rng(seed))
            assert kp.private.mod.kept_cols.size == 0
            sig = scheme.sign(kp.private, b"one parity bit")
            assert isinstance(sig, scheme.Signature)
            assert scheme.verify(kp.public, b"one parity bit", sig)

    def test_vacuous_weight_bound_succeeds_at_i1(self):
        params = scheme.SigningParams(w=16, N=5, t=3)
        kp = scheme.keygen(4, 1, params, np.random.default_rng(2))
        sig = scheme.sign(kp.private, b"anything")
        assert isinstance(sig, scheme.Signature) and sig.i == 1

    def test_signature_syndrome_identity(self, toy_keypair):
        pub = toy_keypair.public
        sig = scheme.sign(toy_keypair.private, b"check me")
        s = scheme.hash_to_syndrome(b"check me", sig.i, pub.H.shape[0])
        assert np.array_equal(vec_product(pub.H, sig.e), s)

    def test_trial_identity_h_mod_e_equals_s(self, toy_keypair):
        # Every trial, successful or not, satisfies H_m e' = s'.
        priv = toy_keypair.private
        for i, s_prime, e_prime in trials(priv, b"trials", 20):
            assert np.array_equal(vec_product(priv.mod.H, e_prime), s_prime)

    def test_batch_matches_reference_trials(self, toy_keypair):
        priv = toy_keypair.private
        inner_sig = scheme.sign(priv, b"batch equivalence")
        w = priv.params.w
        for i, _s, e_prime in trials(priv, b"batch equivalence", priv.params.N):
            if int(e_prime.sum()) <= w:
                assert inner_sig.i == i
                e = np.empty_like(e_prime)
                e[priv.sigma] = e_prime
                assert np.array_equal(e, inner_sig.e)
                break

    def test_weight_preserved_by_permutation(self, toy_keypair):
        priv = toy_keypair.private
        sig = scheme.sign(priv, b"weights")
        for i, _s, e_prime in trials(priv, b"weights", sig.i):
            if i == sig.i:
                assert int(e_prime.sum()) == int(sig.e.sum())

    def test_counter_minimality(self, toy_keypair):
        priv = toy_keypair.private
        sig = scheme.sign(priv, b"minimal counter")
        w = priv.params.w
        for i, _s, e_prime in trials(priv, b"minimal counter", sig.i):
            if i < sig.i:
                assert int(e_prime.sum()) > w

    def test_exhausted_is_result_not_exception(self):
        # Weight bound t is far below what decoding achieves at this size.
        params = scheme.SigningParams(w=7, N=8, t=7)
        kp = scheme.keygen(6, 2, params, np.random.default_rng(9))
        out = scheme.sign(kp.private, b"no luck")
        assert isinstance(out, scheme.SigningExhausted)
        assert out.trials == 8
        assert out.best_weight > 7

    def test_exhausted_after_uneven_batches(self):
        # 509 trials run as batches of 16, 64, 256 and a cut-short 173, so
        # the count and the best weight must not depend on the batch sizes;
        # the best trial is counter 217, in the third batch, not the last.
        params = scheme.SigningParams(w=7, N=509, t=7)
        kp = scheme.keygen(6, 2, params, np.random.default_rng(36))
        out = scheme.sign(kp.private, b"no luck")
        assert isinstance(out, scheme.SigningExhausted)
        assert out.trials == 509
        weights = [int(e.sum()) for _i, _s, e in trials(kp.private, b"no luck", 509)]
        assert out.best_weight == min(weights) < min(weights[448:])

    def test_verify_rejects_tampered_bit(self, toy_keypair):
        rng = np.random.default_rng(13)
        rejected = 0
        total = 100
        for _ in range(total):
            msg = rng.bytes(16)
            sig = scheme.sign(toy_keypair.private, msg)
            e = sig.e.copy()
            e[rng.integers(0, e.size)] ^= 1
            if not scheme.verify(toy_keypair.public, msg, scheme.Signature(e=e, i=sig.i)):
                rejected += 1
        assert rejected >= 99

    def test_verify_rejects_overweight(self, toy_keypair):
        pub = toy_keypair.public
        sig = scheme.sign(toy_keypair.private, b"weight gate")
        e = sig.e.copy()
        zeros = np.flatnonzero(e == 0)
        e[zeros[: pub.params.w + 1 - int(e.sum())]] = 1
        # Same counter, heavier vector: the weight gate alone must reject.
        assert int(e.sum()) == pub.params.w + 1
        assert not scheme.verify(pub, b"weight gate", scheme.Signature(e=e, i=sig.i))

    def test_verify_rejects_malformed_lengths(self, toy_keypair):
        pub = toy_keypair.public
        assert not scheme.verify(pub, b"m", scheme.Signature(e=np.zeros(7, dtype=np.uint8), i=1))
        assert not scheme.verify(pub, b"m", scheme.Signature(e=np.zeros(16, dtype=np.uint8), i=0))

    def test_wrong_message_rejects(self, toy_keypair):
        sig = scheme.sign(toy_keypair.private, b"right message")
        assert not scheme.verify(toy_keypair.public, b"wrong message", sig)

    @pytest.mark.parametrize(
        "form",
        [
            "one 1 stored as 257 in int64",
            "one 1 stored as -1 in int8",
            "float vector plus 0.5",
            "counter 2**64",
        ],
    )
    def test_verify_rejects_non_binary_or_out_of_range(self, toy_keypair, form):
        # Each form wraps back to the valid signature under a uint8 cast,
        # a reduction mod 2 or rounding, so only a strict check rejects it;
        # none may raise.
        pub = toy_keypair.public
        sig = scheme.sign(toy_keypair.private, b"strict")
        assert scheme.verify(pub, b"strict", sig)
        e, i = sig.e, sig.i
        if form == "one 1 stored as 257 in int64":
            e = sig.e.astype(np.int64)
            e[np.flatnonzero(e)[0]] = 257
        elif form == "one 1 stored as -1 in int8":
            e = sig.e.astype(np.int8)
            e[np.flatnonzero(e)[0]] = -1
        elif form == "float vector plus 0.5":
            e = sig.e + 0.5
        else:
            i = 2**64
        assert scheme.verify(pub, b"strict", scheme.Signature(e=e, i=i)) is False


def naive_verify(pub, message, e, i):
    """The verify predicate written out: e a bool or integer vector of
    length n with entries in {0, 1} and weight <= w, i an integer in
    [1, 2**64), and H' e = h(h(M)|i) by the plain column-sum product."""
    if not isinstance(i, (int, np.integer)) or not 1 <= int(i) < 2**64:
        return False
    if e.dtype.kind not in "biu" or e.shape != (pub.n,):
        return False
    if not set(np.unique(e).tolist()) <= {0, 1} or int(e.sum()) > pub.params.w:
        return False
    expected = scheme.hash_to_syndrome(message, int(i), pub.H.shape[0])
    return bool(np.array_equal(vec_product(pub.H, e.astype(np.uint8)), expected))


@pytest.fixture(scope="module")
def rm36_keypair():
    """RM(3,6) key that signs in one to three trials."""
    params = scheme.SigningParams(w=7, N=100, t=3)
    return scheme.keygen(6, 3, params, np.random.default_rng(5))


# (m, r, w, t) at N = 300: mean counters of about 105 and 116, so 40
# messages meet counters below 16 and above 256, and an exhausted run.
BATCH_KEYS = {"rm36": (6, 3, 3, 3), "rm48": (8, 4, 19, 7)}
BATCH_MESSAGES = [b"first batch %d" % j for j in range(40)]


def make_batch_key(name):
    m, r, w, t = BATCH_KEYS[name]
    params = scheme.SigningParams(w=w, N=300, t=t)
    return scheme.keygen(m, r, params, np.random.default_rng(1)).private


@pytest.fixture(scope="module", params=sorted(BATCH_KEYS))
def batch_key(request):
    return make_batch_key(request.param)


@pytest.fixture
def batches(monkeypatch):
    """The count of every scheme._trials call while the test runs."""
    counts = []
    real = scheme._trials

    def recording(priv, inner, first, count):
        counts.append(count)
        return real(priv, inner, first, count)

    monkeypatch.setattr(scheme, "_trials", recording)
    return counts


def counter(res, limit=300):
    """The last counter sign evaluates for res: N if exhausted."""
    return res.i if isinstance(res, scheme.Signature) else limit


def planned_batches(res, start, limit=300):
    """The batch counts sign evaluates to reach res from a first batch of
    start: quadrupled after each miss up to 256, the last one cut short at
    the trial limit."""
    plan = []
    while sum(plan) < counter(res, limit):
        plan.append(min(start << 2 * len(plan), 256, limit - sum(plan)))
    return plan


def ladder(counters):
    """The smallest of 1, 4, 16, 64, 256 at least the mean of counters, else 256."""
    return next(b for b in (1, 4, 16, 64, 256) if b * len(counters) >= sum(counters) or b == 256)


def fresh(priv):
    """The same key material with no signing history."""
    return dataclasses.replace(priv)


def same_result(a, b):
    if isinstance(a, scheme.Signature):
        return (
            isinstance(b, scheme.Signature)
            and a.i == b.i
            and a.e.dtype == b.e.dtype
            and a.e.tobytes() == b.e.tobytes()
        )
    return a == b


class TestSignBatches:
    """sign starts at 16 on a key with no history, else at the ladder value
    of its past counters' mean, and quadruples up to 256 after each miss."""

    def test_batches_grow_from_16(self, batch_key, batches):
        # A bound two above the key's own on the same code gives short
        # counters, down to 1.
        params = batch_key.params
        wider = dataclasses.replace(batch_key, params=dataclasses.replace(params, w=params.w + 2))
        lengths, exhausted, starts = set(), 0, set()
        for key in (batch_key, wider):
            # A fresh key per message: every signature starts at 16.
            results = []
            for msg in BATCH_MESSAGES:
                batches.clear()
                res = scheme.sign(fresh(key), msg)
                assert batches == planned_batches(res, 16), msg
                results.append(res)
                lengths.add(len(batches))
                exhausted += isinstance(res, scheme.SigningExhausted)

            # After one signature of known counter, the next starts at the
            # ladder value of that counter: 256 after an exhausted one.
            for j, msg in enumerate(BATCH_MESSAGES):
                one = fresh(key)
                assert same_result(scheme.sign(one, BATCH_MESSAGES[j - 1]), results[j - 1])
                batches.clear()
                res = scheme.sign(one, msg)
                start = ladder([counter(results[j - 1])])
                assert batches == planned_batches(res, start), msg
                assert same_result(res, results[j]), msg
                starts.add(start)
                if isinstance(results[j - 1], scheme.SigningExhausted):
                    assert start == 256

            # One key signing every message in turn starts each at the
            # ladder value of the mean over all its past signatures.
            one, past = fresh(key), []
            for msg, ref in zip(BATCH_MESSAGES, results):
                batches.clear()
                res = scheme.sign(one, msg)
                assert batches == planned_batches(res, ladder(past) if past else 16), msg
                assert same_result(res, ref), msg
                past.append(counter(res))
        # Counters within each of the three batches that N = 300 allows
        # occur, and an exhausted run, and every ladder value.
        assert lengths == {1, 2, 3} and exhausted >= 1
        assert starts == {1, 4, 16, 64, 256}

    def test_history_does_not_change_results(self, batch_key):
        reference = [scheme.sign(fresh(batch_key), msg) for msg in BATCH_MESSAGES]
        key = fresh(batch_key)
        for msg in reversed(BATCH_MESSAGES):
            scheme.sign(key, msg)
        for msg, ref in zip(BATCH_MESSAGES, reference):
            assert same_result(scheme.sign(key, msg), ref), msg

    def test_threads_sharing_a_key_sign_as_one(self):
        # The key's history is the one state sign mutates; a lost update
        # may change a batch width, never a result.
        messages = BATCH_MESSAGES[:20]
        single = make_batch_key("rm36")
        reference = [scheme.sign(single, msg) for msg in messages]
        key = make_batch_key("rm36")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(scheme.sign, key, msg) for msg in messages]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for msg, res, ref in zip(messages, results, reference):
            assert same_result(res, ref), msg

    @pytest.mark.parametrize("start, cap", [(1, 4), (7, 7), (64, 256), (300, 300)])
    def test_results_do_not_depend_on_batches(self, batch_key, monkeypatch, start, cap):
        reference = [scheme.sign(batch_key, msg) for msg in BATCH_MESSAGES]
        monkeypatch.setattr(scheme, "SIGN_BATCH", start)
        monkeypatch.setattr(scheme, "SIGN_BATCH_MAX", cap)
        for msg, ref in zip(BATCH_MESSAGES, reference):
            assert same_result(scheme.sign(fresh(batch_key), msg), ref), msg
        counters = [getattr(ref, "i", None) for ref in reference]
        assert None in counters
        assert min(i for i in counters if i) <= 16 and max(i for i in counters if i) > 256


class TestSignChecksItsOutput:
    """sign checks H_m e' = s' on the row it outputs, and on no other."""

    def test_one_check_per_signature(self, batch_key, monkeypatch):
        calls = []
        real = scheme.check_leaders

        def counting(mod, e_primes, s_primes):
            calls.append(np.array(e_primes))
            return real(mod, e_primes, s_primes)

        monkeypatch.setattr(scheme, "check_leaders", counting)
        exhausted = 0
        for msg in BATCH_MESSAGES:
            calls.clear()
            res = scheme.sign(batch_key, msg)
            if isinstance(res, scheme.Signature):
                assert len(calls) == 1, msg
                assert calls[0].ndim == 1
                assert np.array_equal(calls[0], res.e[batch_key.sigma]), msg
            else:
                assert calls == [], msg
                exhausted += 1
        assert exhausted >= 1

    def test_checks_build_no_table_after_the_first(self, monkeypatch):
        # A signature's check is one row, which builds no table at all;
        # the first calibration chunk's check builds H_m^T's table once,
        # and no check builds one after that.  The only other tables are
        # the ones mat_mul makes for one call: each chunk's R e_np, with
        # p = 2 rows of R here, reads a table of the chunk's decoded
        # errors, (n - p) x 1024, built before the chunk's check.
        params = scheme.SigningParams(w=64, N=1, t=3)
        priv = scheme.keygen(6, 3, params, np.random.default_rng(5)).private
        built, real_build = [], gf2.ProductTable._subsets.func

        def counting(table):
            built.append("H_m^T" if table is priv.mod.H_T_table else table.shape)
            return real_build(table)

        # Patched in place, where a table builds its subsets on first use:
        # the key's tables stay instances of the class, and a table made
        # by mat_mul for one call builds them too.
        subsets = functools.cached_property(counting)
        subsets.__set_name__(gf2.ProductTable, "_subsets")
        monkeypatch.setattr(gf2.ProductTable, "_subsets", subsets)
        # N = 1: each signature is one row, its S^-1 product included.  The
        # first signature forms S^-1, by one product with a table of L^-1.
        assert isinstance(scheme.sign(priv, b"first"), scheme.Signature)
        assert isinstance(scheme.sign(priv, b"second"), scheme.Signature)
        n_k = priv.mod.n - priv.mod.k
        assert built == [(n_k, n_k)]
        built.clear()
        assert priv.mod.p == 2
        r_block = (priv.mod.n - priv.mod.p, 1024)
        analysis.calibrate(priv.mod, 3 * 1024, np.random.default_rng(0))
        assert built == [r_block, "H_m^T", r_block, r_block]
        analysis.calibrate(priv.mod, 1024, np.random.default_rng(1))
        assert isinstance(scheme.sign(priv, b"third"), scheme.Signature)
        assert built == [r_block, "H_m^T", r_block, r_block, r_block]

    def test_signing_leaves_the_check_table_unbuilt(self):
        # Keygen, signing and verifying multiply by H_m^T one row at a
        # time, by a gather of its rows, so its subset table is never built.
        params = scheme.SigningParams(w=12, N=200, t=3)
        kp = scheme.keygen(5, 2, params, np.random.default_rng(21))
        for message in (b"one", b"two", b"three"):
            sig = scheme.sign(kp.private, message)
            assert isinstance(sig, scheme.Signature) and scheme.verify(kp.public, message, sig)
        assert "_subsets" not in vars(kp.private.mod.H_T_table)

    def test_rejects_a_wrong_inserted_block(self, monkeypatch):
        # An inserted bit e_p that misses s'_bot: nothing in the decode
        # checks the R block, so only sign's check can catch it.
        params = scheme.SigningParams(w=64, N=1, t=3)  # the first trial signs
        priv = scheme.keygen(6, 3, params, np.random.default_rng(5)).private
        real = scheme._modified_coset_leaders

        def wrong_block(mod, s_primes):
            e_primes = real(mod, s_primes)
            e_primes[:, -1] ^= 1
            return e_primes

        monkeypatch.setattr(scheme, "_modified_coset_leaders", wrong_block)
        with pytest.raises(AssertionError, match="H_m e' = s'"):
            scheme.sign(priv, b"inserted block")
        monkeypatch.setattr(analysis, "_modified_coset_leaders", wrong_block)
        with pytest.raises(AssertionError, match="H_m e' = s'"):
            analysis.calibrate(priv.mod, 3, np.random.default_rng(0))


class TestVerifyMatchesNaivePredicate:
    @pytest.mark.parametrize("key", ["toy_keypair", "rm36_keypair"])
    def test_valid_flipped_and_random(self, key, request):
        kp = request.getfixturevalue(key)
        pub, n, w = kp.public, kp.public.n, kp.public.params.w
        rng = np.random.default_rng(n)
        verdicts = {True: 0, False: 0}
        for j in range(20):
            msg = b"naive %d" % j
            sig = scheme.sign(kp.private, msg)
            candidates = [sig.e]
            for pos in rng.choice(n, size=8, replace=False):
                flipped = sig.e.copy()
                flipped[pos] ^= 1
                candidates.append(flipped)
            for weight in (0, 1, w, w + 1, n // 2):
                e = np.zeros(n, dtype=np.uint8)
                e[rng.choice(n, size=weight, replace=False)] = 1
                candidates.append(e)
            for e in candidates:
                for i in (sig.i, sig.i + 1):
                    got = scheme.verify(pub, msg, scheme.Signature(e=e, i=i))
                    assert got is naive_verify(pub, msg, e, i)
                    verdicts[got] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20


@pytest.fixture(scope="module")
def rm10_keypair():
    """The RM(10,5) key at w = 99 of the benchmark's sign-rm10 workload."""
    params = scheme.SigningParams(w=99, N=10_000, t=15)
    return scheme.keygen(10, 5, params, np.random.default_rng(1))


class TestVerifyPartialLastByte:
    """n-k = 11 on RM(4,1) and 386 on RM(10,5): the packed syndrome's last
    byte holds n-k mod 8 bits and pad bits, which _syndrome_from_digest
    clears in the digest.  With n-k = 0 there is no byte to clear."""

    def test_key_with_no_parity_rows_gives_a_verdict(self):
        """No keygen or loader makes a key of order r = m, whose H' has no
        rows, but verify on one is total: every e of weight at most w has
        H'e equal to the empty syndrome."""
        params = scheme.SigningParams(w=3, N=1, t=0)
        packed = np.zeros((0, 2), dtype=np.uint8)
        pub = scheme.PublicKey(m=4, r=4, packed_H=packed, params=params)
        e = np.zeros(pub.n, dtype=np.uint8)
        for weight, accepted in ((0, True), (3, True), (4, False)):
            e[:weight] = 1
            assert scheme.verify(pub, b"no rows", scheme.Signature(e=e, i=1)) is accepted

    @pytest.mark.parametrize("key", ["toy_keypair", "rm10_keypair"])
    def test_flip_in_the_last_row_rejects(self, key, request):
        kp = request.getfixturevalue(key)
        pub, message = kp.public, b"last byte"
        sig = scheme.sign(kp.private, message)
        assert pub.packed_H.shape[0] % 8 and scheme.verify(pub, message, sig)
        support = np.flatnonzero(sig.e)
        product = gf2.mat_vec(pub.H_T_table, support)
        for j in support[:3]:
            packed = pub.packed_H.copy()
            packed[-1, j >> 3] ^= 128 >> (j & 7)
            tampered = dataclasses.replace(pub, packed_H=packed)
            # H'e changes in its last bit alone, so only the last byte differs.
            changed = np.flatnonzero(gf2.mat_vec(tampered.H_T_table, support) != product)
            assert changed.tolist() == [product.size - 1]
            assert not scheme.verify(tampered, message, sig)
            assert not naive_verify(tampered, message, sig.e, sig.i)

    def test_rm10_near_a_signature_matches_naive(self, rm10_keypair):
        pub, w = rm10_keypair.public, rm10_keypair.public.params.w
        rng = np.random.default_rng(10)
        sig = scheme.sign(rm10_keypair.private, b"near")
        ones, zeros = np.flatnonzero(sig.e), np.flatnonzero(sig.e == 0)
        vectors = [sig.e]
        for weight in (w - 1, w, w + 1):
            e = sig.e.copy()
            if weight >= ones.size:
                e[rng.choice(zeros, weight - ones.size, replace=False)] = 1
            else:
                e[rng.choice(ones, ones.size - weight, replace=False)] = 0
            vectors.append(e)
        verdicts = set()
        for e in vectors:
            for dtype in (bool, np.uint8, np.int8, np.int64):
                strided = np.zeros(2 * pub.n, dtype=dtype)
                strided[::2] = e
                for form in (e.astype(dtype), strided[::2]):
                    for message, i in ((b"near", sig.i), (b"near", sig.i + 1), (b"far", sig.i)):
                        got = scheme.verify(pub, message, scheme.Signature(e=form, i=i))
                        assert got is naive_verify(pub, message, form, i)
                        verdicts.add(got)
        assert verdicts == {True, False}


HYP = settings(derandomize=True, database=None, max_examples=150, deadline=None)
VERIFY_MESSAGE = b"property"

ANY_DTYPE = st.one_of(
    hnp.boolean_dtypes(), hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
    hnp.floating_dtypes(), st.just(np.dtype(object)),
)
ANY_SHAPE = st.one_of(st.just((16,)), hnp.array_shapes(min_dims=0, max_dims=3, max_side=17))
ANY_COUNTER = st.one_of(
    st.sampled_from([0, 1, -1, 2**63, 2**64 - 1, 2**64, True, False]),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.booleans().map(np.bool_),
    st.floats(allow_nan=True),
    st.none(),
    st.text(max_size=3),
)


def _any_array(dtype, shape):
    if dtype == object:
        elems = st.one_of(st.integers(-2, 2), st.none(), st.floats(), st.text(max_size=2))
        return hnp.arrays(dtype, shape, elements=elems)
    return hnp.arrays(dtype, shape)


def _binary_array(dtype, shape):
    return hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)).map(lambda a: a.astype(dtype))


@st.composite
def any_signature_vector(draw):
    """Arrays of every dtype and shape, arbitrary or with binary entries."""
    dtype, shape = draw(ANY_DTYPE), draw(ANY_SHAPE)
    return draw(st.one_of(_any_array(dtype, shape), _binary_array(dtype, shape)))


@pytest.fixture(scope="module")
def property_sig(toy_keypair):
    sig = scheme.sign(toy_keypair.private, VERIFY_MESSAGE)
    assert isinstance(sig, scheme.Signature)
    return sig


class TestCheckSignature:
    def test_empty_vector_rejected_by_its_own_message(self):
        # n = 0 passes the shape test; numpy's max has no empty case.
        sig = scheme.Signature(e=np.zeros(0, dtype=np.uint8), i=1)
        with pytest.raises(ValueError, match="signature vector is empty"):
            scheme.check_signature(sig, 0)


class TestVerifyProperties:
    """verify is total: no input makes it raise, and its verdict is the
    naive predicate's on every dtype, shape and counter."""

    @HYP
    @given(e=any_signature_vector(), i=ANY_COUNTER)
    def test_any_vector_and_counter(self, toy_keypair, e, i):
        got = scheme.verify(toy_keypair.public, VERIFY_MESSAGE, scheme.Signature(e=e, i=i))
        assert got is naive_verify(toy_keypair.public, VERIFY_MESSAGE, e, i)

    @HYP
    @given(i=ANY_COUNTER, near=st.integers(-2, 2))
    def test_valid_vector_any_counter(self, toy_keypair, property_sig, i, near):
        # Counters at and around the signing counter, in every form, next
        # to the hostile ones.
        pub = toy_keypair.public
        c = property_sig.i + near
        for counter in (i, c, np.int64(c), np.uint64(max(c, 0)), float(c), str(c), c == 1):
            sig = scheme.Signature(e=property_sig.e, i=counter)
            assert scheme.verify(pub, VERIFY_MESSAGE, sig) is naive_verify(
                pub, VERIFY_MESSAGE, property_sig.e, counter
            )

    @HYP
    @given(
        flips=st.sets(st.integers(0, 15), max_size=4),
        dtype=st.sampled_from([np.uint8, np.int8, np.int64, np.uint64, bool, np.float64, object]),
        message=st.sampled_from([VERIFY_MESSAGE, b"other"]),
    )
    def test_binary_vectors_near_a_signature(self, toy_keypair, property_sig, flips, dtype, message):
        pub = toy_keypair.public
        e = property_sig.e.copy()
        e[list(flips)] ^= 1
        e = e.astype(dtype)
        got = scheme.verify(pub, message, scheme.Signature(e=e, i=property_sig.i))
        assert got is naive_verify(pub, message, e, property_sig.i)
        binary_dtype = np.dtype(dtype).kind in "biu"
        assert got is (binary_dtype and not flips and message == VERIFY_MESSAGE)
