import functools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rmsig import analysis, decoder, modcode, rmcode, scheme

from reference import (
    aligned_parent,
    coset_leader_weights,
    enumerate_codewords,
    generator,
    hadamard_decode,
    int_to_bits,
    punctured_check,
    reference_decode,
    to_eval_order,
    to_hard,
    vec_product,
)


def all_syndromes(code):
    for s_int in range(1 << (code.n - code.k)):
        yield s_int, int_to_bits(s_int, code.n - code.k)


class TestDecodeClosest:
    def test_all_plus_one_gives_zero(self):
        for m, r in [(3, 1), (4, 2), (5, 3)]:
            c = decoder.decode_closest(m, r, np.ones(1 << m, dtype=np.int8))
            assert not c.any()

    # (7, 3), (8, 4) and (10, 5) are longer than decoder.SOFT_BLOCK and
    # (6, 3) is one soft block, so an int8 wrap inside the soft sub-blocks
    # would mis-decode codewords here.
    @pytest.mark.parametrize("m,r", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (8, 4), (10, 5)])
    def test_zero_distance_round_trip(self, m, r):
        code = rmcode.build(m, r)
        rng = np.random.default_rng(m * 10 + r)
        for _ in range(20):
            msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
            word_sys = vec_product(generator(code).T, msg)
            word_eval = to_eval_order(code, word_sys)
            got = decoder.decode_closest(m, r, decoder.to_soft(word_eval))
            assert np.array_equal(got, word_eval)

    def test_rm31_all_hard_inputs_are_ml(self, rm31):
        # Brute force: distance to the nearest of the 16 codewords.
        eval_words = [to_eval_order(rm31, c) for c in enumerate_codewords(generator(rm31))]
        for v_int in range(256):
            v = int_to_bits(v_int, 8)
            got = decoder.decode_closest(3, 1, decoder.to_soft(v))
            best = min(int((v ^ c).sum()) for c in eval_words)
            assert int((v ^ got).sum()) == best

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (4, 4), (3, 0)])
    def test_always_returns_codeword(self, m, r):
        code = rmcode.build(m, r)
        rng = np.random.default_rng(17)
        for _ in range(25):
            soft = rng.integers(-1, 2, size=1 << m).astype(np.int8)
            word = decoder.decode_closest(m, r, soft)
            assert not vec_product(code.H, word[code.info_perm]).any()

    def test_all_erased_gives_codeword(self):
        for m, r in [(3, 1), (5, 2), (4, 4), (3, 0)]:
            code = rmcode.build(m, r)
            word = decoder.decode_closest(m, r, np.zeros(1 << m, dtype=np.int8))
            assert not vec_product(code.H, word[code.info_perm]).any()

    def test_majority_base_case(self):
        soft = np.array([-1, -1, -1, 1, 0, 0, 0, 0], dtype=np.int8)
        assert decoder.decode_closest(3, 0, soft).all()
        # Exact tie goes to the zero codeword.
        tie = np.array([-1, -1, 1, 1, 0, 0, 0, 0], dtype=np.int8)
        assert not decoder.decode_closest(3, 0, tie).any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decoder.decode_closest(3, 1, np.ones(7, dtype=np.int8))
        # Right length, but reliabilities of 16 would wrap int8 in the soft
        # block and decode the zero word to all-ones; rejected instead.
        with pytest.raises(ValueError):
            decoder.decode_closest(6, 2, np.full(64, 16, dtype=np.int8))
        # Neither one word nor a batch of words: the message names the shape.
        with pytest.raises(ValueError, match=r"shape \(\)"):
            decoder.decode_closest(3, 1, np.int8(1))
        with pytest.raises(ValueError, match=r"shape \(1, 1, 8\)"):
            decoder.decode_closest(3, 1, np.ones((1, 1, 8), dtype=np.int8))
        with pytest.raises(ValueError, match=r"shape \(1, 1, 4\)"):
            decoder.coset_leaders(rmcode.build(3, 1), np.zeros((1, 1, 4), dtype=np.uint8))
        # An order outside 0..m names no RM code.
        for r in (-1, 4):
            with pytest.raises(ValueError, match="0 <= r <= m"):
                decoder.decode_closest(3, r, np.ones(8, dtype=np.int8))
        # Values outside {-1, 0, +1} in any dtype, including ones that an
        # int8 cast would wrap (256 -> 0, 255 -> -1) or truncate (0.5 -> 0).
        soft = np.array([1, -1, 0, 1, 1, -1, 0, 1])
        for dtype, bad in [
            (np.int16, 256), (np.int16, -2), (np.uint8, 255), (np.int8, -128),
            (np.int64, 2), (np.float64, 0.5), (np.float32, -1.5), (np.float64, np.nan),
        ]:
            word = soft.astype(dtype)
            word[3] = bad
            with pytest.raises(ValueError, match="soft values"):
                decoder.decode_closest(3, 1, word)
            with pytest.raises(ValueError, match="soft values"):
                decoder.decode_closest(3, 1, np.stack([soft.astype(dtype), word]))
        # Float, bool and wider integer words with values in {-1, 0, +1}
        # decode as their int8 form does.
        rng = np.random.default_rng(8)
        batch = rng.integers(-1, 2, size=(5, 32)).astype(np.int8)
        expected = decoder.decode_closest(5, 2, batch)
        for dtype in (np.float64, np.float32, np.int16, np.int64):
            assert np.array_equal(decoder.decode_closest(5, 2, batch.astype(dtype)), expected)
            assert np.array_equal(decoder.decode_closest(5, 2, batch[0].astype(dtype)), expected[0])
        ones = batch >= 0
        expected = decoder.decode_closest(5, 2, ones.astype(np.int8))
        assert np.array_equal(decoder.decode_closest(5, 2, ones), expected)
        # An empty batch passes the check and decodes to no words.
        assert decoder.decode_closest(5, 2, np.zeros((0, 32), dtype=np.int8)).shape == (0, 32)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        soft = rng.integers(-1, 2, size=32).astype(np.int8)
        a = decoder.decode_closest(5, 2, soft)
        b = decoder.decode_closest(5, 2, soft.copy())
        assert np.array_equal(a, b)


def soft_words_with_ties(m, rows, rng):
    """Random soft rows in {-1, 0, +1} (about a third erased), led by
    forced ties: the all-zero word, and (h_a - h_b) / 2 for Hadamard rows
    a != b, whose correlations with h_a and h_b are equal and opposite."""
    n = 1 << m
    soft = rng.integers(-1, 2, size=(rows, n)).astype(np.int8)
    soft[0] = 0
    points = np.arange(n)
    for row in range(1, min(rows, 4)):
        a, b = rng.choice(n, size=2, replace=False)
        h_a = 1 - 2 * (np.bitwise_count(points & a) & 1).astype(np.int8)
        h_b = 1 - 2 * (np.bitwise_count(points & b) & 1).astype(np.int8)
        soft[row] = (h_a - h_b) // 2
    return soft


class TestMatchesReferenceDecoder:
    """The table-driven leaves and in-place recursion give the same words
    as the plain recursion with an FHT at every RM(1, m) leaf and Wagner's
    rule at every RM(m-1, m) leaf, ties included, on both sides of the
    table/FHT split and of _KEYS_ROWS."""

    @staticmethod
    def check(m, r, rows, seed):
        soft = soft_words_with_ties(m, rows, np.random.default_rng(seed))
        got = decoder.decode_closest(m, r, soft)
        assert np.array_equal(got, reference_decode(m, r, soft))
        assert np.array_equal(decoder.decode_closest(m, r, soft[-1]), got[-1])

    # Orders 0 and m included: the majority vote and the hard decision,
    # which run only at the top of a decode.
    @pytest.mark.parametrize("m", range(2, 9))
    def test_every_small_code(self, m):
        for r in range(m + 1):
            self.check(m, r, 40, seed=100 * m + r)

    @pytest.mark.parametrize("rows", [1, 7, 64, 256])
    @pytest.mark.parametrize("m,r", [(10, 5), (12, 6)])
    def test_signing_codes(self, m, r, rows):
        self.check(m, r, rows, seed=rows)

    # Calibration's batch width, and both sides of _KEYS_ROWS.
    @pytest.mark.parametrize("rows", [decoder._KEYS_ROWS - 1, decoder._KEYS_ROWS, 1024])
    def test_calibration_widths(self, rows):
        self.check(10, 5, rows, seed=rows)

    # The rest of the parameter table; (12, 5) reaches RM(1, 8) leaves,
    # which take the FHT inside the recursion.
    @pytest.mark.parametrize("rows", [1, 16])
    @pytest.mark.parametrize("m,r", [(10, 4), (11, 5), (12, 5)])
    def test_other_table_codes(self, m, r, rows):
        self.check(m, r, rows, seed=rows)

    # RM(1, m) up to the largest code: tables up to LEAF_TABLE_M, FHT above.
    @pytest.mark.parametrize("m", range(2, rmcode.MAX_M + 1))
    def test_first_order(self, m):
        self.check(m, 1, 16, seed=m)


class TestSigningPathMatchesReference:
    """punctured_coset_leaders decodes under the signing path's rule, the
    reference's with signing set: e = v + c, where v carries s_top on the
    kept parity columns and erasures on the deleted ones, and c is the
    reference codeword for v.  Both keys' codes have length-32 RM(3, 5)
    nodes, so RM(3, 4) leaves decode exact sums up to 4; 1 and 16 rows
    take the leaves' narrow (argmin) forms, 256 rows their keys forms."""

    @pytest.mark.parametrize("rows", [1, 16, decoder._KEYS_ROWS])
    @pytest.mark.parametrize("m,r,seed", [(6, 3, 13), (8, 4, 7)])
    def test_punctured_coset_leaders(self, m, r, seed, rows):
        mod = _modified(m, r, seed)
        top = mod.n - mod.k - mod.p
        s_tops = np.random.default_rng(rows).integers(0, 2, size=(rows, top), dtype=np.uint8)
        kept = np.concatenate([np.arange(mod.k), mod.kept_cols])
        v_sys = np.ones((rows, mod.n), dtype=np.int64)
        v_sys[:, mod.kept_cols] = 1 - 2 * s_tops.astype(np.int64)
        v_sys[:, mod.deleted] = 0
        v = np.array([to_eval_order(mod, row) for row in v_sys])
        c = reference_decode(m, r, v, signing=True)
        expected = (to_hard(v) ^ c)[:, mod.info_perm][:, kept]
        got = decoder.punctured_coset_leaders(mod, s_tops)
        assert np.array_equal(got, expected)
        assert np.array_equal(decoder.punctured_coset_leaders(mod, s_tops[-1]), expected[-1])


@pytest.mark.parametrize(
    "m,r,signing",
    [(10, 5, False), (12, 6, False), (10, 5, True), (12, 6, True)],
    ids=["10-5", "12-6", "10-5-signing", "12-6-signing"],
)
def test_leaf_inputs_reach_the_soft_block_bound(monkeypatch, m, r, signing):
    """On an all-(+1) batch every u sum doubles and every v product
    squares, so the leaves meet the bounds stated in SOFT_BLOCK's
    docstring: a length-16 node whose inputs reach 4 passes 16 to its
    order-1 leaf and 8 to its single-parity-check leaf, the RM(1, 4)
    leaves decode signs, the RM(3, 4) leaves signs on the plain path and
    the exact u sum, 4, on the signing path, and a longer leaf receives
    at most 2."""
    peaks = {}

    def spy(name, leaf):
        def wrapped(*args):
            soft = args[-2]  # both leaves take (..., soft, out)
            key = (name, min(soft.shape[0], 32))  # 32: any longer leaf
            peaks[key] = max(peaks.get(key, 0), int(np.abs(soft.astype(np.int64)).max()))
            leaf(*args)

        return wrapped

    monkeypatch.setattr(decoder, "_decode_order1", spy("order1", decoder._decode_order1))
    monkeypatch.setattr(decoder, "_decode_spc", spy("spc", decoder._decode_spc))
    if signing:  # the kernel under the rule punctured_coset_leaders selects
        words = np.empty((1 << m, 16), dtype=np.int8)
        decoder._decode(m, r, np.ones_like(words), words, signing=True)
        assert (words == 1).all()
    else:
        words = decoder.decode_closest(m, r, np.ones((16, 1 << m), dtype=np.int8))
        assert not words.any()
    assert peaks == {
        ("order1", 8): 16, ("spc", 8): 8,
        ("order1", 16): 1, ("spc", 16): 4 if signing else 1,
        ("order1", 32): 1, ("spc", 32): 2,
    }


class TestOrder1Leaf:
    """The RM(1, m) leaf, called directly on tie-laden words whose values
    reach the bound of 16 met inside the soft blocks.  A batch of
    _KEYS_ROWS words, or of 1024 (a calibration chunk), takes the keys
    form, its 16-word slices the narrow (argmin) form; both read the one
    keys table of _leaf_tables and give the reference's
    Hadamard-transform words.  m runs over every table leaf, from the
    whole codes RM(1, 1) and RM(1, 2) (a decode takes RM(1, 1) as order
    m, so only a direct call reaches its leaf) to LEAF_TABLE_M."""

    @staticmethod
    def soft_words(m, rows, rng):
        n = 1 << m
        points = np.arange(n)
        h = 1 - 2 * (np.bitwise_count(points[:, None] & points[None, :]) & 1)
        soft = rng.integers(-16, 17, size=(rows, n))
        soft[:8] = 0  # all-zero words: every correlation ties at 0
        for row in range(8, 200):
            a, b = rng.choice(n, size=2, replace=False)
            scale = (1, 4, 16)[row % 3]
            kind = row % 4
            if kind == 0:  # h_a and h_b tie, both positive
                soft[row] = (h[a] + h[b]) // 2 * scale
            elif kind == 1:  # -h_a and -h_b tie
                soft[row] = -(h[a] + h[b]) // 2 * scale
            elif kind == 2:  # h_a ties with -h_b
                soft[row] = (h[a] - h[b]) // 2 * scale
            else:  # one magnitude everywhere
                soft[row] = scale * np.where(rng.integers(0, 2, size=n) == 1, -1, 1)
        return soft.astype(np.int8)

    @staticmethod
    def leaf(m, soft):
        out = np.empty((soft.shape[1], soft.shape[0]), dtype=np.int8)
        decoder._decode_order1(m, np.ascontiguousarray(soft.T), out)
        return (out.T < 0).view(np.uint8)

    # A _KEYS_ROWS case keeps m alone as its id.
    @pytest.mark.parametrize(
        "m,rows",
        [
            pytest.param(m, rows, id=str(m) if rows == decoder._KEYS_ROWS else f"{m}-{rows}")
            for m in range(1, decoder.LEAF_TABLE_M + 1)
            for rows in (decoder._KEYS_ROWS, 1024)
        ],
    )
    def test_forms_agree_on_ties(self, m, rows):
        soft = self.soft_words(m, rows, np.random.default_rng(m))
        keys_form = self.leaf(m, soft)
        narrow_form = np.concatenate([self.leaf(m, part) for part in np.split(soft, len(soft) // 16)])
        assert np.array_equal(keys_form, narrow_form)
        assert np.array_equal(keys_form, hadamard_decode(m, soft))
        assert not keys_form[:8].any()


@functools.cache
def _even_weight_words(n):
    """Every word of even weight and length n, as int64 +-1 rows (+1 for
    bit 0): the codewords of RM(m-1, m) for n = 2**m."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return 1 - 2 * bits[bits.sum(axis=1) % 2 == 0]


class TestSpcLeaf:
    """The RM(k-1, k) leaf, called directly so that its input may carry the
    magnitudes {1, 4, 8} met inside the soft blocks: ML against every
    even-weight word, and the stated tie rule.  Erasures harden to bit 0,
    and a word of odd weight flips the bit at its smallest |y|, the first
    such position on a tie.  Batches of at least _KEYS_ROWS words and
    slices of 16 and of one word take the two forms of the leaf."""

    @staticmethod
    def soft_words(k, rng):
        n = 1 << k
        values = np.array([0, 1, -1, 4, -4, 8, -8], dtype=np.int8)
        if k == 2:  # every word over the seven values
            codes = np.arange(len(values) ** n)[:, None] // len(values) ** np.arange(n)
            return values[codes % len(values)]
        soft = values[rng.integers(0, len(values), size=(400, n))]
        soft[0] = 0
        for row in range(1, 100):
            signs = np.where(rng.integers(0, 2, size=n) == 1, -1, 1).astype(np.int8)
            if row < 40:  # one magnitude, 1, 4 or 8, everywhere
                soft[row] = signs * values[1 + 2 * (row % 3)]
            else:  # two to four positions share the smallest magnitude
                soft[row] = signs * 8
                ties = rng.choice(n, size=2 + row % 3, replace=False)
                soft[row, ties] = signs[ties]
        return soft

    @staticmethod
    def leaf(soft):
        out = np.empty((soft.shape[1], soft.shape[0]), dtype=np.int8)
        decoder._decode_spc(np.ascontiguousarray(soft.T), out)
        return (out.T < 0).view(np.uint8)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ml_and_tie_rule(self, k):
        soft = self.soft_words(k, np.random.default_rng(k))
        assert len(soft) >= decoder._KEYS_ROWS > 16
        hard = to_hard(soft)
        odd = hard.sum(axis=1) % 2 == 1
        weakest = np.abs(soft.astype(np.int64)).argmin(axis=1)  # the first minimum
        expected = hard.copy()
        expected[odd, weakest[odd]] ^= 1
        best = (soft.astype(np.int64) @ _even_weight_words(1 << k).T).max(axis=1)
        got_wide = self.leaf(soft)
        got_narrow = np.concatenate([self.leaf(part) for part in np.array_split(soft, len(soft) // 16)])
        got_single = np.concatenate([self.leaf(soft[row : row + 1]) for row in range(0, len(soft), 37)])
        for got in (got_wide, got_narrow):
            assert np.array_equal(got, expected)
            assert np.array_equal((soft * (1 - 2 * got.astype(np.int64))).sum(axis=1), best)
        assert np.array_equal(got_single, expected[::37])

    def test_tie_examples(self):
        cases = [
            ([1, -1, 1, 1], [1, 1, 0, 0]),  # equal magnitudes: index 0 flips
            ([4, -4, 1, 1], [0, 1, 1, 0]),  # the first of two weakest
            ([-16, 0, 0, 4], [1, 1, 0, 0]),  # the first erasure
            ([0, 0, 0, 0], [0, 0, 0, 0]),  # erasures harden to bit 0
            ([-1, -16, 4, 16], [1, 1, 0, 0]),  # even weight: kept
        ]
        soft = np.array([c[0] for c in cases], dtype=np.int8)
        expected = np.array([c[1] for c in cases], dtype=np.uint8)
        assert np.array_equal(self.leaf(soft), expected)
        wide = np.repeat(soft, decoder._KEYS_ROWS, axis=0)
        assert np.array_equal(self.leaf(wide), np.repeat(expected, decoder._KEYS_ROWS, axis=0))


def read_only(arr):
    arr = np.array(arr)
    arr.flags.writeable = False
    return arr


class TestEntryPointsOnlyReadInputs:
    """Every decoding entry point leaves its input as it was.  The inputs
    are read-only, so a write raises, and are compared with a copy."""

    @pytest.mark.parametrize("shape", [(32,), (1, 32), (5, 32)])
    def test_decode_closest(self, shape, monkeypatch):
        # A 1-D or one-row int8 word reaches the kernel as a view of the
        # caller's array, so a kernel that wrote over its soft input
        # would change the caller's data there.
        shared = []
        kernel = decoder._decode

        def spy(m, r, soft, out):
            shared.append(np.shares_memory(soft, word))
            kernel(m, r, soft, out)

        monkeypatch.setattr(decoder, "_decode", spy)
        rng = np.random.default_rng(61)
        for r in range(6):
            word = read_only(rng.integers(-1, 2, size=shape).astype(np.int8))
            before = word.copy()
            got = decoder.decode_closest(5, r, word)
            assert np.array_equal(word, before)
            assert np.array_equal(np.atleast_2d(got), reference_decode(5, r, np.atleast_2d(before)))
        assert shared == [len(shape) == 1 or shape[0] == 1] * 6

    def test_coset_leaders(self):
        code = rmcode.build(6, 3)
        rng = np.random.default_rng(62)
        synd = read_only(rng.integers(0, 2, size=(9, code.n - code.k), dtype=np.uint8))
        before = synd.copy()
        for s in (synd, synd[0]):
            decoder.coset_leaders(code, s)
        assert np.array_equal(synd, before)

    def test_punctured_and_modified_coset_leaders(self):
        mod = _modified(6, 3, 13)
        rng = np.random.default_rng(63)
        top = read_only(rng.integers(0, 2, size=(9, mod.n - mod.k - mod.p), dtype=np.uint8))
        full = read_only(rng.integers(0, 2, size=(9, mod.n - mod.k), dtype=np.uint8))
        before = top.copy(), full.copy()
        for s in (top, top[0]):
            decoder.punctured_coset_leaders(mod, s)
        scheme._modified_coset_leaders(mod, full)
        assert np.array_equal(top, before[0]) and np.array_equal(full, before[1])


def test_concurrent_decoding_matches_serial():
    # The README promises that decoding is a pure, thread-safe function:
    # threads decoding same-shaped batches at once must see what a serial
    # run sees, so the kernel may keep no scratch between calls.  More
    # threads than cores, and a short switch interval, make them overlap.
    rng = np.random.default_rng(64)
    batches = rng.integers(-1, 2, size=(12, 16, 1024)).astype(np.int8)
    serial = [decoder.decode_closest(10, 5, b) for b in batches]
    orders = [np.roll(np.arange(len(batches)), 4 * t) for t in range(3)]
    start = threading.Barrier(len(orders), timeout=60)

    def decode_all(order):
        start.wait()
        return [decoder.decode_closest(10, 5, batches[j]) for j in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(decode_all, order) for order in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for order, words in zip(orders, results):
        for j, got in zip(order, words):
            assert np.array_equal(got, serial[j])


class TestSyndromeToCosetLeader:
    def test_zero_syndrome(self, rm31):
        e = decoder.coset_leaders(rm31, np.zeros(4, dtype=np.uint8))
        assert not e.any()

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_standard_array(self, m):
        code = rmcode.build(m, 1)
        oracle = coset_leader_weights(code.H)
        shifts = 1 << np.arange(code.n - code.k, dtype=np.int64)
        for s_int, s in all_syndromes(code):
            e = decoder.coset_leaders(code, s)
            assert np.array_equal(vec_product(code.H, e), s)
            assert int(e.sum()) == oracle[s_int]

    @pytest.mark.parametrize("m,r", [(4, 2), (5, 2)])
    def test_syndrome_identity_random(self, m, r):
        code = rmcode.build(m, r)
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = rng.integers(0, 2, size=code.n - code.k, dtype=np.uint8)
            e = decoder.coset_leaders(code, s)
            assert np.array_equal(vec_product(code.H, e), s)

    def test_never_below_exhaustive_minimum(self):
        code = rmcode.build(4, 2)
        oracle = coset_leader_weights(code.H)
        for s_int, s in all_syndromes(code):
            e = decoder.coset_leaders(code, s)
            assert int(e.sum()) >= oracle[s_int]

    def test_length_check(self, rm31):
        with pytest.raises(ValueError):
            decoder.coset_leaders(rm31, np.zeros(5, dtype=np.uint8))


def modified_rm41_with_p4():
    code = rmcode.build(4, 1)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        plan = modcode.puncture_plan(code, rng)
        if plan.p == 4:
            aligned = modcode.align_information_set(code, plan.deleted)
            return modcode.build_modified(aligned, rng)
    raise AssertionError("no seed produced p=4")


class TestPuncturedSyndromeDecode:
    def test_zero_syndrome(self):
        mod = modified_rm41_with_p4()
        top = mod.n - mod.k - mod.p
        e = decoder.punctured_coset_leaders(mod, np.zeros(top, dtype=np.uint8))
        assert not e.any()

    def test_degenerate_no_puncture_matches_plain(self, rm41):
        unaligned = modcode.align_information_set(rm41, [])
        mod = modcode.build_modified(unaligned, np.random.default_rng(0))
        rng = np.random.default_rng(31)
        for _ in range(30):
            s = rng.integers(0, 2, size=rm41.n - rm41.k, dtype=np.uint8)
            assert np.array_equal(
                decoder.punctured_coset_leaders(mod, s),
                decoder.coset_leaders(rm41, s),
            )

    def test_all_syndromes_satisfy_check(self):
        mod = modified_rm41_with_p4()
        top = mod.n - mod.k - mod.p
        assert top == 7
        h_p = punctured_check(mod)
        for s_int in range(1 << top):
            s = int_to_bits(s_int, top)
            e = decoder.punctured_coset_leaders(mod, s)
            assert e.shape == (mod.n - mod.p,)
            assert np.array_equal(vec_product(h_p, e), s)

    def test_length_check(self):
        mod = modified_rm41_with_p4()
        with pytest.raises(ValueError):
            decoder.punctured_coset_leaders(mod, np.zeros(3, dtype=np.uint8))

    def test_self_check_rejects_a_non_codeword(self, monkeypatch):
        # A decode that returns a non-codeword yields an e with H_p e !=
        # s_top.  Flipping a kept parity position changes that bit of
        # H_p e whatever the rest of the word.  The punctured decode does
        # not check its rows: sign checks the error it outputs, and
        # calibration of a modified code every row it tallies.
        t = _code(6, 3).t
        params = scheme.SigningParams(w=64, N=1, t=t)  # the first trial signs
        priv = scheme.keygen(6, 3, params, np.random.default_rng(13)).private
        mod = priv.mod
        flipped = mod.info_perm[mod.kept_cols[0]]
        kernel = decoder._decode

        def broken(m, r, soft, out, signing=False):
            kernel(m, r, soft, out, signing)
            out[flipped] *= -1

        monkeypatch.setattr(decoder, "_decode", broken)
        with pytest.raises(AssertionError, match="H_m e' = s'"):
            scheme.sign(priv, b"a non-codeword")
        with pytest.raises(AssertionError, match="H_m e' = s'"):
            analysis.calibrate(mod, 2, np.random.default_rng(0))


class TestCheckLeaders:
    """decoder.check_leaders: H_m e' = s' on one row or a batch.

    The keys cover p = 0 (the RM(1, 4) code unmodified), p = 1 (RM(3, 6)
    at key seed 2), p = 2 (RM(3, 6) at key seed 13) and p = 4 (RM(1, 4)).
    Every batch of errors e' is column-major, so the batch check packs a
    transposed view."""

    @staticmethod
    def _key(key):
        if key == "rm41_p0":
            unaligned = modcode.align_information_set(rmcode.build(4, 1), [])
            return modcode.build_modified(unaligned, np.random.default_rng(0))
        if key == "rm41_p4":
            return modified_rm41_with_p4()
        return _modified(6, 3, 2 if key == "rm63_p1" else 13)

    def _assert_each_flip_rejected(self, mod, columns):
        rng = np.random.default_rng(3)
        s_primes = rng.integers(0, 2, size=(6, mod.n - mod.k), dtype=np.uint8)
        e_primes = scheme._modified_coset_leaders(mod, s_primes)
        decoder.check_leaders(mod, e_primes, s_primes)
        decoder.check_leaders(mod, e_primes[4], s_primes[4])
        for j in columns:
            bad = e_primes.copy(order="A")  # a column-major batch stays one
            bad[4, j] ^= 1
            with pytest.raises(AssertionError, match="H_m e' = s'"):
                decoder.check_leaders(mod, bad[4], s_primes[4])
            with pytest.raises(AssertionError, match="H_m e' = s'"):
                decoder.check_leaders(mod, bad, s_primes)

    @pytest.mark.parametrize("key", ["rm41_p4", "rm63_p1", "rm63"])
    def test_rejects_a_flipped_inserted_bit(self, key):
        mod = self._key(key)
        assert mod.p == {"rm41_p4": 4, "rm63_p1": 1, "rm63": 2}[key]
        self._assert_each_flip_rejected(mod, range(mod.n - mod.p, mod.n))

    @pytest.mark.parametrize("key", ["rm41_p0", "rm41_p4", "rm63_p1", "rm63"])
    def test_rejects_a_flipped_kept_parity_bit(self, key):
        # The first and last kept parity columns, inside H_m's P'^T block.
        mod = self._key(key)
        self._assert_each_flip_rejected(mod, [mod.k, mod.n - mod.p - 1])

    @pytest.mark.parametrize("key", ["rm41_p0", "rm63_p1", "rm63", "rm41_p4"])
    def test_batch_is_column_major(self, key):
        mod = self._key(key)
        s_primes = np.zeros((6, mod.n - mod.k), dtype=np.uint8)
        assert scheme._modified_coset_leaders(mod, s_primes).flags.f_contiguous

    def test_accepts_every_syndrome_of_a_small_key(self):
        # All 2**11 syndromes s' of the p = 4 RM(1, 4) key: every top
        # syndrome with every inserted one.
        mod = modified_rm41_with_p4()
        width = mod.n - mod.k
        assert width == 11
        s_primes = np.array([int_to_bits(s, width) for s in range(1 << width)], dtype=np.uint8)
        e_primes = scheme._modified_coset_leaders(mod, s_primes)
        assert np.array_equal(_times_transpose(e_primes, mod.H), s_primes)
        decoder.check_leaders(mod, e_primes, s_primes)
        for e_prime, s_prime in zip(e_primes, s_primes):
            decoder.check_leaders(mod, e_prime, s_prime)


# A uint8 cast would keep 2 (an error that misses its syndrome), wrap -1
# to 255 and truncate 0.5 to 0; each is rejected before any cast.
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("dtype,bad", [(np.uint8, 2), (np.int64, -1), (np.float64, 0.5)])
@pytest.mark.parametrize("entry", ["coset_leaders", "punctured_coset_leaders"])
def test_syndrome_entry_points_reject_non_binary_values(entry, dtype, bad, ndim):
    mod = _modified(6, 3, 13)
    if entry == "coset_leaders":
        parent = aligned_parent(mod)
        decode, width = functools.partial(decoder.coset_leaders, parent), parent.n - parent.k
    else:
        decode, width = functools.partial(decoder.punctured_coset_leaders, mod), mod.n - mod.k - mod.p
    s = np.zeros((3, width), dtype=dtype)
    s[1, ::2] = bad
    with pytest.raises(ValueError, match="syndrome values"):
        decode(s if ndim == 2 else s[1])


def test_soft_hard_round_trip():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=64, dtype=np.uint8)
    assert np.array_equal(to_hard(decoder.to_soft(bits)), bits)


@pytest.mark.parametrize("m,r", [(4, 1), (5, 2), (6, 3)])
def test_batch_equals_scalar(m, r):
    code = rmcode.build(m, r)
    rng = np.random.default_rng(41)
    synd = rng.integers(0, 2, size=(24, code.n - code.k), dtype=np.uint8)
    batch = decoder.coset_leaders(code, synd)
    for row in range(synd.shape[0]):
        assert np.array_equal(batch[row], decoder.coset_leaders(code, synd[row]))


# Widths below decoder._KEYS_ROWS (1, 16), at it (256) and above it (1024),
# where both kinds of leaf change form.  (m, r) = (5, 2) and (10, 5) reach
# both kinds inside the recursion; (5, 4) is the single-parity-check leaf
# at the top.
@pytest.mark.parametrize("rows", [1, 16, 256, 1024])
@pytest.mark.parametrize("m,r", [(5, 2), (5, 4), (10, 5)])
def test_batch_equals_scalar_at_widths(m, r, rows):
    code = rmcode.build(m, r)
    rng = np.random.default_rng(rows)
    synd = rng.integers(0, 2, size=(rows, code.n - code.k), dtype=np.uint8)
    batch = decoder.coset_leaders(code, synd)
    for row in range(rows):
        assert np.array_equal(batch[row], decoder.coset_leaders(code, synd[row]))


def test_punctured_batch_equals_scalar():
    mod = modified_rm41_with_p4()
    rng = np.random.default_rng(43)
    top = mod.n - mod.k - mod.p
    synd = rng.integers(0, 2, size=(16, top), dtype=np.uint8)
    batch = decoder.punctured_coset_leaders(mod, synd)
    for row in range(synd.shape[0]):
        assert np.array_equal(batch[row], decoder.punctured_coset_leaders(mod, synd[row]))


# Calibration's width on the signing path: every row of the exit formed
# at once, and keys-form leaves fed erasures.  test_batch_equals_scalar_at_widths
# covers the plain code at this width.
def test_punctured_batch_equals_scalar_at_1024_rows():
    mod = _modified(10, 5, 1)
    rng = np.random.default_rng(47)
    synd = rng.integers(0, 2, size=(1024, mod.n - mod.k - mod.p), dtype=np.uint8)
    batch = decoder.punctured_coset_leaders(mod, synd)
    for row in range(synd.shape[0]):
        assert np.array_equal(batch[row], decoder.punctured_coset_leaders(mod, synd[row]))


# Decoder properties over drawn syndrome batches.  derandomize and no
# example database keep the suite deterministic.
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# (m, r, key seed) of fixed small keys; RM(2,3) punctures its only
# parity column, so its punctured syndromes are empty.
MODIFIED_KEYS = [(3, 2, 0), (4, 1, 7), (5, 2, 21), (6, 3, 13)]


@functools.cache
def _code(m, r):
    return rmcode.build(m, r)


@functools.cache
def _modified(m, r, seed):
    t = _code(m, r).t
    params = scheme.SigningParams(w=t, N=1, t=t)
    return scheme.keygen(m, r, params, np.random.default_rng(seed)).private.mod


def _syndromes(draw, width):
    rows = draw(st.integers(1, 64))
    return draw(hnp.arrays(np.uint8, (rows, width), elements=st.integers(0, 1)))


def _times_transpose(e, h):
    """e @ h.T over GF(2), in plain integer arithmetic."""
    return ((e.astype(np.int64) @ h.T.astype(np.int64)) & 1).astype(np.uint8)


@st.composite
def plain_batches(draw):
    m = draw(st.integers(2, 6))
    code = _code(m, draw(st.integers(1, m - 1)))
    return code, _syndromes(draw, code.n - code.k)


@st.composite
def modified_batches(draw, part):
    mod = _modified(*draw(st.sampled_from(MODIFIED_KEYS)))
    width = mod.n - mod.k - (mod.p if part == "top" else 0)
    return mod, _syndromes(draw, width)


@st.composite
def soft_words(draw, m_min, m_max, r_of):
    """(m, r, soft rows in {-1, 0, +1}); a 0 is an erasure."""
    m = draw(st.integers(m_min, m_max))
    r = draw(r_of(m))
    rows = draw(st.integers(1, 16))
    return m, r, draw(hnp.arrays(np.int8, (rows, 1 << m), elements=st.integers(-1, 1)))


@functools.cache
def _order_le1_words(m, r):
    """Every codeword of RM(r, m), r <= 1, in evaluation order: the
    constants, and for r = 1 each linear form <a, x> and its complement."""
    points = range(1 << m)
    coeffs = range(1 << m) if r == 1 else [0]
    forms = [[bin(a & x).count("1") & 1 for x in points] for a in coeffs]
    return np.array([[bit ^ c for bit in f] for f in forms for c in (0, 1)], dtype=np.int64)


class TestDecoderProperties:
    @PROPERTY
    @given(batch=soft_words(2, 6, lambda m: st.integers(1, m - 1)))
    def test_decode_closest_returns_codewords(self, batch):
        m, r, soft = batch
        code = _code(m, r)
        words = decoder.decode_closest(m, r, soft)
        assert words.shape == soft.shape
        assert not _times_transpose(words[:, code.info_perm], code.H).any()

    @PROPERTY
    @given(batch=soft_words(1, 5, lambda m: st.integers(0, 1)))
    def test_decode_closest_is_ml_up_to_order_1(self, batch):
        m, r, soft = batch
        words = decoder.decode_closest(m, r, soft).astype(np.int64)
        got = (soft * (1 - 2 * words)).sum(axis=1)
        best = (soft.astype(np.int64) @ (1 - 2 * _order_le1_words(m, r)).T).max(axis=1)
        assert (got >= best).all()

    @PROPERTY
    @given(batch=soft_words(2, 4, lambda m: st.just(m - 1)))
    def test_decode_closest_is_ml_at_order_m_minus_1(self, batch):
        m, r, soft = batch
        words = decoder.decode_closest(m, r, soft).astype(np.int64)
        got = (soft * (1 - 2 * words)).sum(axis=1)
        best = (soft.astype(np.int64) @ _even_weight_words(1 << m).T).max(axis=1)
        assert (got >= best).all()

    @PROPERTY
    @given(batch=plain_batches())
    def test_coset_leaders_meet_syndrome(self, batch):
        code, synd = batch
        e = decoder.coset_leaders(code, synd)
        assert np.array_equal(_times_transpose(e, code.H), synd)

    @PROPERTY
    @given(batch=modified_batches("top"))
    def test_punctured_coset_leaders_meet_syndrome(self, batch):
        mod, s_tops = batch
        e = decoder.punctured_coset_leaders(mod, s_tops)
        assert e.shape == (s_tops.shape[0], mod.n - mod.p)
        assert np.array_equal(_times_transpose(e, punctured_check(mod)), s_tops)

    @PROPERTY
    @given(batch=modified_batches("full"))
    def test_modified_coset_leaders_meet_syndrome(self, batch):
        mod, s_primes = batch
        e_primes = scheme._modified_coset_leaders(mod, s_primes)
        assert np.array_equal(_times_transpose(e_primes, mod.H), s_primes)
