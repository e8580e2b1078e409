import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rmsig import analysis, gf2, rmcode, scheme
from rmsig.decoder import coset_leaders

from reference import coset_leader_weights, identity


class TestCalibrate:
    def test_rm31_exhaustive_standard_array(self, rm31):
        # Oracle: exact coset-leader weights over all 2^4 syndromes.
        oracle = coset_leader_weights(rm31.H)
        expected = np.bincount(oracle)
        dist = analysis.calibrate(rm31, 0, np.random.default_rng(0), exhaustive=True)
        assert dist.samples == 16
        assert dist.histogram == {0: 1, 1: 8, 2: 7}
        assert dist.histogram == {w: int(c) for w, c in enumerate(expected) if c}

    def test_zero_syndrome_gives_weight_zero(self, rm41):
        e = coset_leaders(rm41, np.zeros(11, dtype=np.uint8))
        assert int(e.sum()) == 0

    def test_histogram_sums_to_samples(self, rm41):
        dist = analysis.calibrate(rm41, 500, np.random.default_rng(1))
        assert sum(dist.histogram.values()) == dist.samples == 500

    def test_reproducible_per_seed(self, rm41):
        a = analysis.calibrate(rm41, 300, np.random.default_rng(5))
        b = analysis.calibrate(rm41, 300, np.random.default_rng(5))
        assert a.histogram == b.histogram
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**62 + 7])
    @pytest.mark.parametrize("shape", [(1024, 386), (999, 197), (3, 5), (13,)])
    def test_byte_draw_gives_integers_bits(self, seed, shape):
        # gf2.random_bits, which calibrate draws its syndromes with, takes
        # its bits as the top bits of random bytes (pinned below).
        bytes_ = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
        bits = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)
        assert np.array_equal(bytes_ >> 7, bits), (
            "numpy's bounded uint8 draw (Lemire's method) no longer returns the "
            "top bit of one random byte for the range [0, 2); calibrate's "
            "syndromes would change"
        )

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**62 + 7])
    @pytest.mark.parametrize("shape", [(1024, 386), (999, 197), (3, 5), (13,)])
    def test_raw_words_give_integers_bytes(self, seed, shape):
        # calibrate draws each chunk's bits with gf2.random_bits from a
        # fresh default_rng, whose bytes are PCG64's raw 64-bit words read
        # as little-endian bytes.
        raw = gf2.random_bits(shape, np.random.default_rng(seed))
        bits = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)
        assert np.array_equal(raw, bits), (
            "the top bits of PCG64's raw words, read as little-endian bytes, are "
            "no longer the bits integers(0, 2, dtype=np.uint8) draws; calibration "
            "CSVs would change"
        )

    def test_exhaustive_chunks_match_one_decode(self):
        # RM(2,5) has 2^16 syndromes, so the exhaustive run spans 64 chunks.
        code = rmcode.build(5, 2)
        n_k = code.n - code.k
        assert (1 << n_k) // analysis._CHUNK == 64
        dist = analysis.calibrate(code, 0, np.random.default_rng(0), exhaustive=True)
        assert dist.samples == 2**16
        every = np.arange(1 << n_k, dtype=np.uint32)
        synd = ((every[:, None] >> np.arange(n_k, dtype=np.uint32)) & 1).astype(np.uint8)
        weights = coset_leaders(code, synd).sum(axis=1)
        expected = {w: int(c) for w, c in enumerate(np.bincount(weights)) if c}
        assert dist.histogram == expected

    def test_exhaustive_memory_is_bounded(self):
        # Decoding chunk by chunk keeps the 2^16-row syndrome array and its
        # decoded words from ever being formed at once.
        code = rmcode.build(5, 2)
        tracemalloc.start()
        try:
            analysis.calibrate(code, 0, np.random.default_rng(0), exhaustive=True)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_modified_code_uses_signing_path(self):
        params = scheme.SigningParams(w=10, N=10, t=3)
        kp = scheme.keygen(4, 1, params, np.random.default_rng(3))
        dist = analysis.calibrate(kp.private.mod, 400, np.random.default_rng(2))
        assert sum(dist.histogram.values()) == 400
        assert "/p=" in dist.code_id

    def test_csv_shape(self, rm31):
        dist = analysis.calibrate(rm31, 0, np.random.default_rng(0), exhaustive=True)
        lines = dist.to_csv().strip().split("\n")
        assert lines[0] == "weight,count"
        assert lines[1:] == ["0,1", "1,8", "2,7"]


class TestSuccessProbability:
    def synthetic(self, histogram, t=1):
        return analysis.WeightDistribution(
            code_id="synthetic",
            samples=sum(histogram.values()),
            histogram=histogram,
            t=t,
        )

    def test_q_zero(self):
        dist = self.synthetic({3: 10})
        assert analysis.success_probability(dist, 5, 7) == 1.0

    def test_direct_arithmetic(self):
        dist = self.synthetic({1: 1, 9: 1})  # q = 0.5 at w in [1, 8]
        assert analysis.success_probability(dist, 4, 2) == pytest.approx(0.75)

    def test_matches_monte_carlo(self):
        # Ten synthetic histograms, two (w, N) pairs each, 1e5 runs.
        rng = np.random.default_rng(42)
        for trial in range(10):
            support = rng.integers(1, 40, size=rng.integers(2, 6))
            counts = rng.integers(1, 50, size=support.size)
            hist = {}
            for s, c in zip(support, counts):
                hist[int(s)] = hist.get(int(s), 0) + int(c)
            dist = self.synthetic(hist)
            values = np.repeat(list(hist.keys()), list(hist.values()))
            for w, n_trials in [(int(rng.integers(1, 41)), int(rng.integers(1, 30))) for _ in range(2)]:
                runs = 100_000
                draws = rng.choice(values, size=(runs, n_trials))
                mc = (draws.min(axis=1) <= w).mean()
                closed = analysis.success_probability(dist, w, n_trials)
                assert abs(closed - mc) < 0.02

    def test_bad_n(self):
        with pytest.raises(ValueError):
            analysis.success_probability(self.synthetic({2: 1}), 1, 0)


class TestChooseParams:
    def synthetic(self, histogram, t=1):
        return analysis.WeightDistribution(
            code_id="synthetic", samples=sum(histogram.values()), histogram=histogram, t=t
        )

    def test_target_zero_takes_first(self):
        dist = self.synthetic({5: 1, 9: 1}, t=2)
        grid = [(9, 10), (6, 1), (6, 5)]
        params = analysis.choose_params(dist, 0.0, grid)
        assert (params.w, params.N) == (6, 1)
        assert params.t == 2

    def test_empty_tail_takes_w_min_and_n1(self):
        dist = self.synthetic({4: 3}, t=2)
        grid = [(w, n) for w in (4, 5, 6) for n in (1, 10)]
        params = analysis.choose_params(dist, 0.999, grid)
        assert (params.w, params.N) == (4, 1)

    def test_smallest_w_then_smallest_n(self):
        dist = self.synthetic({1: 1, 10: 9}, t=1)  # P(X<=1) = 0.1
        grid = [(1, 7), (1, 30), (10, 1)]
        # q = 0.9: N=7 gives 0.52, N=30 gives 0.958.
        params = analysis.choose_params(dist, 0.95, grid)
        assert (params.w, params.N) == (1, 30)

    def test_skips_w_below_t(self, rm41):
        """On RM(4,1), t = 3: w = 1 has a tiny success probability but is
        no valid SigningParams, so it is skipped, not raised on."""
        dist = analysis.calibrate(rm41, 4096, np.random.default_rng(0))
        params = analysis.choose_params(dist, 0.99, [(1, 1000), (3, 100)])
        assert (params.w, params.N, params.t) == (3, 100, 3)

    def test_skips_n_below_one(self):
        dist = self.synthetic({2: 1}, t=1)
        params = analysis.choose_params(dist, 0.0, [(1, 0), (2, 1)])
        assert (params.w, params.N) == (2, 1)

    def test_skips_n_or_w_beyond_32_bits(self):
        """SigningParams rejects w or N of 2**32; the grid goes on past them."""
        dist = self.synthetic({2: 1}, t=1)
        for grid in ([(3, 2**32)], [(2**32, 1)]):
            with pytest.raises(analysis.NoFeasibleParams):
                analysis.choose_params(dist, 0.9, grid)
        params = analysis.choose_params(dist, 0.9, [(3, 2**32), (4, 5)])
        assert (params.w, params.N) == (4, 5)

    def test_infeasible(self):
        dist = self.synthetic({9: 1})
        with pytest.raises(analysis.NoFeasibleParams):
            analysis.choose_params(dist, 0.9, [(1, 5)])
        with pytest.raises(analysis.NoFeasibleParams):
            analysis.choose_params(dist, 0.5, [])


class TestForgeryProbability:
    def test_single_term(self):
        est = analysis.forgery_probability(8, 4, 0)
        assert est.prob == Fraction(1, 16)
        assert est.log2_prob == pytest.approx(-4.0)

    @pytest.mark.parametrize(
        "n,k,w,bound",
        [
            (1024, 386, 192, -74),
            (1024, 638, 98, -70),
            (2048, 1024, 306, -122),
            (4096, 1586, 855, -186),
            (4096, 2510, 458, -209),
        ],
    )
    def test_security_table_exact_inequality(self, n, k, w, bound):
        est = analysis.forgery_probability(n, k, w)
        assert est.prob <= Fraction(1, 2 ** (-bound))
        assert est.log2_prob <= bound

    def test_monotone_and_saturates(self):
        probs = [analysis.forgery_probability(64, 32, w).prob for w in range(33)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            analysis.forgery_probability(16, 8, 9)
        with pytest.raises(ValueError):
            analysis.forgery_probability(16, 8, -1)

    def test_log2_never_positive(self):
        assert analysis.forgery_probability(32, 16, 16).log2_prob == pytest.approx(0.0)
        assert analysis.forgery_probability(32, 16, 3).log2_prob < 0


@pytest.fixture(scope="module")
def toy_attack_key():
    # RM(4,2): n-k = 5, so the closed form at w=1 is 6/32.
    params = scheme.SigningParams(w=1, N=10, t=1)
    return scheme.keygen(4, 2, params, np.random.default_rng(5))


class TestNaiveForgeryAttack:
    def test_toy_rate_matches_closed_form(self, toy_attack_key):
        rate = analysis.naive_forgery_attack(
            toy_attack_key.public, b"target", 10_000, np.random.default_rng(0)
        )
        assert abs(rate - 0.1875) < 0.02

    def test_toy_rate_within_3_stderr(self, toy_attack_key):
        trials = 10_000
        rate = analysis.naive_forgery_attack(
            toy_attack_key.public, b"target2", trials, np.random.default_rng(1)
        )
        p = float(analysis.forgery_probability(16, 11, 1).prob)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(rate - p) <= 3 * se

    @pytest.mark.parametrize("seed,successes", [(0, 194), (1, 204)])
    def test_success_count_is_pinned(self, toy_attack_key, seed, successes):
        """The counts that forming T s unpacked, by a product with the
        unpacked transform, gave for 1000 trials: forming it packed
        forges on exactly the same counters."""
        rate = analysis.naive_forgery_attack(
            toy_attack_key.public, b"target", 1000, np.random.default_rng(seed)
        )
        assert round(rate * 1000) == successes

    def test_message_is_hashed_once_per_attack(self, toy_attack_key, monkeypatch):
        """h(M) is taken once for all trials; verify's cross-check of each
        success takes it once more."""
        calls = []
        real = scheme._message_digest

        def counting(message):
            calls.append(message)
            return real(message)

        monkeypatch.setattr(scheme, "_message_digest", counting)
        rate = analysis.naive_forgery_attack(
            toy_attack_key.public, b"target", 1000, np.random.default_rng(0)
        )
        assert round(rate * 1000) == 194
        assert calls == [b"target"] * (1 + 194)

    def test_vacuous_weight_bound(self):
        params = scheme.SigningParams(w=5, N=10, t=1)
        kp = scheme.keygen(4, 2, params, np.random.default_rng(6))
        rate = analysis.naive_forgery_attack(kp.public, b"x", 200, np.random.default_rng(2))
        assert rate == 1.0

    def test_transform_reduces_to_identity_block(self, toy_attack_key):
        h_pub = toy_attack_key.public.H
        transform, cols = analysis.systematic_attack_transform(h_pub)
        sub = gf2.mat_mul(transform, h_pub[:, cols])
        assert np.array_equal(sub, identity(5))
        # This key's last n-k columns are rank deficient, so the transform
        # takes its fallback: one identity column lies left of them.
        assert np.count_nonzero(cols < h_pub.shape[1] - 5) == 1


def test_signing_path_tail():
    """The signing path's tail on key seed 1 of RM(10,5) at w = 99: its
    RM(3, 4) leaves decode exact u sums, which puts P(wt <= w) near
    4.4e-3 (1/p about 225).  Decoding their signs reads about 2.3e-3 on
    these 65,536 syndromes.  The bound lies more than 4 binomial standard
    deviations from both."""
    samples, w = 65_536, 99
    code = rmcode.build(10, 5)
    params = scheme.SigningParams(w=w, N=30_000, t=code.t)
    priv = scheme.keygen(10, 5, params, np.random.default_rng(1)).private
    dist = analysis.calibrate(priv.mod, samples, np.random.default_rng(2))
    assert 1 - dist.prob_gt(w) >= 3.2e-3


@pytest.mark.slow
def test_calibration_predicts_signing():
    """Calibrating the signing path predicts the counters that signing
    reaches.  Each counter is an independent trial that succeeds with the
    calibrated p = P(wt <= w), so a signature's counter i is geometric:
    mean 1/p and P(i > t) = (1 - p)**t.  Key seed 1 of RM(10,5) at
    w = 99, 1M calibrated syndromes and 2000 signatures.  The allowance
    is 4 standard deviations: the binomial (or, for the mean, geometric)
    spread of the signatures, plus the binomial spread of the calibrated
    p carried through the prediction."""
    samples, signatures = 1_000_000, 2000
    code = rmcode.build(10, 5)
    params = scheme.SigningParams(w=99, N=30_000, t=code.t)
    priv = scheme.keygen(10, 5, params, np.random.default_rng(1)).private
    dist = analysis.calibrate(priv.mod, samples, np.random.default_rng(2))
    p = 1 - dist.prob_gt(params.w)
    var_p = p * (1 - p) / samples
    counters = []
    for j in range(signatures):
        sig = scheme.sign(priv, b"calibration check %d" % j)
        assert isinstance(sig, scheme.Signature)
        counters.append(sig.i)
    counters = np.array(counters)

    mean_sd = np.sqrt((1 - p) / p**2 / signatures + var_p / p**4)
    assert abs(counters.mean() - 1 / p) <= 4 * mean_sd, (counters.mean(), 1 / p)
    for t in (1000, 2000, 3000):
        q = (1 - p) ** t
        share = (counters > t).mean()
        sd = np.sqrt(q * (1 - q) / signatures + (t * q / (1 - p)) ** 2 * var_p)
        assert abs(share - q) <= 4 * sd, (t, share, q)
