import numpy as np
import pytest

from rmsig import gf2, rmcode

from reference import enumerate_codewords, min_distance, same_row_space, to_eval_order


@pytest.mark.parametrize(
    "m,r,n,k,d",
    [
        (10, 4, 1024, 386, 64),
        (10, 5, 1024, 638, 32),
        (11, 5, 2048, 1024, 64),
        (12, 5, 4096, 1586, 128),
        (12, 6, 4096, 2510, 64),
    ],
)
def test_build_parameter_table(m, r, n, k, d):
    code = rmcode.build(m, r)
    assert (code.n, code.k, code.d) == (n, k, d)


def test_build_full_space_m2_r2():
    code = rmcode.build(2, 2)
    assert (code.n, code.k, code.d) == (4, 4, 1)
    assert same_row_space(code.G, gf2.identity(4))


def test_build_rm31(rm31):
    assert (rm31.n, rm31.k, rm31.d) == (8, 4, 4)
    assert rm31.t == 1


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        rmcode.build(3, 4)
    with pytest.raises(ValueError):
        rmcode.build(13, 2)
    with pytest.raises(ValueError):
        rmcode.build(3, -1)


@pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (10, 5)])
def test_generator_check_orthogonal(m, r):
    code = rmcode.build(m, r)
    assert not gf2.mat_mul(code.G, code.H.T).any()
    assert (code.G.sum(axis=1) >= code.d).all()


def test_systematic_row_space_matches_monomials(rm31):
    raw = rmcode.monomial_generator(3, 1)
    eval_order = np.empty((rm31.k, rm31.n), dtype=np.uint8)
    eval_order[:, rm31.info_perm] = rm31.G
    assert same_row_space(eval_order, raw)


@pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (3, 2), (4, 2)])
def test_exhaustive_min_distance(m, r):
    code = rmcode.build(m, r)
    assert min_distance(code.G) == code.d


class TestMinWeightCodeword:
    def test_r0_all_ones(self):
        code = rmcode.build(3, 0)
        w = rmcode.min_weight_codeword(code, np.random.default_rng(0))
        assert w.sum() == 8 and (w == 1).all()

    def test_rm31_member(self, rm31):
        codewords = {tuple(c) for c in enumerate_codewords(rm31.G)}
        for seed in range(10):
            x = rmcode.min_weight_codeword(rm31, np.random.default_rng(seed))
            assert int(x.sum()) == 4
            assert tuple(x) in codewords

    def test_rm42_weight_and_membership(self):
        code = rmcode.build(4, 2)
        for seed in range(10):
            x = rmcode.min_weight_codeword(code, np.random.default_rng(seed))
            assert int(x.sum()) == 4
            assert not gf2.mat_mul(code.H, x).any()

    def test_deterministic(self, rm41):
        a = rmcode.min_weight_codeword(rm41, np.random.default_rng(5))
        b = rmcode.min_weight_codeword(rm41, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestSupp:
    def test_empty(self):
        assert rmcode.supp(np.zeros(8, dtype=np.uint8)).size == 0

    def test_by_definition(self):
        v = np.array([1, 0, 0, 1, 0, 0, 0, 1], dtype=np.uint8)
        assert set(rmcode.supp(v)) == {0, 3, 7}

    def test_all_ones(self):
        assert set(rmcode.supp(np.ones(6, dtype=np.uint8))) == set(range(6))


class TestProj:
    def test_full_projection_is_identity(self, rm31):
        g = rmcode.proj(rm31, range(rm31.n))
        assert same_row_space(g, rm31.G)

    def test_empty_rejected(self, rm31):
        with pytest.raises(ValueError):
            rmcode.proj(rm31, [])

    def test_rm31_onto_min_weight_support(self, rm31):
        # Enumerating all 16 codewords and projecting them is the oracle.
        x = rmcode.min_weight_codeword(rm31, np.random.default_rng(1))
        sx = rmcode.supp(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(rm31.G)}
        g = rmcode.proj(rm31, sx)
        assert {tuple(c) for c in enumerate_codewords(g)} == projected
        weights = sorted(sum(c) for c in projected if any(c))
        assert weights[0] == 2
        assert np.log2(len(projected)) == 3

    def test_rm41_onto_min_weight_support(self, rm41):
        x = rmcode.min_weight_codeword(rm41, np.random.default_rng(2))
        sx = rmcode.supp(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(rm41.G)}
        assert min(sum(c) for c in projected if any(c)) == 4

    def test_projection_composes(self, rm41):
        # Projecting onto L then onto positions-within-L equals projecting
        # onto L[inner] directly.
        L = np.array([0, 2, 5, 7, 9, 12])
        inner = np.array([1, 3, 4])
        assert same_row_space(
            rmcode.proj(rm41, L)[:, inner], rmcode.proj(rm41, L[inner])
        )


class TestMinWeightInRowspace:
    def test_identity(self):
        w = rmcode.min_weight_in_rowspace(gf2.identity(2), np.random.default_rng(0))
        assert int(w.sum()) == 1

    def test_projected_rm31(self, rm31):
        x = rmcode.min_weight_codeword(rm31, np.random.default_rng(3))
        g = rmcode.proj(rm31, rmcode.supp(x))
        y = rmcode.min_weight_in_rowspace(g, np.random.default_rng(0))
        assert int(y.sum()) == 2

    def test_projected_rm41(self, rm41):
        x = rmcode.min_weight_codeword(rm41, np.random.default_rng(4))
        g = rmcode.proj(rm41, rmcode.supp(x))
        y = rmcode.min_weight_in_rowspace(g, np.random.default_rng(0))
        assert int(y.sum()) == 4

    def test_randomized_path_finds_min(self, monkeypatch):
        # Dimension 22 forces the information-set search; planted min weight 2.
        monkeypatch.setattr(rmcode, "SEARCH_BUDGET", 64)
        rng = np.random.default_rng(6)
        g = np.zeros((22, 40), dtype=np.uint8)
        g[:, :22] = gf2.identity(22)
        g[:, 22:] = gf2.random_bits((22, 18), rng)
        g[0] = 0
        g[0, 38] = g[0, 39] = 1
        found = rmcode.min_weight_in_rowspace(g, np.random.default_rng(7))
        assert int(found.sum()) <= 3

    def test_zero_rowspace_rejected(self):
        with pytest.raises(ValueError):
            rmcode.min_weight_in_rowspace(np.zeros((3, 5), dtype=np.uint8), np.random.default_rng(0))

    def test_result_in_rowspace(self, rm31):
        y = rmcode.min_weight_in_rowspace(rm31.G, np.random.default_rng(8))
        assert int(y.sum()) == rm31.d
        assert not gf2.mat_mul(rm31.H, y).any()


def test_build_with_perm_round_trip():
    code = rmcode.build(5, 2)
    again = rmcode.build_with_perm(5, 2, code.info_perm)
    assert np.array_equal(again.G, code.G)
    assert np.array_equal(again.info_perm, code.info_perm)


@pytest.mark.parametrize("m,r", [(4, 1), (6, 3), (8, 4)])
def test_build_reduces_once(m, r, rref_shapes):
    code = rmcode.build(m, r)
    assert rref_shapes == [(code.k, code.n)]


def test_build_with_perm_reduces_once(rref_shapes):
    code = rmcode.build(6, 3)
    rref_shapes.clear()
    rmcode.build_with_perm(6, 3, code.info_perm)
    assert rref_shapes == [(code.k, code.n)]


def test_build_with_perm_rejects_dependent_front():
    # Points 0..3 of RM(1, 3) lie on an affine plane: no information set.
    with pytest.raises(gf2.RankError):
        rmcode.build_with_perm(3, 1, np.arange(8))
    with pytest.raises(ValueError):
        rmcode.build_with_perm(3, 1, np.zeros(8, dtype=np.int64))


def test_eval_order_round_trip(rm41):
    rng = np.random.default_rng(9)
    v = rng.integers(0, 2, size=rm41.n, dtype=np.uint8)
    assert np.array_equal(rm41.to_sys_order(to_eval_order(rm41, v)), v)
