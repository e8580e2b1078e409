import numpy as np
import pytest

from rmsig import gf2, modcode, rmcode

from reference import (
    eliminated_alignment,
    enumerate_codewords,
    modified_generator,
    monomial_generator,
    punctured_check,
    same_row_space,
)


class TestPuncturePlan:
    def test_rm31_weights_and_range(self, rm31):
        # Exhaustive projection oracle: the projected minimum weight is 2.
        seen_p = set()
        for seed in range(30):
            plan = modcode.puncture_plan(rm31, np.random.default_rng(seed))
            assert int(plan.x.sum()) == 4
            assert int(plan.y.sum()) == 2
            assert plan.p in {2, 3, 4}
            seen_p.add(plan.p)
        assert seen_p == {2, 3, 4}

    def test_rm41_weights_and_range(self, rm41):
        for seed in range(20):
            plan = modcode.puncture_plan(rm41, np.random.default_rng(seed))
            assert int(plan.y.sum()) == 4
            assert 4 <= plan.p <= 8

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3)])
    def test_constraints_by_construction(self, m, r):
        code = rmcode.build(m, r)
        for seed in range(8):
            plan = modcode.puncture_plan(code, np.random.default_rng(seed))
            wy = int(plan.y.sum())
            assert wy <= plan.p <= 2 * wy
            assert plan.deleted.size == plan.p
            assert set(rmcode.supp(plan.y)) <= set(plan.deleted.tolist())
            # y's support sits inside x's support by construction.
            assert set(rmcode.supp(plan.y)) <= set(rmcode.supp(plan.x).tolist())

    def test_deterministic(self, rm41):
        a = modcode.puncture_plan(rm41, np.random.default_rng(11))
        b = modcode.puncture_plan(rm41, np.random.default_rng(11))
        assert a.p == b.p
        assert np.array_equal(a.deleted, b.deleted)

    def test_r0_rejected(self):
        code = rmcode.build(3, 0)
        with pytest.raises(ValueError):
            modcode.puncture_plan(code, np.random.default_rng(0))


def unpermuted_rows(code):
    """Rows of G written back in evaluation order, for row-space oracles."""
    out = np.empty_like(code.G)
    out[:, code.info_perm] = code.G
    return out


class TestAlignInformationSet:
    def test_already_parity_is_unchanged(self, rm31):
        deleted = [rm31.k, rm31.k + 2]
        aligned, new_deleted = modcode.align_information_set(rm31, deleted)
        assert aligned is rm31
        assert np.array_equal(new_deleted, deleted)

    def test_info_column_moves_row_space_preserved(self, rm31):
        deleted = [0, rm31.k]  # column 0 is in the information part
        aligned, new_deleted = modcode.align_information_set(rm31, deleted)
        assert (new_deleted >= aligned.k).all()
        assert new_deleted.size == 2
        assert same_row_space(unpermuted_rows(aligned), unpermuted_rows(rm31))
        assert same_row_space(unpermuted_rows(aligned), monomial_generator(3, 1))

    def test_aligned_code_is_consistent(self, rm41):
        deleted = [0, 1, rm41.k + 1]
        aligned, new_deleted = modcode.align_information_set(rm41, deleted)
        assert not gf2.mat_mul(aligned.G, aligned.H.T).any()
        assert np.array_equal(aligned.G[:, : aligned.k], gf2.identity(aligned.k))

    def test_moving_columns_reduces_only_leaving_rows(self, rref_shapes):
        code = rmcode.build(8, 4)
        deleted = [0, 5, code.k + 3]
        aligned, _ = modcode.align_information_set(code, deleted)
        assert not np.array_equal(aligned.info_perm, code.info_perm)
        assert rref_shapes == [(2, code.n)]

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 3)])
    def test_random_deletions_match_elimination(self, m, r):
        """Both raise RankError or give the same code and deletion set."""
        code = rmcode.build(m, r)
        rng = np.random.default_rng(10 * m + r)
        outcomes = set()
        for trial in range(40):
            size = int(rng.integers(1, code.n - code.k + 1))
            deleted = rng.choice(code.n, size=size, replace=False)
            if trial % 4 == 0:  # many information columns at once
                deleted = np.union1d(deleted, rng.choice(code.k, size=code.k // 2, replace=False))
            try:
                g, perm, expected = eliminated_alignment(code, deleted)
            except gf2.RankError:
                with pytest.raises(gf2.RankError):
                    modcode.align_information_set(code, deleted)
                outcomes.add("raise")
                continue
            aligned, new_deleted = modcode.align_information_set(code, deleted)
            assert np.array_equal(aligned.G, g)
            assert np.array_equal(aligned.info_perm, perm)
            assert np.array_equal(new_deleted, expected)
            outcomes.add("equal")
        assert outcomes == {"raise", "equal"}

    def test_max_deletion_still_aligns(self, rm31):
        # Delete as many columns as the parity part can hold.
        deleted = list(range(rm31.n - rm31.k))
        aligned, new_deleted = modcode.align_information_set(rm31, deleted)
        assert (new_deleted >= aligned.k).all()
        assert not gf2.mat_mul(aligned.G, aligned.H.T).any()

    def test_too_many_deletions(self, rm31):
        with pytest.raises(gf2.RankError):
            modcode.align_information_set(rm31, range(5))


class TestBuildModified:
    def test_degenerate_p0(self, rm41):
        mod = modcode.build_modified(rm41, [], np.random.default_rng(0))
        assert mod.p == 0
        assert np.array_equal(mod.H, rm41.H)
        assert np.array_equal(modified_generator(mod), rm41.G)

    def test_block_shapes(self):
        code = rmcode.build(4, 1)
        rng = np.random.default_rng(1)
        plan = modcode.puncture_plan(code, rng)
        aligned, deleted = modcode.align_information_set(code, plan.deleted)
        mod = modcode.build_modified(aligned, deleted, rng)
        n, k, p = mod.n, mod.k, mod.p
        assert mod.H.shape == (n - k, n)
        assert modified_generator(mod).shape == (k, n)
        assert mod.R.shape == (p, n - p)
        assert mod.P_kept.shape == (k, n - k - p)
        assert np.array_equal(mod.H[: n - k - p, :k], mod.P_kept.T)
        assert np.array_equal(mod.H[n - k - p :, n - p :], gf2.identity(p))
        assert not mod.H[: n - k - p, n - p :].any()

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2)])
    def test_orthogonality_every_seed(self, m, r):
        # Tiny codes can produce unalignable plans; resample like keygen does.
        code = rmcode.build(m, r)
        built = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            plan = modcode.puncture_plan(code, rng)
            try:
                aligned, deleted = modcode.align_information_set(code, plan.deleted)
            except gf2.RankError:
                continue
            mod = modcode.build_modified(aligned, deleted, rng)
            built += 1
            assert not gf2.mat_mul(modified_generator(mod), mod.H.T).any()
            # Punctured pair of the plain deletion is orthogonal too.
            g_p = np.concatenate([gf2.identity(mod.k), mod.P_kept], axis=1)
            assert not gf2.mat_mul(g_p, punctured_check(mod).T).any()
        assert built >= 4

    @pytest.mark.parametrize("m,r,seed", [(4, 1, 1), (5, 2, 0), (6, 3, 2), (8, 4, 1), (10, 5, 1)])
    def test_left_product_matches_mat_mul(self, m, r, seed):
        """keygen's S @ H_m, read from H_m's identity columns, against the
        plain product; for rows of S and for a rectangular block."""
        code = rmcode.build(m, r)
        rng = np.random.default_rng(seed)
        plan = modcode.puncture_plan(code, rng)
        aligned, deleted = modcode.align_information_set(code, plan.deleted)
        mod = modcode.build_modified(aligned, deleted, rng)
        assert mod.p >= 1
        for rows in (mod.n - mod.k, 3):
            s = rng.integers(0, 2, size=(rows, mod.n - mod.k), dtype=np.uint8)
            assert np.array_equal(mod.left_product(s), gf2.mat_mul(s, mod.H))

    def test_left_product_without_inserted_rows(self, rm41):
        mod = modcode.build_modified(rm41, [], np.random.default_rng(0))
        s = np.random.default_rng(1).integers(0, 2, size=(11, 11), dtype=np.uint8)
        assert np.array_equal(mod.left_product(s), gf2.mat_mul(s, mod.H))

    def test_unaligned_deletions_rejected(self, rm31):
        with pytest.raises(ValueError):
            modcode.build_modified(rm31, [0], np.random.default_rng(0))

    def test_punctured_row_space(self, rm41):
        # Rows of the punctured generator are parent codewords with the
        # deleted columns dropped.
        rng = np.random.default_rng(3)
        plan = modcode.puncture_plan(rm41, rng)
        aligned, deleted = modcode.align_information_set(rm41, plan.deleted)
        mod = modcode.build_modified(aligned, deleted, rng)
        keep = np.setdiff1d(np.arange(mod.n), mod.deleted)
        parent = {tuple(c[keep]) for c in enumerate_codewords(aligned.G)}
        g_p = np.concatenate([gf2.identity(mod.k), mod.P_kept], axis=1)
        punctured = {tuple(c) for c in enumerate_codewords(g_p)}
        assert punctured == parent
