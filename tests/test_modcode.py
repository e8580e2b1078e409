import dataclasses
import hashlib
from math import comb

import numpy as np
import pytest

from rmsig import gf2, modcode, rmcode

from reference import (
    eliminated_alignment,
    eliminated_with_perm,
    enumerate_codewords,
    generator,
    identity,
    min_weight_of_span,
    modified_check,
    modified_generator,
    monomial_generator,
    punctured_check,
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
            assert set(np.flatnonzero(plan.y)) <= set(plan.deleted.tolist())
            # y's support sits inside x's support by construction.
            assert set(np.flatnonzero(plan.y)) <= set(np.flatnonzero(plan.x).tolist())

    def test_deterministic(self, rm41):
        a = modcode.puncture_plan(rm41, np.random.default_rng(11))
        b = modcode.puncture_plan(rm41, np.random.default_rng(11))
        assert a.p == b.p
        assert np.array_equal(a.deleted, b.deleted)

    def test_r0_rejected(self):
        code = rmcode.build(3, 0)
        with pytest.raises(ValueError):
            modcode.puncture_plan(code, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [1, 3])
    def test_r_equal_to_m_rejected(self, m):
        # RM(m, m) is the whole space: it has no parity part to puncture.
        with pytest.raises(ValueError, match="r < m"):
            modcode.puncture_plan(rmcode.build(m, m), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "m,r,counts", [(3, 1, [2, 3]), (4, 1, [4, 5, 6, 7]), (5, 2, [2, 3, 4]),
                       (4, 3, [1]), (10, 5, [1, 2]), (12, 6, [1, 2])])
    def test_puncture_counts(self, m, r, counts):
        """wt(y) to min(2 wt(y), d-1): all of [wt(y), 2 wt(y)] but d."""
        assert list(modcode.puncture_counts(m, r)) == counts

    @pytest.mark.parametrize("m,r", [(1, 1), (3, 0), (3, 3), (5, 6)])
    def test_puncture_counts_need_an_order_below_m(self, m, r):
        with pytest.raises(ValueError, match="1 <= r < m"):
            modcode.puncture_counts(m, r)

    @pytest.mark.parametrize(
        "m,r", [(m, r) for m in range(2, 11) for r in range(1, m)], ids=lambda v: str(v)
    )
    def test_y_is_a_minimum_weight_word_of_the_projection(self, m, r):
        """y lies in supp(x), in the code projected onto supp(x), and has
        that projection's minimum weight: 2**(m-2r), or 1 when 2r >= m."""
        code = rmcode.build(m, r)
        # supp(x) is an (m-r)-flat, so the projection is RM(min(r, m-r), m-r).
        dim = sum(comb(m - r, i) for i in range(min(r, m - r) + 1))
        for seed in range(4):
            plan = modcode.puncture_plan(code, np.random.default_rng(seed))
            sx = np.flatnonzero(plan.x)
            assert not (plan.y > plan.x).any()
            assert int(plan.y.sum()) == 1 << max(m - 2 * r, 0)
            projected = generator(code)[:, sx]
            assert len(gf2.rref(projected)[1]) == dim
            assert len(gf2.rref(np.vstack([projected, plan.y[sx]]))[1]) == dim
            if dim <= 16:
                assert int(plan.y.sum()) == min_weight_of_span(projected)

    def test_plans_with_2r_at_least_m_are_pinned(self):
        """SHA-256 of the plans (y, p, deleted) of key seeds 0-9 on the
        2r >= m codes RM(3,6), RM(4,8), RM(5,10) and RM(6,12), recorded
        while y was still found by a minimum-weight search: y is the first
        point of supp(x), so these plans and their keys keep their bytes."""
        digest = hashlib.sha256()
        for m, r in [(6, 3), (8, 4), (10, 5), (12, 6)]:
            code = rmcode.build(m, r)
            for seed in range(10):
                plan = modcode.puncture_plan(code, np.random.default_rng(seed))
                digest.update(plan.y.tobytes())
                digest.update(np.int64(plan.p).tobytes())
                digest.update(plan.deleted.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "d806736f81eee68a66a83c94ed1d54e4b7a59b908a594a9cd6452c2d3f1148d7"
        )


def assemble_both(code, deleted, seed=0):
    """H_m assembled from align_information_set, checked against the H_m
    the oracle assembles from its eliminated generator, with one R; both
    raise gf2.RankError or neither does.  Returns the modified code."""
    try:
        g, perm, expected = eliminated_alignment(code, deleted)
    except gf2.RankError:
        with pytest.raises(gf2.RankError):
            modcode.align_information_set(code, deleted)
        raise
    aligned = modcode.align_information_set(code, deleted)
    assert np.array_equal(aligned.deleted, expected)
    assert np.array_equal(aligned.info_perm, perm)
    # The deletion set lies in the parity part, strictly increasing, and
    # starts with the q leaving columns, which the alignment put at k.
    q, p = aligned.moved.shape[0], aligned.deleted.size
    assert (np.diff(aligned.deleted) > 0).all()
    assert ((code.k <= aligned.deleted) & (aligned.deleted < code.n)).all()
    assert np.array_equal(aligned.deleted[:q], np.arange(code.k, code.k + q))
    assert not aligned.deleted.flags.writeable
    r_block = np.random.default_rng(seed).integers(0, 2, size=(p, code.n - p), dtype=np.uint8)
    mod = modcode.assemble_modified(aligned, r_block)
    assert np.array_equal(mod.info_perm, perm)
    assert np.array_equal(mod.H, modified_check(g, expected, r_block))
    return mod


def assert_parent_words_satisfy(mod):
    """Every parent codeword, without the deleted columns, satisfies the
    punctured check, and those words span a space of the parent's dimension
    k: the punctured code is the parent's row space punctured."""
    raw = monomial_generator(mod.m, mod.r)[:, mod.info_perm]
    keep = np.setdiff1d(np.arange(mod.n), mod.deleted)
    assert not gf2.mat_mul(raw[:, keep], punctured_check(mod).T).any()
    assert len(gf2.rref(raw[:, keep])[1]) == mod.k


class TestAlignInformationSet:
    def test_already_parity_is_unchanged(self, rm31):
        deleted = [rm31.k, rm31.k + 2]
        aligned = modcode.align_information_set(rm31, deleted)
        assert aligned.code is rm31
        assert np.array_equal(aligned.order, np.arange(rm31.n))
        assert aligned.moved.shape == (0, rm31.n)
        assert np.array_equal(aligned.deleted, deleted)
        assert np.array_equal(assemble_both(rm31, deleted).info_perm, rm31.info_perm)

    def test_info_column_moves_row_space_preserved(self, rm31):
        deleted = [0, rm31.k]  # column 0 is in the information part
        mod = assemble_both(rm31, deleted)
        assert (mod.deleted >= mod.k).all()
        assert mod.deleted.size == 2
        assert not np.array_equal(mod.info_perm, rm31.info_perm)
        assert_parent_words_satisfy(mod)

    def test_aligned_code_is_consistent(self, rm41):
        mod = assemble_both(rm41, [0, 1, rm41.k + 1])
        assert not gf2.mat_mul(modified_generator(mod), mod.H.T).any()
        assert_parent_words_satisfy(mod)

    def test_moving_columns_reduces_only_leaving_rows(self, rref_shapes):
        code = rmcode.build(8, 4)
        deleted = [0, 5, code.k + 3]
        aligned = modcode.align_information_set(code, deleted)
        assert not np.array_equal(aligned.info_perm, code.info_perm)
        assert rref_shapes == [(2, code.n)]

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 3)])
    def test_random_deletions_match_elimination(self, m, r):
        """Both raise RankError or give the same H_m, column order and
        deletion set."""
        code = rmcode.build(m, r)
        rng = np.random.default_rng(10 * m + r)
        outcomes = set()
        for trial in range(40):
            size = int(rng.integers(1, code.n - code.k + 1))
            deleted = rng.choice(code.n, size=size, replace=False)
            if trial % 4 == 0:  # many information columns at once
                deleted = np.union1d(deleted, rng.choice(code.k, size=code.k // 2, replace=False))
            try:
                assemble_both(code, deleted, seed=trial)
            except gf2.RankError:
                outcomes.add("raise")
                continue
            outcomes.add("equal")
        assert outcomes == {"raise", "equal"}

    def test_max_deletion_still_aligns(self, rm31):
        # Delete as many columns as the parity part can hold.
        mod = assemble_both(rm31, list(range(rm31.n - rm31.k)))
        assert (mod.deleted >= mod.k).all()
        assert mod.n - mod.k - mod.p == 0
        assert_parent_words_satisfy(mod)

    def test_only_whole_support_plans_fail_to_align(self):
        """A plan's deleted columns hold a nonzero codeword, and so leave
        no information set, exactly when p = d: a codeword has weight >= d
        and p <= d, so the deletion set is then all of supp(x), which
        happens only for r = 1 or m-1.  Over 8 seeds x 4 plans of every
        code, such plans occur on RM(1, m) for m <= 7 and on RM(m-1, m).
        A plan aligns exactly when its p is one of puncture_counts."""
        whole_support = set()
        for m in range(2, 11):
            for r in range(1, m):
                code = rmcode.build(m, r)
                for seed in range(8):
                    rng = np.random.default_rng(seed)
                    for _ in range(4):
                        plan = modcode.puncture_plan(code, rng)
                        counted = plan.p in modcode.puncture_counts(m, r)
                        if plan.p < code.d:
                            modcode.align_information_set(code, plan.deleted)
                            assert counted
                            continue
                        assert not counted
                        with pytest.raises(gf2.RankError):
                            modcode.align_information_set(code, plan.deleted)
                        assert np.array_equal(plan.deleted, np.flatnonzero(plan.x))
                        assert r in (1, m - 1)
                        whole_support.add((m, r))
        expected = {(m, 1) for m in range(2, 8)} | {(m, m - 1) for m in range(2, 11)}
        assert whole_support == expected

    def test_too_many_deletions(self, rm31):
        with pytest.raises(gf2.RankError):
            modcode.align_information_set(rm31, range(5))


class TestBuildModified:
    def test_degenerate_p0(self, rm41):
        unaligned = modcode.align_information_set(rm41, [])
        mod = modcode.build_modified(unaligned, np.random.default_rng(0))
        assert mod.p == 0
        assert np.array_equal(mod.H, rm41.H)
        assert np.array_equal(modified_generator(mod), generator(rm41))

    def test_block_shapes(self):
        code = rmcode.build(4, 1)
        rng = np.random.default_rng(1)
        plan = modcode.puncture_plan(code, rng)
        aligned = modcode.align_information_set(code, plan.deleted)
        mod = modcode.build_modified(aligned, rng)
        n, k, p = mod.n, mod.k, mod.p
        assert mod.H.shape == (n - k, n)
        assert modified_generator(mod).shape == (k, n)
        assert mod.R.shape == (p, n - p)
        # H_m's packed rows are the only matrix stored: R and P'^T are read
        # from its blocks, and no field holds the parent code.
        fields = [getattr(mod, f.name) for f in dataclasses.fields(mod)]
        matrices = [value for value in fields if np.ndim(value) == 2]
        assert len(matrices) == 1 and matrices[0] is mod.packed_H
        bits = np.unpackbits(mod.packed_H, axis=1, count=n)
        assert np.array_equal(mod.R, bits[n - k - p :, : n - p])
        assert np.array_equal(punctured_check(mod)[:, :k], bits[: n - k - p, :k])
        assert not any(isinstance(value, rmcode.RmCode) for value in fields)
        assert np.array_equal(mod.H[n - k - p :, n - p :], identity(p))
        assert not mod.H[: n - k - p, n - p :].any()

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2)])
    def test_orthogonality_every_seed(self, m, r):
        code = rmcode.build(m, r)
        built = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            plan = modcode.puncture_plan(code, rng)
            if plan.p == code.d:
                continue
            mod = modcode.build_modified(modcode.align_information_set(code, plan.deleted), rng)
            built += 1
            assert not gf2.mat_mul(modified_generator(mod), mod.H.T).any()
            # The parent's generator without the deleted columns is orthogonal
            # to H_m's punctured block.
            parent = eliminated_with_perm(mod.m, mod.r, mod.info_perm)
            g_p = np.delete(parent, mod.deleted, axis=1)
            assert not gf2.mat_mul(g_p, punctured_check(mod).T).any()
        assert built >= 4

    def test_punctured_row_space(self, rm41):
        # Rows of the punctured generator are parent codewords with the
        # deleted columns dropped.
        rng = np.random.default_rng(3)
        plan = modcode.puncture_plan(rm41, rng)
        aligned = modcode.align_information_set(rm41, plan.deleted)
        mod = modcode.build_modified(aligned, rng)
        keep = np.setdiff1d(np.arange(mod.n), mod.deleted)
        g = eliminated_with_perm(mod.m, mod.r, mod.info_perm)
        parent = {tuple(c[keep]) for c in enumerate_codewords(g)}
        p_kept = punctured_check(mod)[:, : mod.k].T
        g_p = np.concatenate([identity(mod.k), p_kept], axis=1)
        punctured = {tuple(c) for c in enumerate_codewords(g_p)}
        assert punctured == parent
