import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rmsig import gf2, rmcode

from reference import (
    eliminated_code,
    enumerate_codewords,
    min_distance,
    monomial_generator,
    same_row_space,
    to_eval_order,
)


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


def test_build_shares_one_read_only_code_while_referenced():
    # No fixture holds RM(7,2), so this test's references are the only ones.
    code = rmcode.build(7, 2)
    assert rmcode.build(7, 2) is code
    for arr in (code.G, code.info_perm, code.H):
        assert not arr.flags.writeable
    g, ref = code.G.copy(), weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
    again = rmcode.build(7, 2)
    assert np.array_equal(again.G, g)
    assert rmcode.build(7, 2) is again


@pytest.mark.parametrize("m,r", [(3, 0), (4, 1), (5, 2), (6, 3), (4, 4), (10, 5)])
def test_packed_parity_block_unpacks_to_p_transposed(m, r):
    code = rmcode.build(m, r)
    packed = code.packed_PT
    assert packed.shape == (code.n - code.k, (code.k + 7) // 8)
    assert not packed.flags.writeable and code.packed_PT is packed
    bits = np.unpackbits(packed, axis=1, count=code.k, bitorder="little")
    assert np.array_equal(bits, code.G[:, code.k :].T)


def test_threads_building_one_code_get_equal_codes():
    # Each build drops its code at once, so codes are built and freed
    # while other threads look them up; two threads may build one code
    # twice, but never get a wrong or missing one.
    expected = rmcode.build(8, 3).G.copy()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: rmcode.build(8, 3).G.copy()) for _ in range(64)]
            generators = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for g in generators:
        assert np.array_equal(g, expected)


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
    raw = monomial_generator(3, 1)
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
    """The code projected onto a minimum-weight support, an (m-r)-flat,
    is RM(min(r, m-r), m-r), whose lightest words puncture_plan draws."""

    def test_rm31_onto_min_weight_support(self, rm31):
        # Enumerating all 16 codewords and projecting them is the oracle.
        x = rmcode.min_weight_codeword(rm31, np.random.default_rng(1))
        sx = rmcode.supp(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(rm31.G)}
        weights = sorted(sum(c) for c in projected if any(c))
        assert weights[0] == 2
        assert np.log2(len(projected)) == 3

    def test_rm41_onto_min_weight_support(self, rm41):
        x = rmcode.min_weight_codeword(rm41, np.random.default_rng(2))
        sx = rmcode.supp(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(rm41.G)}
        assert min(sum(c) for c in projected if any(c)) == 4


ALL_CODES = [
    pytest.param(m, r, marks=[pytest.mark.slow] if m >= 11 else [])
    for m in range(rmcode.MAX_M + 1)
    for r in range(m + 1)
]


@pytest.mark.parametrize("m,r", ALL_CODES)
def test_build_matches_elimination(m, r):
    """The closed form is the systematic form a row reduction of the
    monomial generator gives, information set included."""
    code = rmcode.build(m, r)
    g, perm = eliminated_code(m, r)
    assert np.array_equal(code.G, g)
    assert np.array_equal(code.info_perm, perm)


@pytest.mark.parametrize("m,r", [(4, 1), (6, 3), (8, 4)])
def test_build_reduces_nothing(m, r, rref_shapes):
    rmcode.build(m, r)
    assert rref_shapes == []


def test_eval_order_round_trip(rm41):
    rng = np.random.default_rng(9)
    v = rng.integers(0, 2, size=rm41.n, dtype=np.uint8)
    assert np.array_equal(rm41.to_sys_order(to_eval_order(rm41, v)), v)
