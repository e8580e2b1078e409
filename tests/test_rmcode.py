import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rmsig import gf2, rmcode

from reference import (
    eliminated_code,
    enumerate_codewords,
    generator,
    identity,
    min_distance,
    monomial_generator,
    same_row_space,
    to_eval_order,
    vec_product,
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
    assert same_row_space(generator(code), identity(4))


def test_build_rm31(rm31):
    assert (rm31.n, rm31.k, rm31.d) == (8, 4, 4)
    assert rm31.t == 1


def test_build_shares_one_read_only_code_while_referenced():
    # No fixture holds RM(7,2), so this test's references are the only ones.
    code = rmcode.build(7, 2)
    assert rmcode.build(7, 2) is code
    for arr in (code.packed_H, code.info_perm):
        assert not arr.flags.writeable
    packed, ref = code.packed_H.copy(), weakref.ref(code)
    # H is unpacked on every read: a write to one read reaches neither
    # the packed block nor the next read.
    h = code.H
    assert np.array_equal(h, code.H) and h is not code.H
    h ^= 1
    assert np.array_equal(code.packed_H, packed)
    assert np.array_equal(code.H, h ^ 1)
    del code
    gc.collect()
    assert ref() is None
    again = rmcode.build(7, 2)
    assert np.array_equal(again.packed_H, packed)
    assert rmcode.build(7, 2) is again


@pytest.mark.parametrize("m,r", [(3, 0), (4, 1), (5, 2), (6, 3), (4, 4), (10, 5)])
def test_packed_parity_block_unpacks_to_p_transposed(m, r):
    """packed_H holds [P^T | I] with zero pad bits, and H unpacks it."""
    code = rmcode.build(m, r)
    n, k = code.n, code.k
    packed = code.packed_H
    assert packed.shape == (n - k, (n + 7) // 8)
    assert not packed.flags.writeable and code.packed_H is packed
    expected = np.concatenate([generator(code)[:, k:].T, identity(n - k)], axis=1)
    assert np.array_equal(packed, np.packbits(expected, axis=1))
    assert np.array_equal(code.H, expected)


def test_threads_building_one_code_get_equal_codes():
    # Each build drops its code at once, so codes are built and freed
    # while other threads look them up; two threads may build one code
    # twice, but never get a wrong or missing one.
    expected = rmcode.build(8, 3).packed_H.copy()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: rmcode.build(8, 3).packed_H.copy()) for _ in range(64)]
            blocks = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for packed in blocks:
        assert np.array_equal(packed, expected)


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
    g = generator(code)
    assert not gf2.mat_mul(g, code.H.T).any()
    assert (g.sum(axis=1) >= code.d).all()


def test_systematic_row_space_matches_monomials(rm31):
    raw = monomial_generator(3, 1)
    eval_order = np.empty((rm31.k, rm31.n), dtype=np.uint8)
    eval_order[:, rm31.info_perm] = generator(rm31)
    assert same_row_space(eval_order, raw)


@pytest.mark.parametrize("m,r", [(3, 1), (4, 1), (3, 2), (4, 2)])
def test_exhaustive_min_distance(m, r):
    code = rmcode.build(m, r)
    assert min_distance(generator(code)) == code.d


class TestMinWeightCodeword:
    def test_r0_all_ones(self):
        code = rmcode.build(3, 0)
        w = rmcode.min_weight_codeword(code, np.random.default_rng(0))
        assert w.sum() == 8 and (w == 1).all()

    def test_rm31_member(self, rm31):
        codewords = {tuple(c) for c in enumerate_codewords(generator(rm31))}
        for seed in range(10):
            x = rmcode.min_weight_codeword(rm31, np.random.default_rng(seed))
            assert int(x.sum()) == 4
            assert tuple(x) in codewords

    def test_rm42_weight_and_membership(self):
        code = rmcode.build(4, 2)
        for seed in range(10):
            x = rmcode.min_weight_codeword(code, np.random.default_rng(seed))
            assert int(x.sum()) == 4
            assert not vec_product(code.H, x).any()

    def test_deterministic(self, rm41):
        a = rmcode.min_weight_codeword(rm41, np.random.default_rng(5))
        b = rmcode.min_weight_codeword(rm41, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestProj:
    """The code projected onto a minimum-weight support, an (m-r)-flat,
    is RM(min(r, m-r), m-r), whose lightest words puncture_plan draws."""

    def test_rm31_onto_min_weight_support(self, rm31):
        # Enumerating all 16 codewords and projecting them is the oracle.
        x = rmcode.min_weight_codeword(rm31, np.random.default_rng(1))
        sx = np.flatnonzero(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(generator(rm31))}
        weights = sorted(sum(c) for c in projected if any(c))
        assert weights[0] == 2
        assert np.log2(len(projected)) == 3

    def test_rm41_onto_min_weight_support(self, rm41):
        x = rmcode.min_weight_codeword(rm41, np.random.default_rng(2))
        sx = np.flatnonzero(x)
        projected = {tuple(c[sx]) for c in enumerate_codewords(generator(rm41))}
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
    h = np.concatenate([g[:, code.k :].T, identity(code.n - code.k)], axis=1)
    assert np.array_equal(code.packed_H, np.packbits(h, axis=1))
    assert np.array_equal(code.rows(np.arange(code.k)), g)
    assert np.array_equal(code.info_perm, perm)


def test_build_forms_no_generator():
    """A fresh RM(6,12) build peaks below half the bytes of a k x n uint8
    generator, and above the packed parity check it keeps, so it was
    built while traced."""
    gc.collect()  # no other test's RM(6,12) is left to share
    tracemalloc.start()
    try:
        code = rmcode.build(12, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.packed_H.nbytes < peak < code.k * code.n // 2


@pytest.mark.parametrize("m,r", [(4, 1), (6, 3), (8, 4)])
def test_build_reduces_nothing(m, r, rref_shapes):
    rmcode.build(m, r)
    assert rref_shapes == []


def test_eval_order_round_trip(rm41):
    rng = np.random.default_rng(9)
    v = rng.integers(0, 2, size=rm41.n, dtype=np.uint8)
    assert np.array_equal(to_eval_order(rm41, v)[rm41.info_perm], v)
