"""Tests for the cache-blocked CPU permutation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.blocked import BlockedPermutation, blocked_transpose
from repro.cpu.naive import scatter_permute
from repro.errors import SizeError
from repro.permutations.named import bit_reversal, random_permutation


class TestBlockedTranspose:
    def test_equals_numpy(self):
        rng = np.random.default_rng(0)
        for m in (1, 5, 16, 33, 128):
            mat = rng.random((m, m))
            assert np.array_equal(blocked_transpose(mat, block=8), mat.T)

    def test_out_parameter(self):
        mat = np.arange(16.0).reshape(4, 4)
        out = np.empty_like(mat)
        result = blocked_transpose(mat, block=2, out=out)
        assert result is out
        assert np.array_equal(out, mat.T)

    def test_default_block(self):
        mat = np.random.default_rng(1).random((64, 64))
        assert np.array_equal(blocked_transpose(mat), mat.T)

    def test_rejects_non_square(self):
        with pytest.raises(SizeError):
            blocked_transpose(np.zeros((2, 3)))

    def test_rejects_bad_out(self):
        with pytest.raises(SizeError):
            blocked_transpose(np.zeros((4, 4)), out=np.zeros((2, 2)))


class TestBlockedPermutation:
    def test_matches_naive(self):
        p = random_permutation(256, seed=0)
        plan = BlockedPermutation.plan(p)
        a = np.random.default_rng(1).random(256)
        assert np.array_equal(plan.apply(a), scatter_permute(a, p))

    def test_bit_reversal(self):
        p = bit_reversal(1024)
        plan = BlockedPermutation.plan(p)
        a = np.arange(1024.0)
        assert np.array_equal(plan.apply(a), scatter_permute(a, p))

    def test_no_width_constraint(self):
        # m = 9: works on the CPU (degree 9 is not a power of two, so
        # the colouring takes its odd step).
        p = random_permutation(81, seed=2)
        plan = BlockedPermutation.plan(p)
        a = np.arange(81.0)
        assert np.array_equal(plan.apply(a), scatter_permute(a, p))

    def test_rejects_non_square(self):
        with pytest.raises(SizeError):
            BlockedPermutation.plan(random_permutation(8, seed=0))

    def test_rejects_wrong_length(self):
        plan = BlockedPermutation.plan(random_permutation(16, seed=0))
        with pytest.raises(SizeError):
            plan.apply(np.zeros(9))

    def test_plan_reuse(self):
        p = random_permutation(64, seed=3)
        plan = BlockedPermutation.plan(p)
        for seed in range(3):
            a = np.random.default_rng(seed).random(64)
            assert np.array_equal(plan.apply(a), scatter_permute(a, p))

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_matches_naive(self, m, seed):
        p = random_permutation(m * m, seed=seed)
        plan = BlockedPermutation.plan(p)
        a = np.random.default_rng(seed).random(m * m)
        assert np.array_equal(plan.apply(a), scatter_permute(a, p))
