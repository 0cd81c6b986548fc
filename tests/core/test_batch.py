"""Tests for batched application (one plan, many payloads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.errors import SizeError
from repro.exec.sealed import SealedExecutor
from repro.ir.program import KernelProgram
from repro.passes import seal_program
from repro.permutations.named import bit_reversal, random_permutation


def _sealed_kernel(sched):
    """One row-wise kernel as a sealed program over the flat matrix."""
    return seal_program(KernelProgram(
        engine="rowwise", n=sched.rows * sched.m, width=sched.width,
        ops=(sched.op,),
    ))


class TestRowwiseBatch:
    """A stack of matrices through one row-wise kernel runs as its
    sealed gather, matrix for matrix the kernel's interpreted apply."""

    def test_matches_per_matrix_apply(self):
        rng = np.random.default_rng(0)
        gamma = np.stack([rng.permutation(8) for _ in range(4)]).astype(
            np.int64
        )
        sched = RowwiseSchedule.plan(gamma, width=4)
        batch = rng.random((5, 4, 8))
        out = SealedExecutor().run_batch(
            _sealed_kernel(sched), batch.reshape(5, -1)
        ).reshape(batch.shape)
        for k in range(5):
            assert np.array_equal(out[k], sched.apply(batch[k]))

    def test_shape_check(self):
        gamma = np.tile(np.arange(8), (4, 1))
        sched = RowwiseSchedule.plan(gamma, width=4)
        with pytest.raises(SizeError):
            SealedExecutor().run_batch(
                _sealed_kernel(sched), np.zeros((5, 8, 4))
            )


class TestScheduledBatch:
    def test_matches_apply_per_row(self):
        p = random_permutation(256, seed=1)
        plan = ScheduledPermutation.plan(p, width=4)
        batch = np.random.default_rng(2).random((7, 256))
        out = plan.apply_batch(batch)
        for k in range(7):
            assert np.array_equal(out[k], plan.apply(batch[k]))

    def test_semantics_against_reference(self):
        p = bit_reversal(64)
        plan = ScheduledPermutation.plan(p, width=4)
        batch = np.random.default_rng(3).random((4, 64))
        out = plan.apply_batch(batch)
        expected = np.empty_like(batch)
        expected[:, p] = batch
        assert np.array_equal(out, expected)

    def test_single_row_batch(self):
        p = random_permutation(64, seed=4)
        plan = ScheduledPermutation.plan(p, width=4)
        a = np.random.default_rng(5).random(64)
        assert np.array_equal(plan.apply_batch(a[None])[0], plan.apply(a))

    def test_empty_batch(self):
        p = random_permutation(64, seed=6)
        plan = ScheduledPermutation.plan(p, width=4)
        out = plan.apply_batch(np.zeros((0, 64)))
        assert out.shape == (0, 64)

    def test_shape_check(self):
        plan = ScheduledPermutation.plan(random_permutation(64, seed=7),
                                         width=4)
        with pytest.raises(SizeError):
            plan.apply_batch(np.zeros(64))          # not 2-D
        with pytest.raises(SizeError):
            plan.apply_batch(np.zeros((2, 32)))     # wrong n

    def test_complex_batch(self):
        """The FFT use case: complex payloads."""
        p = bit_reversal(256)
        plan = ScheduledPermutation.plan(p, width=4)
        rng = np.random.default_rng(8)
        batch = rng.random((3, 256)) + 1j * rng.random((3, 256))
        out = plan.apply_batch(batch)
        expected = np.empty_like(batch)
        expected[:, p] = batch
        assert np.array_equal(out, expected)

    @settings(deadline=None, max_examples=15)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_batch_equals_loop(self, k, seed):
        p = random_permutation(64, seed=seed)
        plan = ScheduledPermutation.plan(p, width=4)
        batch = np.random.default_rng(seed).random((k, 64))
        out = plan.apply_batch(batch)
        for i in range(k):
            assert np.array_equal(out[i], plan.apply(batch[i]))
