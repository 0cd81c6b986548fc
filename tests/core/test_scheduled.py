"""Tests for the complete scheduled permutation (Section VII + Table I)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.scheduled import ScheduledPermutation, scheduled_permute
from repro.core.theory import scheduled_time, total_rounds
from repro.errors import SharedMemoryCapacityError, SizeError
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)
from repro.util import validation
from tests.conftest import prove_scheduled, square_permutations_st


def _reference(a, p):
    b = np.empty_like(a)
    b[p] = a
    return b


class TestCorrectness:
    @pytest.mark.parametrize(
        "perm_fn",
        [identical, shuffle, bit_reversal, transpose_permutation,
         lambda n: random_permutation(n, seed=21)],
    )
    def test_named_permutations(self, perm_fn):
        n = 256
        p = perm_fn(n)
        plan = ScheduledPermutation.plan(p, width=4)
        a = np.random.default_rng(0).random(n)
        assert np.array_equal(plan.apply(a), _reference(a, p))

    def test_plan_reusable(self):
        p = random_permutation(64, seed=1)
        plan = ScheduledPermutation.plan(p, width=4)
        for seed in range(3):
            a = np.random.default_rng(seed).random(64)
            assert np.array_equal(plan.apply(a), _reference(a, p))

    def test_one_shot_helper(self):
        p = bit_reversal(64)
        a = np.arange(64.0)
        assert np.array_equal(
            scheduled_permute(a, p, width=4), _reference(a, p)
        )

    def test_integer_payload(self):
        p = random_permutation(64, seed=2)
        plan = ScheduledPermutation.plan(p, width=4)
        a = np.arange(64, dtype=np.int32)
        out = plan.apply(a)
        assert out.dtype == np.int32
        assert np.array_equal(out, _reference(a, p))

    def test_rejects_bad_length(self):
        plan = ScheduledPermutation.plan(identical(64), width=4)
        with pytest.raises(SizeError):
            plan.apply(np.zeros(32))

    def test_rejects_invalid_sizes(self):
        with pytest.raises(SizeError):
            ScheduledPermutation.plan(identical(60), width=4)  # not square
        with pytest.raises(SizeError):
            ScheduledPermutation.plan(identical(36), width=4)  # 6 % 4 != 0

    def test_checks_p_once_per_plan(self, monkeypatch):
        """Planning validates ``p`` once: the decomposition it runs
        does not re-check the array ``plan`` already checked."""
        real = validation.check_permutation
        checked = []

        def check(p, *args, **kwargs):
            checked.append(p)
            return real(p, *args, **kwargs)

        # Every module binds the function by name on import.
        for module in list(sys.modules.values()):
            if getattr(module, "check_permutation", None) is real:
                monkeypatch.setattr(module, "check_permutation", check)
        ScheduledPermutation.plan(random_permutation(256, seed=4), width=4)
        assert len(checked) == 1

    def test_internal_verify(self):
        p = random_permutation(256, seed=3)
        prove_scheduled(ScheduledPermutation.plan(p, width=4), p)

    @settings(deadline=None, max_examples=30)
    @given(square_permutations_st())
    def test_property_any_permutation(self, p_width):
        p, width = p_width
        plan = ScheduledPermutation.plan(p, width=width)
        a = np.random.default_rng(0).random(p.size)
        assert np.array_equal(plan.apply(a), _reference(a, p))
        prove_scheduled(plan, p)


class Test32Rounds:
    def test_round_counts_match_table1(self, tiny_machine):
        plan = ScheduledPermutation.plan(
            random_permutation(256, seed=4), width=4
        )
        trace = plan.simulate(tiny_machine)
        assert trace.num_rounds == total_rounds("scheduled") == 32
        assert trace.count_rounds() == {
            "global read": 11,
            "global write": 5,
            "shared read": 8,
            "shared write": 8,
        }
        classified = trace.count_classified()
        assert classified == {
            "coalesced reads (global)": 11,
            "coalesced writes (global)": 5,
            "conflict-free reads (shared)": 8,
            "conflict-free writes (shared)": 8,
        }

    def test_five_kernels(self, tiny_machine):
        plan = ScheduledPermutation.plan(identical(256), width=4)
        trace = plan.simulate(tiny_machine)
        assert [k.name for k in trace.kernels] == [
            "rowwise", "transpose", "rowwise", "transpose", "rowwise"
        ]

    def test_no_casual_round_ever(self, tiny_machine):
        """The whole point: every round is coalesced or conflict-free,
        for any permutation."""
        for seed in range(5):
            plan = ScheduledPermutation.plan(
                random_permutation(64, seed=seed), width=4
            )
            trace = plan.simulate(tiny_machine)
            for kernel in trace.kernels:
                for r in kernel.rounds:
                    assert r.classification != "casual"


class TestPermutationIndependence:
    def test_time_identical_across_permutations(self, tiny_machine):
        """Section VIII: "the running time ... is constant for any
        permutation of the same size"."""
        n = 256
        times = set()
        for p in (
            identical(n),
            shuffle(n),
            bit_reversal(n),
            transpose_permutation(n),
            random_permutation(n, seed=5),
        ):
            plan = ScheduledPermutation.plan(p, width=4)
            times.add(plan.simulate(tiny_machine).time)
        assert len(times) == 1

    def test_time_matches_theory(self):
        n = 256
        for d in (1, 2, 4):
            params = MachineParams(
                width=4, latency=11, num_dmms=d, shared_capacity=None
            )
            plan = ScheduledPermutation.plan(
                random_permutation(n, seed=6), width=4
            )
            assert plan.simulate(params).time == scheduled_time(n, 4, 11, d)


class TestSharedCapacity:
    def test_paper_double_4096_wall(self):
        """sqrt(n) = 4096 doubles need 64 KB of shared memory: rejected
        on a 48 KB machine (Table II(b) stops at 2048).  We assert via
        the planned footprint without building the 16M-element plan."""
        # A small plan reports footprints by dtype:
        plan = ScheduledPermutation.plan(identical(64), width=4)
        assert plan.shared_bytes(np.float64) == 2 * 8 * 8
        # The real constraint, computed exactly as HMM would check it:
        needed = 2 * 4096 * np.dtype(np.float64).itemsize
        assert needed > 48 * 1024
        needed_float = 2 * 4096 * np.dtype(np.float32).itemsize
        assert needed_float <= 48 * 1024

    def test_simulation_rejects_over_capacity(self):
        params = MachineParams(width=4, latency=5, num_dmms=1,
                               shared_capacity=64)
        plan = ScheduledPermutation.plan(identical(256), width=4)
        with pytest.raises(SharedMemoryCapacityError):
            plan.simulate(params, dtype=np.float64)   # 2*16*8 = 256 B > 64

    def test_schedule_bytes(self):
        # m = 16: indices fit uint8 -> 6 arrays of 256 single bytes.
        plan = ScheduledPermutation.plan(identical(256), width=4)
        assert plan.schedule_bytes() == 6 * 256 * 1
        # At the paper's sizes (m in 512..4096) the same rule yields the
        # 16-bit shorts the CUDA implementation stores.
        from repro.util.arrays import smallest_index_dtype
        for m in (512, 1024, 2048, 4096):
            assert smallest_index_dtype(m - 1) == np.uint16
