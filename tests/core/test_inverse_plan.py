"""Tests for inverse planning (decomposition reuse)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import bit_reversal, random_permutation
from repro.permutations.ops import invert
from tests.conftest import prove_scheduled, square_permutations_st


class TestInversePlan:
    def test_inverse_p_is_inverted(self):
        p = random_permutation(256, seed=0)
        plan = ScheduledPermutation.plan(p, width=4)
        inv = plan.inverse()
        assert np.array_equal(inv.p, invert(p))

    def test_roundtrip_is_identity(self):
        p = random_permutation(256, seed=1)
        plan = ScheduledPermutation.plan(p, width=4)
        inv = plan.inverse()
        a = np.random.default_rng(2).random(256)
        assert np.array_equal(inv.apply(plan.apply(a)), a)
        assert np.array_equal(plan.apply(inv.apply(a)), a)

    def test_inverse_verifies(self):
        p = random_permutation(64, seed=3)
        inv = ScheduledPermutation.plan(p, width=4).inverse()
        prove_scheduled(inv, invert(p))

    def test_matches_fresh_plan_semantics(self):
        p = bit_reversal(256)        # involution: inverse == itself
        plan = ScheduledPermutation.plan(p, width=4)
        inv = plan.inverse()
        a = np.random.default_rng(4).random(256)
        assert np.array_equal(inv.apply(a), plan.apply(a))

    def test_double_inverse(self):
        p = random_permutation(64, seed=5)
        plan = ScheduledPermutation.plan(p, width=4)
        back = plan.inverse().inverse()
        assert np.array_equal(back.p, p)
        a = np.random.default_rng(6).random(64)
        assert np.array_equal(back.apply(a), plan.apply(a))

    def test_same_simulated_cost(self):
        """Inverse schedules have the identical (permutation-
        independent) cost."""
        from repro.machine.params import MachineParams

        machine = MachineParams(width=4, latency=9, num_dmms=2,
                                shared_capacity=None)
        p = random_permutation(256, seed=7)
        plan = ScheduledPermutation.plan(p, width=4)
        assert plan.simulate(machine).time == \
            plan.inverse().simulate(machine).time

    @settings(deadline=None, max_examples=20)
    @given(square_permutations_st(widths=(2, 4), max_mult=3))
    def test_property_roundtrip(self, p_width):
        p, width = p_width
        plan = ScheduledPermutation.plan(p, width=width)
        inv = plan.inverse()
        prove_scheduled(inv, invert(p))
        a = np.random.default_rng(0).random(p.size)
        assert np.array_equal(inv.apply(plan.apply(a)), a)
