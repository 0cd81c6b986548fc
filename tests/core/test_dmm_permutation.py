"""Tests for the single-DMM offline permutation (paper refs [8]/[9])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dmm_permutation import (
    DMMConventionalPermutation,
    DMMScheduledPermutation,
    bank_distribution,
    worst_case_bank_permutation,
)
from repro.errors import SchedulingError, SizeError
from repro.ir.rounds import program_rounds
from repro.machine.dmm import DMM
from repro.permutations.named import identical, random_permutation


class TestBankDistribution:
    def test_identity_minimal(self):
        assert bank_distribution(identical(64), 4) == 16   # n/w

    def test_worst_case_is_n(self):
        p = worst_case_bank_permutation(64, 4)
        assert bank_distribution(p, 4) == 64

    def test_worst_case_is_permutation(self):
        p = worst_case_bank_permutation(256, 4)
        assert np.array_equal(np.sort(p), np.arange(256))

    def test_bounds(self):
        for seed in range(5):
            p = random_permutation(64, seed=seed)
            assert 16 <= bank_distribution(p, 4) <= 64

    def test_misaligned_rejected(self):
        with pytest.raises(SizeError):
            bank_distribution(identical(10), 4)

    def test_worst_case_needs_w_squared(self):
        with pytest.raises(SizeError):
            worst_case_bank_permutation(8, 4)


class TestCorrectness:
    @pytest.mark.parametrize("algo_cls", [DMMConventionalPermutation])
    def test_conventional(self, algo_cls):
        p = random_permutation(64, seed=0)
        a = np.random.default_rng(1).random(64)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(algo_cls(p, width=4).apply(a), expected)

    def test_scheduled(self):
        p = random_permutation(64, seed=2)
        plan = DMMScheduledPermutation.plan(p, width=4)
        a = np.random.default_rng(3).random(64)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(plan.apply(a), expected)
        plan.verify_conflict_free()

    def test_empty(self):
        plan = DMMScheduledPermutation.plan(np.empty(0, dtype=np.int64), 4)
        assert plan.apply(np.empty(0)).size == 0

    @settings(deadline=None, max_examples=30)
    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_scheduled_any_permutation(self, width, warps, seed):
        n = width * warps
        p = np.random.default_rng(seed).permutation(n).astype(np.int64)
        plan = DMMScheduledPermutation.plan(p, width=width)
        plan.verify_conflict_free()
        a = np.random.default_rng(seed + 1).random(n)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(plan.apply(a), expected)


class TestCosts:
    def test_scheduled_always_4_rounds_of_warps(self):
        """4 n/w stages regardless of the permutation."""
        dmm = DMM(4)
        for seed in range(4):
            p = random_permutation(64, seed=seed)
            plan = DMMScheduledPermutation.plan(p, width=4)
            assert plan.time(dmm) == 4 * 16

    def test_conventional_cost_formula(self):
        dmm = DMM(4)
        p = random_permutation(64, seed=5)
        algo = DMMConventionalPermutation(p, width=4)
        assert algo.time(dmm) == 2 * 16 + bank_distribution(p, 4)

    def test_predecessor_crossover(self):
        """The [9] result: conflict-free wins on bank-hostile and random
        permutations, conventional wins on the identity."""
        dmm = DMM(4)
        n = 64
        ident = identical(n)
        worst = worst_case_bank_permutation(n, 4)
        conv_id = DMMConventionalPermutation(ident, 4).time(dmm)
        sched_id = DMMScheduledPermutation.plan(ident, 4).time(dmm)
        assert conv_id < sched_id
        conv_worst = DMMConventionalPermutation(worst, 4).time(dmm)
        sched_worst = DMMScheduledPermutation.plan(worst, 4).time(dmm)
        assert sched_worst < conv_worst
        # Worst case ratio approaches (2 + w) / 4.
        assert conv_worst / sched_worst == pytest.approx(
            (2 * 16 + 64) / 64, rel=1e-9
        )

    def test_all_rounds_conflict_free(self):
        dmm = DMM(8)
        p = random_permutation(128, seed=6)
        plan = DMMScheduledPermutation.plan(p, width=8)
        for rnd in program_rounds(plan.lower()):
            assert dmm.is_conflict_free(rnd.addresses)

    def test_conventional_casual_round_detected(self):
        dmm = DMM(4)
        p = worst_case_bank_permutation(64, 4)
        rounds = program_rounds(DMMConventionalPermutation(p, 4).lower())
        assert not dmm.is_conflict_free(rounds[2].addresses)

    def test_verify_detects_sabotage(self):
        p = random_permutation(64, seed=7)
        plan = DMMScheduledPermutation.plan(p, width=4)
        bad_t = plan.t.astype(np.int64).copy()
        bad_t[0] = bad_t[1] = 0
        broken = DMMScheduledPermutation(plan.s, bad_t, 4)
        with pytest.raises(SchedulingError):
            broken.verify_conflict_free()
