"""Tests for automatic engine selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selector import (
    ENGINES,
    AutoPermutation,
    build_engine,
    predict_times,
    recommend,
)
from repro.errors import SizeError, ValidationError
from repro.machine.params import MachineParams
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)

BIG = MachineParams(width=32, latency=100, num_dmms=8, shared_capacity=None)
N = 128 * 128


class TestBuildEngine:
    def test_registry_names(self):
        p = random_permutation(256, seed=5)
        for name in ENGINES:
            engine = build_engine(name, p, width=4)
            a = np.arange(256, dtype=np.float64)
            expected = np.empty_like(a)
            expected[p] = a
            assert np.array_equal(engine.apply(a), expected)

    def test_classes(self):
        from repro.core.conventional import DDesignatedPermutation
        from repro.core.padded import PaddedScheduledPermutation
        from repro.core.scheduled import ScheduledPermutation

        p = random_permutation(256, seed=5)
        assert isinstance(build_engine("scheduled", p, width=4),
                          ScheduledPermutation)
        assert isinstance(build_engine("padded", p, width=4),
                          PaddedScheduledPermutation)
        assert isinstance(build_engine("d-designated", p),
                          DDesignatedPermutation)

    def test_unknown_engine(self):
        with pytest.raises(ValidationError):
            build_engine("quantum", random_permutation(256, seed=5))


class TestPredictions:
    def test_predictions_match_simulation(self):
        """The prediction must equal the simulator for every engine —
        it is the same arithmetic."""
        from repro.core.conventional import (
            DDesignatedPermutation,
            SDesignatedPermutation,
        )
        from repro.core.scheduled import ScheduledPermutation

        p = random_permutation(N, seed=0)
        pred = predict_times(p, BIG)
        assert pred.d_designated == DDesignatedPermutation(p).simulate(BIG).time
        assert pred.s_designated == SDesignatedPermutation(p).simulate(BIG).time
        assert pred.scheduled == ScheduledPermutation.plan(
            p, width=32
        ).simulate(BIG).time

    def test_double_width_prediction(self):
        from repro.core.scheduled import ScheduledPermutation

        p = random_permutation(N, seed=1)
        pred = predict_times(p, BIG, dtype=np.float64)
        assert pred.scheduled == ScheduledPermutation.plan(
            p, width=32
        ).simulate(BIG, dtype=np.float64).time

    def test_non_square_has_no_scheduled(self):
        p = random_permutation(96, seed=2)     # multiple of 32, not square
        pred = predict_times(p, BIG)
        assert pred.scheduled is None
        assert pred.best in ("d-designated", "s-designated")

    def test_capacity_blocks_scheduled(self):
        cramped = MachineParams(width=4, latency=5, num_dmms=1,
                                shared_capacity=16)
        p = random_permutation(64, seed=3)
        pred = predict_times(p, cramped, dtype=np.float64)
        assert pred.scheduled is None           # 2*8*8 = 128 B > 16 B

    def test_misaligned_rejected(self):
        with pytest.raises(SizeError):
            predict_times(random_permutation(10, seed=0), BIG)


class TestRecommendation:
    def test_easy_permutations_get_conventional(self):
        for p in (identical(N), shuffle(N)):
            assert recommend(p, BIG) in ("d-designated", "s-designated")

    def test_hard_permutations_get_scheduled(self):
        for p in (bit_reversal(N), transpose_permutation(N),
                  random_permutation(N, seed=4)):
            assert recommend(p, BIG) == "scheduled"

    def test_small_n_latency_flips_to_conventional(self):
        # n = 1024 at latency 100: 3 rounds of latency beat 16.
        p = random_permutation(32 * 32, seed=5)
        assert recommend(p, BIG) != "scheduled"


class TestAutoPermutation:
    def test_correct_output_whatever_the_choice(self):
        for p in (identical(N), bit_reversal(N),
                  random_permutation(96, seed=6)):
            auto = AutoPermutation(p, BIG)
            a = np.random.default_rng(0).random(p.size).astype(np.float32)
            expected = np.empty_like(a)
            expected[p] = a
            assert np.array_equal(auto.apply(a), expected)

    def test_auto_never_loses_to_fixed_choices(self):
        from repro.core.conventional import DDesignatedPermutation
        from repro.core.scheduled import ScheduledPermutation

        for seed in range(3):
            p = random_permutation(N, seed=seed)
            auto_t = AutoPermutation(p, BIG).simulate(BIG).time
            conv_t = DDesignatedPermutation(p).simulate(BIG).time
            sched_t = ScheduledPermutation.plan(p, width=32).simulate(BIG).time
            assert auto_t <= min(conv_t, sched_t)

    def test_choice_recorded(self):
        auto = AutoPermutation(bit_reversal(N), BIG)
        assert auto.choice == "scheduled"
        assert auto.prediction.best == "scheduled"

    @settings(deadline=None, max_examples=15)
    @given(
        st.sampled_from([4, 8]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_auto_optimal_on_model(self, width, mult, seed):
        m = width * mult
        p = np.random.default_rng(seed).permutation(m * m).astype(np.int64)
        params = MachineParams(width=width, latency=7, num_dmms=2,
                               shared_capacity=None)
        auto = AutoPermutation(p, params)
        t = auto.simulate(params).time
        pred = predict_times(p, params)
        assert t == min(
            v for v in (pred.d_designated, pred.s_designated, pred.scheduled)
            if v is not None
        )


class TestPlannerIntegration:
    def test_auto_compiles_through_cache(self, tmp_path):
        from repro.planner import Planner

        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(N)
        first = AutoPermutation(p, BIG, planner=planner)
        second = AutoPermutation(p, BIG, planner=planner)
        assert second.engine is first.engine   # memory-tier hit
        assert planner.stats()["cold_plans"] == 1
        a = np.random.default_rng(0).random(N).astype(np.float32)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(first.apply(a), expected)
