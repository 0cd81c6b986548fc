"""Tests for the graceful-degradation fallback chain."""

import numpy as np
import pytest

from repro.core.conventional import DDesignatedPermutation
from repro.core.io import save_plan
from repro.core.padded import PaddedScheduledPermutation
from repro.core.scheduled import ScheduledPermutation
from repro.core.selector import ENGINES, build_engine
from repro.errors import (
    FallbackExhaustedError,
    PlanCorruptionError,
    ResilienceError,
    ValidationError,
)
from repro.machine.params import MachineParams
from repro.permutations.named import random_permutation
from repro.resilience import (
    DEFAULT_CHAIN,
    FaultPlan,
    ResilientPermutation,
    backoff_delay,
)

N, WIDTH = 256, 4


@pytest.fixture
def p():
    return random_permutation(N, seed=5)


def expected_output(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestBuildEngine:
    def test_registry_names(self, p):
        for name in ENGINES:
            engine = build_engine(name, p, width=WIDTH)
            a = np.arange(N, dtype=np.float64)
            assert np.array_equal(engine.apply(a), expected_output(p, a))

    def test_classes(self, p):
        assert isinstance(build_engine("scheduled", p, width=WIDTH),
                          ScheduledPermutation)
        assert isinstance(build_engine("padded", p, width=WIDTH),
                          PaddedScheduledPermutation)
        assert isinstance(build_engine("d-designated", p),
                          DDesignatedPermutation)

    def test_unknown_engine(self, p):
        with pytest.raises(ValidationError):
            build_engine("quantum", p)


class TestHappyPath:
    def test_uses_first_engine_undegraded(self, p):
        r = ResilientPermutation(p, width=WIDTH)
        assert r.choice == "scheduled"
        assert not r.degraded
        assert r.report.engine_used == "scheduled"
        assert r.report.attempts_total == 1

    def test_apply_and_simulate(self, p):
        r = ResilientPermutation(p, width=WIDTH)
        a = np.random.default_rng(1).random(N)
        assert np.array_equal(r.apply(a), expected_output(p, a))
        machine = MachineParams(width=WIDTH, latency=9, num_dmms=2,
                                shared_capacity=None)
        assert r.simulate(machine).num_rounds == 32

    def test_non_square_n_degrades_to_padded(self):
        p = random_permutation(200, seed=0)
        r = ResilientPermutation(p, width=WIDTH, sleep=lambda _s: None)
        assert r.choice == "padded"
        # scheduled was skipped for a persistent SizeError, not retried
        (rec,) = r.report.records
        assert rec.engine == "scheduled" and not rec.retried
        a = np.arange(200.0)
        assert np.array_equal(r.apply(a), expected_output(p, a))

    def test_caller_mutating_p_does_not_repoint_the_engine(self):
        p = random_permutation(1024, seed=3)
        original = p.copy()
        r = ResilientPermutation(p)
        p[0], p[1] = p[1], p[0]
        a = np.arange(1024.0)
        assert np.array_equal(r.apply(a), expected_output(original, a))
        assert np.array_equal(r.p, original)
        assert not r.p.flags.writeable


class TestTransientRetry:
    def test_one_transient_fault_retried_same_engine(self, p):
        slept = []
        with FaultPlan(transient_coloring_failures=1):
            r = ResilientPermutation(p, width=WIDTH, sleep=slept.append)
        assert r.choice == "scheduled"
        assert slept == [backoff_delay(1)]
        (rec,) = r.report.records
        assert rec.stage == "plan" and rec.attempt == 1 and rec.retried

    def test_backoff_schedule_is_deterministic_exponential(self, p):
        slept = []
        with FaultPlan(transient_coloring_failures=2):
            r = ResilientPermutation(p, width=WIDTH, sleep=slept.append,
                                     backoff_base=0.5)
        assert r.choice == "scheduled"
        assert slept == [0.5, 1.0]

    def test_persistent_coloring_fault_reaches_conventional(self, p):
        """Enough failures to exhaust both planning engines: the
        conventional engine (no colouring at all) must still win."""
        slept = []
        with FaultPlan(transient_coloring_failures=100):
            r = ResilientPermutation(p, width=WIDTH, sleep=slept.append)
        assert r.choice == "d-designated"
        assert [rec.engine for rec in r.report.records] == (
            ["scheduled"] * 3 + ["padded"] * 3
        )
        a = np.random.default_rng(2).random(N)
        assert np.array_equal(r.apply(a), expected_output(p, a))

    def test_capacity_wall_skips_without_retry(self, p):
        slept = []
        with FaultPlan(capacity_threshold=2):
            r = ResilientPermutation(p, width=WIDTH, sleep=slept.append)
        assert r.choice == "d-designated"
        assert slept == []                      # persistent -> no backoff
        assert r.report.engines_failed() == ["scheduled", "padded"]
        a = np.random.default_rng(3).random(N)
        assert np.array_equal(r.apply(a), expected_output(p, a))


class TestExhaustion:
    def test_exhausted_chain_raises_with_report(self, p):
        with FaultPlan(capacity_threshold=2):
            with pytest.raises(FallbackExhaustedError) as excinfo:
                ResilientPermutation(p, width=WIDTH,
                                     chain=("scheduled", "padded"),
                                     sleep=lambda _s: None)
        report = excinfo.value.report
        assert report.engine_used is None
        assert len(report.records) == 2
        assert "scheduled" in str(excinfo.value)

    def test_empty_chain_rejected(self, p):
        with pytest.raises(ResilienceError):
            ResilientPermutation(p, chain=())

    def test_bad_max_attempts_rejected(self, p):
        with pytest.raises(ResilienceError):
            ResilientPermutation(p, max_attempts=0)


class TestSelfCheck:
    def test_lying_engine_is_caught(self, p):
        r = ResilientPermutation(p, width=WIDTH)
        real_apply = r.engine.apply
        r.engine.apply = lambda a: np.roll(
            real_apply(a), 1
        )
        with pytest.raises(ResilienceError, match="self-check"):
            r.apply(np.arange(N, dtype=np.float64))

    def test_self_check_can_be_disabled(self, p):
        r = ResilientPermutation(p, width=WIDTH, self_check=False)
        real_apply = r.engine.apply
        r.engine.apply = lambda a: np.roll(
            real_apply(a), 1
        )
        r.apply(np.arange(N, dtype=np.float64))   # no check, no raise


class TestFromPlanFile:
    def test_good_file_loads_as_scheduled(self, p, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(p, width=WIDTH))
        r = ResilientPermutation.from_plan_file(path)
        assert r.choice == "scheduled" and not r.degraded
        a = np.random.default_rng(4).random(N)
        assert np.array_equal(r.apply(a), expected_output(p, a))

    def test_bad_file_without_p_raises(self, p, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(p, width=WIDTH))
        FaultPlan(seed=1).corrupt_plan_file(path, "bit-flip")
        with pytest.raises(PlanCorruptionError):
            ResilientPermutation.from_plan_file(path)

    def test_bad_file_with_p_degrades(self, p, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(p, width=WIDTH))
        FaultPlan(seed=1).corrupt_plan_file(path, "truncate")
        r = ResilientPermutation.from_plan_file(path, p=p, width=WIDTH)
        assert r.degraded
        assert r.report.records[0].stage == "load"
        assert r.report.records[0].engine == "plan-file"
        assert r.report.engine_used == "scheduled"
        a = np.random.default_rng(5).random(N)
        assert np.array_equal(r.apply(a), expected_output(p, a))


class TestDefaultChain:
    def test_declared_order(self):
        assert DEFAULT_CHAIN == ("scheduled", "padded", "d-designated")

    def test_report_summary_mentions_chain(self, p):
        r = ResilientPermutation(p, width=WIDTH)
        text = r.report.summary()
        assert "scheduled -> padded -> d-designated" in text
        assert "degraded:       False" in text


class TestPlannerAware:
    def test_cache_hit_on_second_construction(self, p, tmp_path):
        from repro.planner import Planner

        planner = Planner(cache_dir=tmp_path)
        first = ResilientPermutation(p, width=WIDTH, planner=planner)
        second = ResilientPermutation(p, width=WIDTH, planner=planner)
        assert planner.stats()["cold_plans"] == 1
        assert planner.stats()["memory_hits"] == 1
        a = np.arange(N, dtype=np.float32)
        assert np.array_equal(second.apply(a), expected_output(p, a))

    def test_digest_computed_once_and_reused(self, p, tmp_path):
        from repro.planner import Planner, permutation_digest

        planner = Planner(cache_dir=tmp_path)
        resilient = ResilientPermutation(p, width=WIDTH,
                                         planner=planner)
        assert resilient._digest == permutation_digest(p)

    def test_fallback_hop_still_works_with_planner(self, p, tmp_path):
        from repro.planner import Planner

        planner = Planner(cache_dir=tmp_path)
        # A persistent capacity wall forces the scheduled -> padded ->
        # d-designated hop; the planner must not get in the way.
        with FaultPlan(seed=0, capacity_threshold=2):
            resilient = ResilientPermutation(
                p, width=WIDTH, planner=planner,
                sleep=lambda _s: None,
            )
        assert resilient.degraded
        a = np.arange(N, dtype=np.float32)
        assert np.array_equal(resilient.apply(a), expected_output(p, a))

    def test_transient_fault_retried_through_planner(self, p, tmp_path):
        from repro.planner import Planner

        planner = Planner(cache_dir=tmp_path)
        with FaultPlan(seed=0, transient_coloring_failures=1):
            resilient = ResilientPermutation(
                p, width=WIDTH, planner=planner,
                sleep=lambda _s: None,
            )
        assert resilient.report.attempts_total == 2
        assert resilient.choice == "scheduled"
