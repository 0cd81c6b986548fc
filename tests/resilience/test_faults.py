"""The fault-injection matrix: every injected fault is either
*detected* (a ReproError subclass is raised before any output exists)
or *recovered* (the fallback output still equals the true permutation)
— never silent corruption."""

import numpy as np
import pytest

from repro.coloring import euler, matching
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.core.io import load_plan, load_sealed, save_plan, save_sealed
from repro.core.scheduled import ScheduledPermutation
from repro.errors import (
    ColoringError,
    FaultInjectionError,
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
    ReproError,
    SharedMemoryCapacityError,
)
from repro.exec import RoundInterpreter
from repro.ir.sealed import SealedProgram
from repro.permutations.named import random_permutation
from repro.resilience import (
    FILE_FAULT_MODES,
    FaultPlan,
    ResilientPermutation,
    active_fault_plan,
)

N, WIDTH = 256, 4


@pytest.fixture
def p():
    return random_permutation(N, seed=5)


@pytest.fixture
def plan(p):
    return ScheduledPermutation.plan(p, width=WIDTH)


def expected_output(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestFileFaultMatrix:
    """Any single plan-file fault is rejected by load_plan."""

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_detected_before_apply(self, plan, tmp_path, mode):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        fault = FaultPlan(seed=11).corrupt_plan_file(path, mode)
        assert fault.mode == mode
        with pytest.raises(PlanIntegrityError):
            load_plan(path)   # raises -> no plan object ever exists

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_error_class_is_precise(self, plan, tmp_path, mode):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        FaultPlan(seed=11).corrupt_plan_file(path, mode)
        expected_error = (
            PlanVersionError if mode == "stale-version"
            else PlanCorruptionError
        )
        with pytest.raises(expected_error):
            load_plan(path)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_sealed_sidecar_fault_is_precise(self, p, tmp_path, mode):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, SealedProgram("scheduled", WIDTH, p))
        FaultPlan(seed=11).corrupt_plan_file(path, mode)
        expected_error = (
            PlanVersionError if mode == "stale-version"
            else PlanCorruptionError
        )
        with pytest.raises(expected_error):
            load_sealed(path)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_detected_across_seeds(self, plan, tmp_path, mode, seed):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        FaultPlan(seed=seed).corrupt_plan_file(path, mode)
        with pytest.raises(ReproError):
            load_plan(path)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_recovered_via_replan(self, p, plan, tmp_path, mode):
        """With the original permutation at hand, a bad file degrades
        to re-planning and the output is still exact."""
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        FaultPlan(seed=7).corrupt_plan_file(path, mode)
        resilient = ResilientPermutation.from_plan_file(
            path, p=p, width=WIDTH
        )
        a = np.random.default_rng(0).random(N)
        assert np.array_equal(resilient.apply(a), expected_output(p, a))
        assert resilient.report.records[0].stage == "load"
        assert resilient.degraded

    def test_deterministic_damage(self, plan, tmp_path):
        details = []
        for run in range(2):
            path = tmp_path / f"plan{run}.npz"
            save_plan(path, plan)
            fault = FaultPlan(seed=42).corrupt_plan_file(path, "bit-flip")
            details.append((fault.key, fault.detail))
        assert details[0] == details[1]

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(FaultInjectionError):
            FaultPlan().corrupt_plan_file(tmp_path / "x.npz", "gamma-ray")


class TestTransientColoringFaults:
    def test_injected_fault_raises_coloring_error(self, p):
        with FaultPlan(transient_coloring_failures=1):
            with pytest.raises(ColoringError, match="injected"):
                ScheduledPermutation.plan(p, width=WIDTH)

    def test_counter_is_transient(self, p):
        """After N failures the same call path succeeds again."""
        with FaultPlan(transient_coloring_failures=1):
            with pytest.raises(ColoringError):
                ScheduledPermutation.plan(p, width=WIDTH)
            plan = ScheduledPermutation.plan(p, width=WIDTH)
        a = np.arange(N, dtype=np.float64)
        assert np.array_equal(plan.apply(a), expected_output(p, a))

    def test_counter_resets_on_reactivation(self, p):
        fault = FaultPlan(transient_coloring_failures=1)
        for _ in range(2):
            with fault:
                with pytest.raises(ColoringError):
                    ScheduledPermutation.plan(p, width=WIDTH)

    def test_site_filter(self):
        graph = RegularBipartiteMultigraph(
            left=np.array([0, 0, 1, 1]),
            right=np.array([0, 1, 0, 1]),
            num_left=2,
            num_right=2,
        )
        with FaultPlan(transient_coloring_failures=1,
                       coloring_sites=("matching",)):
            euler.euler_split_coloring(graph)   # not filtered -> works
            with pytest.raises(ColoringError):
                matching.matching_coloring(graph)


class TestCapacityFaults:
    def test_threshold_trips_on_global_coloring(self, p):
        # The global colouring has degree sqrt(n) = 16.
        with FaultPlan(capacity_threshold=16):
            with pytest.raises(SharedMemoryCapacityError):
                ScheduledPermutation.plan(p, width=WIDTH)

    def test_below_threshold_unaffected(self, p):
        with FaultPlan(capacity_threshold=17):
            ScheduledPermutation.plan(p, width=WIDTH)


class TestScatterCollisionFaults:
    def test_negative_count_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(scatter_collisions=-1)

    def test_corruption_is_deterministic(self, p, plan):
        # The injected collision site is seed-determined.  (The leaked
        # *values* are not — the unwritten cell exposes uninitialised
        # shared memory, exactly like the real race being modelled —
        # so determinism is asserted on the detected findings.)
        from repro.errors import MemoryRaceError
        from repro.machine.hmm import HMM
        from repro.machine.params import MachineParams

        a = np.arange(N, dtype=np.float64)
        runs = []
        for _ in range(2):
            machine = HMM(
                MachineParams(width=WIDTH, latency=4, num_dmms=2),
                detect_races=True,
            )
            with FaultPlan(seed=3, scatter_collisions=1):
                with pytest.raises(MemoryRaceError) as err:
                    plan.simulate(machine, dtype=a.dtype)
            runs.append(
                [(f.address, f.block, f.threads)
                 for f in err.value.findings]
            )
        assert runs[0] == runs[1]

    # The collision lives in the charged rounds, so the payload tests
    # move data through them with the round interpreter.

    def test_corruption_damages_payload(self, p, plan):
        a = np.arange(N, dtype=np.float64)
        with FaultPlan(seed=3, scatter_collisions=1):
            corrupted = RoundInterpreter().run(plan.lower(), a)
        assert not np.array_equal(corrupted, expected_output(p, a))

    def test_budget_is_exhausted(self, p, plan):
        # After the budgeted collisions fire, later scatters inside the
        # same activation run clean.
        a = np.arange(N, dtype=np.float64)
        with FaultPlan(seed=3, scatter_collisions=1):
            RoundInterpreter().run(plan.lower(), a)  # consumes the budget
            second = RoundInterpreter().run(plan.lower(), a)
        assert np.array_equal(second, expected_output(p, a))

    def test_hook_cleared_after_exit(self, p, plan):
        from repro.ir import rounds

        a = np.arange(N, dtype=np.float64)
        with FaultPlan(seed=3, scatter_collisions=1):
            assert rounds._scatter_fault_hook is not None
            RoundInterpreter().run(plan.lower(), a)
        assert rounds._scatter_fault_hook is None
        assert np.array_equal(
            RoundInterpreter().run(plan.lower(), a), expected_output(p, a)
        )

    def test_zero_budget_installs_no_hook(self):
        from repro.ir import rounds

        with FaultPlan(seed=3):
            assert rounds._scatter_fault_hook is None


class TestActivation:
    def test_hooks_cleared_after_exit(self):
        with FaultPlan(transient_coloring_failures=1):
            assert euler._fault_hook is not None
            assert matching._fault_hook is not None
            assert active_fault_plan() is not None
        assert euler._fault_hook is None
        assert matching._fault_hook is None
        assert active_fault_plan() is None

    def test_hooks_cleared_on_error(self, p):
        with pytest.raises(ColoringError):
            with FaultPlan(transient_coloring_failures=1):
                ScheduledPermutation.plan(p, width=WIDTH)
                raise AssertionError("unreachable")
        assert euler._fault_hook is None

    def test_nested_activation_rejected(self):
        with FaultPlan():
            with pytest.raises(FaultInjectionError):
                with FaultPlan():
                    pass

    def test_negative_count_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(transient_coloring_failures=-1)

    def test_inactive_plan_costs_nothing(self, p):
        """Production path: no hook installed, planning untouched."""
        assert euler._fault_hook is None
        ScheduledPermutation.plan(p, width=WIDTH)
