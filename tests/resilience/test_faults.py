"""The fault-injection matrix: every injected plan-file fault is
*detected* (a ReproError subclass is raised before any output exists)
and a planner heals it by re-planning, and every injected scatter
collision is caught by the race detector and scoped to its activation —
never silent corruption."""

import numpy as np
import pytest

from repro.core.io import load_plan, load_sealed, save_plan, save_sealed
from repro.core.scheduled import ScheduledPermutation
from repro.errors import (
    FaultInjectionError,
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
    ReproError,
)
from repro.exec import RoundInterpreter
from repro.ir import rounds
from repro.ir.sealed import SealedProgram
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.planner import Planner
from repro.resilience import FILE_FAULT_MODES, FaultPlan, active_fault_plan

N, WIDTH = 256, 4

#: One non-affine family (Euler-split colourings) and two GF(2)-affine
#: ones (closed-form colourings): the two ways a cold plan is built.
FAMILIES = {
    "random": random_permutation(N, seed=5),
    "bit-reversal": bit_reversal(N),
    "transpose": transpose_permutation(N),
}


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


def _assert_sidecar_fault_healed(p, cache_dir, mode, engine="scheduled"):
    first = Planner(cache_dir=cache_dir)
    fingerprint = first.compile(p, engine=engine, width=WIDTH).fingerprint
    FaultPlan(seed=7).corrupt_plan_file(
        first.disk.sealed_path_for(fingerprint), mode
    )
    tampered = Planner(cache_dir=cache_dir)
    compiled = tampered.compile(p, engine=engine, width=WIDTH)
    stats = tampered.stats()
    assert stats["sealed_corrupt"] == 1
    assert stats["sealed_hits"] == 0
    assert stats["cold_plans"] == 1
    a = np.random.default_rng(0).random(len(p))
    assert np.array_equal(compiled.apply(a), expected_output(p, a))
    healed = Planner(cache_dir=cache_dir)
    assert np.array_equal(
        healed.compile(p, engine=engine, width=WIDTH).p, p
    )
    assert healed.stats()["sealed_hits"] == 1
    assert healed.stats()["cold_plans"] == 0


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
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sealed_sidecar_detected_across_seeds(self, p, tmp_path,
                                                  mode, seed):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, SealedProgram("scheduled", WIDTH, p))
        FaultPlan(seed=seed).corrupt_plan_file(path, mode)
        with pytest.raises(PlanIntegrityError):
            load_sealed(path)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_good_file_loads_as_scheduled(self, tmp_path, family):
        p = FAMILIES[family]
        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(p, width=WIDTH))
        loaded = load_plan(path)
        assert isinstance(loaded, ScheduledPermutation)
        a = np.random.default_rng(4).random(N)
        assert np.array_equal(loaded.apply(a), expected_output(p, a))

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_recovered_via_replan(self, p, tmp_path, mode):
        """A planner whose sealed sidecar was damaged counts it
        corrupt, re-plans from the permutation at hand, answers exactly
        and rewrites the entry."""
        _assert_sidecar_fault_healed(p, tmp_path, mode)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    @pytest.mark.parametrize("family", ["bit-reversal", "transpose"])
    def test_affine_sidecar_recovered_via_replan(self, tmp_path, family,
                                                 mode):
        # An affine re-plan takes the closed-form colouring, not the
        # Euler split; it heals the entry all the same.
        _assert_sidecar_fault_healed(FAMILIES[family], tmp_path, mode)

    @pytest.mark.parametrize("mode", FILE_FAULT_MODES)
    def test_padded_sidecar_recovered_via_replan(self, tmp_path, mode):
        # A non-square n is served by the padded engine; its sidecar
        # heals the same way.
        _assert_sidecar_fault_healed(
            random_permutation(200, seed=0), tmp_path, mode,
            engine="padded",
        )

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_detected_by_race_detector(self, family, seed):
        from repro.errors import MemoryRaceError
        from repro.machine.hmm import HMM
        from repro.machine.params import MachineParams

        plan = ScheduledPermutation.plan(FAMILIES[family], width=WIDTH)
        machine = HMM(
            MachineParams(width=WIDTH, latency=4, num_dmms=2),
            detect_races=True,
        )
        with FaultPlan(seed=seed, scatter_collisions=1):
            with pytest.raises(MemoryRaceError) as err:
                plan.simulate(machine, dtype=np.float64)
        assert len(err.value.findings) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_collision_stays_in_the_charged_rounds(self, family):
        # The injected race damages what the round interpreter moves;
        # a compiled handle answers through its proven sealed gather,
        # which no scatter round feeds.
        p = FAMILIES[family]
        plan = ScheduledPermutation.plan(p, width=WIDTH)
        compiled = Planner().compile(p, width=WIDTH)
        a = np.arange(N, dtype=np.float64)
        with FaultPlan(seed=3, scatter_collisions=1):
            damaged = RoundInterpreter().run(plan.lower(), a)
            served = compiled.apply(a)
        assert not np.array_equal(damaged, expected_output(p, a))
        assert np.array_equal(served, expected_output(p, a))

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
        with FaultPlan(scatter_collisions=1):
            assert rounds._scatter_fault_hook is not None
            assert active_fault_plan() is not None
        assert rounds._scatter_fault_hook is None
        assert active_fault_plan() is None

    def test_hooks_cleared_on_error(self):
        with pytest.raises(RuntimeError):
            with FaultPlan(scatter_collisions=1):
                raise RuntimeError("boom")
        assert rounds._scatter_fault_hook is None
        assert active_fault_plan() is None

    def test_nested_activation_rejected(self):
        with FaultPlan():
            with pytest.raises(FaultInjectionError):
                with FaultPlan():
                    pass

    def test_negative_count_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(scatter_collisions=-1)
        assert rounds._scatter_fault_hook is None

    def test_inactive_plan_costs_nothing(self, p, plan):
        """Production path: no hook installed, execution untouched."""
        FaultPlan(scatter_collisions=1)
        assert rounds._scatter_fault_hook is None
        a = np.arange(N, dtype=np.float64)
        assert np.array_equal(
            RoundInterpreter().run(plan.lower(), a), expected_output(p, a)
        )
