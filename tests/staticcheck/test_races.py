"""Race-detector tests: intra-round, cross-round, emulator wiring."""

import numpy as np
import pytest

from repro.errors import MemoryRaceError
from repro.exec import RoundInterpreter
from repro.machine.dmm import DMM
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.requests import AccessRound
from repro.machine.umm import UMM
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation
from repro.resilience import FaultPlan
from repro.staticcheck import (
    check_races,
    detect_races,
    find_cross_round_hazards,
    find_intra_round_races,
)


def _global(kind, addrs):
    return AccessRound("global", kind, np.asarray(addrs), "b")


def _shared(kind, addrs, block):
    return AccessRound(
        "shared", kind, np.asarray(addrs), "x", block_size=block
    )


class TestIntraRound:
    def test_clean_write_round(self):
        assert find_intra_round_races([_global("write", [0, 1, 2, 3])]) == []

    def test_duplicate_global_write(self):
        findings = find_intra_round_races([_global("write", [0, 1, 1, 3])])
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "write-write" and f.scope == "intra-round"
        assert f.address == 1 and f.threads == (1, 2)
        assert "threads 1, 2" in f.describe()

    def test_read_rounds_never_race(self):
        assert find_intra_round_races([_global("read", [0, 0, 0, 0])]) == []

    def test_shared_same_address_different_blocks_ok(self):
        # Each block owns its own shared arrays: no collision.
        assert find_intra_round_races(
            [_shared("write", [0, 1, 0, 1], block=2)]
        ) == []

    def test_shared_same_block_collides(self):
        findings = find_intra_round_races(
            [_shared("write", [0, 0, 2, 3], block=2)]
        )
        assert len(findings) == 1
        assert findings[0].block == 0 and findings[0].address == 0

    def test_inactive_threads_ignored(self):
        findings = find_intra_round_races(
            [_global("write", [-1, -1, 2, 3])]
        )
        assert findings == []

    def test_max_findings_cap(self):
        rounds = [_global("write", [0, 0, 1, 1]) for _ in range(40)]
        assert len(find_intra_round_races(rounds, max_findings=5)) == 5


class TestCrossRound:
    def test_hazard_needs_differing_threads(self):
        w = _global("write", [0, 1, 2, 3])
        r = _global("read", [0, 1, 2, 3])   # same thread, same address
        assert find_cross_round_hazards([w, r]) == []

    def test_write_read_hazard(self):
        w = _global("write", [0, 1, 2, 3])
        r = _global("read", [1, 0, 2, 3])
        findings = find_cross_round_hazards([w, r])
        assert len(findings) == 1
        assert findings[0].kind == "write-read"
        assert findings[0].scope == "cross-round"

    def test_read_read_pairs_skipped(self):
        a = _global("read", [0, 1, 2, 3])
        b = _global("read", [3, 2, 1, 0])
        assert find_cross_round_hazards([a, b]) == []

    def test_different_arrays_skipped(self):
        w = _global("write", [0, 1, 2, 3])
        r = AccessRound("global", "read", np.array([1, 0, 2, 3]), "other")
        assert find_cross_round_hazards([w, r]) == []

    def test_barrier_gates_cross_round(self):
        w = _global("write", [0, 1, 2, 3])
        r = _global("read", [1, 0, 2, 3])
        assert detect_races([w, r], barrier=True) == []
        assert len(detect_races([w, r], barrier=False)) == 1

    def test_check_races_raises_with_findings(self):
        w = _global("write", [0, 0, 2, 3])
        with pytest.raises(MemoryRaceError) as err:
            check_races([w], context="unit")
        assert err.value.findings
        assert str(err.value).startswith("unit: ")


class TestEmulatorWiring:
    def test_dmm_simulate_detects(self):
        dmm = DMM(4)
        racy = [np.array([0, 0, 2, 3])]
        dmm.simulate(racy)   # detection off by default
        with pytest.raises(MemoryRaceError):
            dmm.simulate(racy, detect_races=True)
        # Declared reads cannot write-write race.
        report = dmm.simulate(racy, detect_races=True, kinds=["read"])
        assert report.total_time > 0

    def test_umm_simulate_detects(self):
        umm = UMM(4, latency=4)
        with pytest.raises(MemoryRaceError):
            umm.simulate([np.array([5, 5, 2, 3])], detect_races=True)

    def test_hmm_run_round_detects(self):
        hmm = HMM(detect_races=True)
        clean = AccessRound("global", "write", np.arange(64), "b")
        assert hmm.run_round(clean).stages >= 1
        racy = AccessRound(
            "global", "write",
            np.concatenate([[1], np.arange(1, 64)]), "b",
        )
        with pytest.raises(MemoryRaceError):
            hmm.run_round(racy)

    def test_scheduled_apply_is_race_free_under_detection(self):
        p = random_permutation(256, seed=7)
        plan = ScheduledPermutation.plan(p, width=4)
        machine = HMM(MachineParams(width=4, latency=4, num_dmms=2),
                      detect_races=True)
        trace = plan.simulate(machine)
        assert trace.num_rounds == 32

    def test_injected_scatter_collision_is_caught(self):
        p = random_permutation(256, seed=8)
        plan = ScheduledPermutation.plan(p, width=4)
        machine = HMM(MachineParams(width=4, latency=4, num_dmms=2),
                      detect_races=True)
        with pytest.raises(MemoryRaceError) as err:
            with FaultPlan(seed=5, scatter_collisions=1):
                plan.simulate(machine)
        assert err.value.findings[0].kind == "write-write"

    def test_injected_collision_corrupts_payload(self):
        p = random_permutation(256, seed=9)
        plan = ScheduledPermutation.plan(p, width=4)
        a = np.arange(256.0)
        expected = np.empty_like(a)
        expected[p] = a
        with FaultPlan(seed=5, scatter_collisions=1):
            corrupted = RoundInterpreter().run(plan.lower(), a)
        assert not np.array_equal(corrupted, expected)
        # And the damage is strictly scoped to the activation.
        assert np.array_equal(RoundInterpreter().run(plan.lower(), a), expected)
