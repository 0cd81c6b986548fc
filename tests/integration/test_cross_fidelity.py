"""Cross-fidelity pinning: the cycle-accurate engine and the closed-form
cost model agree on the actual kernels of the actual algorithms (not
just synthetic rounds)."""

import numpy as np
import pytest

from repro.core.conventional import DDesignatedPermutation
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.core.transpose import TiledTranspose
from repro.machine.cost_model import (
    global_round_stages,
    round_time,
    shared_warp_stages,
)
from repro.ir.rounds import op_kernels
from repro.machine.pipeline import simulate_access_sequence
from repro.permutations.named import random_permutation

WIDTH = 4
LATENCY = 7


def _collect_rounds(ops):
    """The kernels the access-round enumerator emits for ``ops``."""
    return [k.to_kernel() for k in op_kernels(ops, np.float32)]


def _check_kernels(kernels):
    """Every kernel's global and shared round sequences must cost, on
    the cycle engine (barrier mode), exactly the closed forms the HMM
    charges."""
    for kernel in kernels:
        global_rounds = [r.addresses for r in kernel.rounds
                         if r.space == "global"]
        if global_rounds:
            cyc = simulate_access_sequence(
                global_rounds, WIDTH, LATENCY, "global", barrier=True
            ).total_time
            closed = sum(
                round_time(global_round_stages(a, WIDTH), LATENCY)
                for a in global_rounds
            )
            assert cyc == closed
        shared_rounds = [r.addresses for r in kernel.rounds
                         if r.space == "shared"]
        if shared_rounds:
            cyc = simulate_access_sequence(
                shared_rounds, WIDTH, 1, "shared", barrier=True
            ).total_time
            closed = sum(
                round_time(int(shared_warp_stages(a, WIDTH).sum()), 1)
                for a in shared_rounds
            )
            assert cyc == closed


def test_conventional_kernel_cross_fidelity():
    p = random_permutation(64, seed=0)
    kernels = _collect_rounds(DDesignatedPermutation(p).lower().ops)
    assert len(kernels) == 1
    _check_kernels(kernels)


def test_transpose_kernel_cross_fidelity():
    t = TiledTranspose(8, WIDTH)
    kernels = _collect_rounds((t.op,))
    _check_kernels(kernels)


def test_rowwise_kernel_cross_fidelity():
    rng = np.random.default_rng(1)
    gamma = np.stack([rng.permutation(8) for _ in range(8)]).astype(np.int64)
    sched = RowwiseSchedule.plan(gamma, WIDTH)
    kernels = _collect_rounds((sched.op,))
    _check_kernels(kernels)


@pytest.mark.slow
def test_full_scheduled_program_cross_fidelity():
    p = random_permutation(64, seed=2)
    plan = ScheduledPermutation.plan(p, width=WIDTH)
    kernels = _collect_rounds(plan.lower().ops)
    assert len(kernels) == 5
    assert sum(k.num_rounds for k in kernels) == 32
    _check_kernels(kernels)
