"""Differential validation: static certifier vs. dynamic simulator.

The certifier derives every round's stage count with its own
scatter-add counting; the simulator prices the same access-round
stream through the HMM's bincount cost model.  The two share no
counting code, so agreement here means two independent derivations of
the paper's cost model coincide — on every round of every plan, sound
or deliberately corrupted.

Simulation uses ``num_dmms=1`` so a shared round's cost equals the
certifier's all-warp stage sum, and ``float32`` payloads so global
rounds are charged one cell per element.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.scheduled import ScheduledPermutation
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.staticcheck import certify_plan

WIDTH = 32

FAMILIES = {
    "bit-reversal": lambda n: bit_reversal(n),
    "transpose": lambda n: transpose_permutation(n),
    "random": lambda n: random_permutation(n, seed=42),
}

SIZES = [2**10, 2**14, 2**18]


def simulate_rounds(plan):
    """Price the plan and return its 32 measured RoundCosts."""
    machine = HMM(MachineParams(width=WIDTH, latency=8, num_dmms=1,
                                shared_capacity=None))
    trace = plan.simulate(machine, dtype=np.float32)
    return [r for kernel in trace.kernels for r in kernel.rounds]


def assert_agreement(cert, measured):
    assert len(measured) == cert.num_rounds == 32
    for verdict, cost in zip(cert.rounds, measured):
        label = f"round {verdict.index} ({verdict.kernel})"
        assert verdict.space == cost.space, label
        assert verdict.kind == cost.kind, label
        assert verdict.array == cost.array, label
        assert verdict.stages == cost.stages, label
        assert verdict.classification == cost.classification, label


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n=2^{n.bit_length() - 1}")
def test_certifier_matches_simulator(family, n):
    plan = ScheduledPermutation.plan(FAMILIES[family](n), width=WIDTH)
    cert = certify_plan(plan)
    assert cert.ok, cert.summary()
    assert_agreement(cert, simulate_rounds(plan))


def corrupt(plan, step_attr, block, lane):
    step = getattr(plan, step_attr)
    bad_s = step.s.copy()
    bad_s[block, lane] = bad_s[block, 0]
    return dataclasses.replace(
        plan, **{step_attr: dataclasses.replace(step, s=bad_s)}
    )


@pytest.mark.parametrize("step_attr,kernel", [
    ("step1", "step1.rowwise"),
    ("step3", "step3.rowwise"),
])
def test_corrupted_plan_counterexample_matches_measurement(
    step_attr, kernel
):
    plan = ScheduledPermutation.plan(
        random_permutation(2**10, seed=13), width=WIDTH
    )
    bad = corrupt(plan, step_attr, block=3, lane=17)
    cert = certify_plan(bad)
    assert not cert.ok
    c = cert.counterexample
    assert c.kernel == kernel
    # The simulator measures the identical per-round costs — including
    # the conflicted round the counterexample points at, which it
    # classifies as casual with the exact stage surcharge the
    # certifier predicted.
    measured = simulate_rounds(bad)
    assert_agreement(cert, measured)
    assert measured[c.round_index].classification == "casual"
    broken = [r for r in cert.rounds if not r.ok]
    assert len(broken) == 1 and broken[0].index == c.round_index
    # One duplicated address -> one warp gains exactly one stage.
    assert broken[0].stages == broken[0].num_warps + 1


def test_multiple_corruptions_all_localised():
    plan = ScheduledPermutation.plan(
        random_permutation(2**10, seed=14), width=WIDTH
    )
    bad = corrupt(corrupt(plan, "step1", 0, 1), "step3", 5, 9)
    cert = certify_plan(bad)
    measured = simulate_rounds(bad)
    assert_agreement(cert, measured)
    casual = {r.index for r in cert.rounds if not r.ok}
    assert casual == {
        r_index for r_index, cost in enumerate(measured)
        if cost.classification == "casual"
    }
    assert len(casual) == 2
