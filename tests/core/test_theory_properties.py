"""Property tests pinning every closed form to the simulator, across
machine shapes, element widths and permutations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import theory
from repro.core.conventional import (
    DDesignatedPermutation,
    SDesignatedPermutation,
)
from repro.core.distribution import distribution
from repro.core.scheduled import ScheduledPermutation
from repro.machine.params import MachineParams
from repro.permutations.ops import invert

_DTYPES = {1: np.float32, 2: np.float64, 4: np.complex128}


@st.composite
def machine_and_perm(draw):
    width = draw(st.sampled_from([4, 8]))
    mult = draw(st.integers(min_value=1, max_value=3))
    m = width * mult
    latency = draw(st.integers(min_value=1, max_value=20))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = np.random.default_rng(seed).permutation(m * m).astype(np.int64)
    params = MachineParams(
        width=width, latency=latency, num_dmms=d, shared_capacity=None
    )
    return p, params


@settings(deadline=None, max_examples=25)
@given(machine_and_perm(), st.sampled_from([1, 2, 4]))
def test_property_scheduled_formula_all_widths(pm, k):
    p, params = pm
    plan = ScheduledPermutation.plan(p, width=params.width)
    measured = plan.simulate(params, dtype=_DTYPES[k]).time
    assert measured == theory.scheduled_time(
        p.size, params.width, params.latency, params.num_dmms,
        element_cells=k,
    )


@settings(deadline=None, max_examples=25)
@given(machine_and_perm(), st.sampled_from([1, 2, 4]))
def test_property_conventional_formula_all_widths(pm, k):
    p, params = pm
    w = params.width
    if w % k != 0:
        return                      # mixed-group form needs k | w
    measured = DDesignatedPermutation(p).simulate(
        params, dtype=_DTYPES[k]
    ).time
    mixed = distribution(p, w, w // k)
    assert measured == theory.conventional_time(
        p.size, w, params.latency, mixed, element_cells=k
    )


@settings(deadline=None, max_examples=20)
@given(machine_and_perm())
def test_property_s_designated_uses_inverse_distribution(pm):
    p, params = pm
    measured = SDesignatedPermutation(p).simulate(params).time
    d = distribution(invert(p), params.width)
    assert measured == theory.conventional_time(
        p.size, params.width, params.latency, d
    )


@settings(deadline=None, max_examples=20)
@given(machine_and_perm())
def test_property_everything_respects_lower_bound(pm):
    p, params = pm
    lb = theory.lower_bound(p.size, params.width, params.latency)
    assert DDesignatedPermutation(p).simulate(params).time >= lb
    assert ScheduledPermutation.plan(
        p, width=params.width
    ).simulate(params).time >= lb


@settings(deadline=None, max_examples=20)
@given(machine_and_perm())
def test_property_no_casual_rounds_ever(pm):
    """The core claim, as a property: the scheduled algorithm never
    emits a casual round, whatever the permutation or machine."""
    p, params = pm
    trace = ScheduledPermutation.plan(p, width=params.width).simulate(params)
    for kernel in trace.kernels:
        for rnd in kernel.rounds:
            assert rnd.classification in ("coalesced", "conflict-free")


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from([2, 4, 8, 16]),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_mixed_distribution_monotone(width, warps, k, seed):
    """Finer groups can only increase the distribution:
    D(p, w, w/k) >= D(p, w, w)."""
    if width % k:
        return
    n = width * warps
    p = np.random.default_rng(seed).permutation(n).astype(np.int64)
    coarse = distribution(p, width, width)
    fine = distribution(p, width, width // k)
    assert fine >= coarse
    assert fine <= k * coarse


def test_dtype_map_is_what_simulate_uses():
    from repro.machine.cost_model import element_cells_of

    for k, dtype in _DTYPES.items():
        assert element_cells_of(dtype) == k
