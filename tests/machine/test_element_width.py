"""Tests for the element-width (doubles) extension of the cost model.

The base model's cell is one 32-bit word; ``element_cells = 2`` models
64-bit payloads: each access touches two consecutive cells, so global
rounds cost up to twice the stages (two transactions per warp) while
shared banks stay element-addressed (Kepler's 64-bit bank mode keeps
the paper's conflict-free schedules conflict-free for doubles).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AccessRoundError
from repro.machine.cache import L2Cache, cached_global_stages
from repro.machine.cost_model import (
    _expand_cells,
    global_round_stages,
    global_warp_stages,
)
from repro.machine.hmm import HMM
from repro.machine.cost_model import element_cells_of
from repro.machine.params import MachineParams
from repro.machine.requests import AccessRound


class TestExpandCells:
    def test_identity_for_k1(self):
        a = np.array([3, 1, -1])
        assert _expand_cells(a, 1) is not None
        assert np.array_equal(_expand_cells(a, 1), a)

    def test_k2(self):
        out = _expand_cells(np.array([3, 0]), 2)
        assert np.array_equal(out, [6, 7, 0, 1])

    def test_inactive_stays_inactive(self):
        out = _expand_cells(np.array([-1, 2]), 2)
        assert np.array_equal(out, [-1, -1, 4, 5])

    def test_rejects_zero(self):
        with pytest.raises(AccessRoundError):
            _expand_cells(np.array([0]), 0)


class TestElementCellsOf:
    def test_mapping(self):
        assert element_cells_of(np.float32) == 1
        assert element_cells_of(np.int32) == 1
        assert element_cells_of(np.uint16) == 1    # sub-word: 1 cell
        assert element_cells_of(np.float64) == 2
        assert element_cells_of(np.complex128) == 4


class TestGlobalStages:
    def test_coalesced_doubles_twice_the_stages(self):
        addrs = np.arange(64)
        assert global_round_stages(addrs, 32, 1) == 2
        assert global_round_stages(addrs, 32, 2) == 4

    def test_scattered_doubles_cells_share_groups(self):
        # Each element's two cells land in the same 32-cell group
        # (k divides w and cells are aligned), so a full scatter costs
        # the same stage count as floats when destinations are spread.
        addrs = np.arange(32) * 32          # one group per element
        assert global_warp_stages(addrs, 32, 1)[0] == 32
        assert global_warp_stages(addrs, 32, 2)[0] == 32

    def test_group_size_in_elements_halves(self):
        # 16 consecutive even slots: floats -> 1 group; doubles -> the
        # 32 cells span exactly one group too; but elements 0..31
        # (32 doubles = 64 cells) span 2 groups.
        assert global_warp_stages(np.arange(16), 16, 1)[0] == 1
        assert global_warp_stages(np.arange(16), 16, 2)[0] == 2

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                 max_size=64),
    )
    def test_property_stages_monotone_in_k(self, k, addr_list):
        """Wider elements can never need fewer transactions."""
        addrs = np.asarray(addr_list, dtype=np.int64)
        s1 = global_round_stages(addrs, 8, 1)
        sk = global_round_stages(addrs, 8, k)
        assert s1 <= sk <= k * s1


class TestHMMIntegration:
    def test_round_with_element_cells(self):
        hmm = HMM(MachineParams(width=4, latency=5, shared_capacity=None))
        rnd = AccessRound("global", "read", np.arange(16), "a",
                          element_cells=2)
        cost = hmm.run_round(rnd)
        assert cost.stages == 8
        # Still classified coalesced (element addresses are).
        assert cost.classification == "coalesced"

    def test_cache_path_expands_too(self):
        cache = L2Cache(hit_stages=1, miss_stages=1)
        addrs = np.arange(64)
        assert cached_global_stages(addrs, 32, cache, "a", 2) == \
            global_round_stages(addrs, 32, 2)

    def test_rejects_bad_element_cells(self):
        with pytest.raises(AccessRoundError):
            AccessRound("global", "read", np.arange(4), "a",
                        element_cells=0)
