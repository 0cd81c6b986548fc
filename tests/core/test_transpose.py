"""Tests for the tiled diagonal transpose (Section V, Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transpose import TiledTranspose, diagonal_slot
from repro.core.theory import transpose_time
from repro.errors import SizeError
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams


class TestDiagonalSlot:
    def test_figure4_layout(self):
        """Figure 4: the 4x4 diagonal arrangement.

        Address k of shared row i holds element [i, (k - i) mod 4]:
            row 0: [0,0] [0,1] [0,2] [0,3]
            row 1: [1,3] [1,0] [1,1] [1,2]
            row 2: [2,2] [2,3] [2,0] [2,1]
            row 3: [3,1] [3,2] [3,3] [3,0]
        """
        w = 4
        expected = {
            (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
            (1, 3): 4, (1, 0): 5, (1, 1): 6, (1, 2): 7,
            (2, 2): 8, (2, 3): 9, (2, 0): 10, (2, 1): 11,
            (3, 1): 12, (3, 2): 13, (3, 3): 14, (3, 0): 15,
        }
        for (i, j), addr in expected.items():
            assert diagonal_slot(np.array([i]), np.array([j]), w)[0] == addr

    def test_rows_hit_distinct_banks(self):
        w = 8
        for i in range(w):
            banks = diagonal_slot(
                np.full(w, i), np.arange(w), w
            ) % w
            assert len(set(banks.tolist())) == w

    def test_columns_hit_distinct_banks(self):
        w = 8
        for j in range(w):
            banks = diagonal_slot(
                np.arange(w), np.full(w, j), w
            ) % w
            assert len(set(banks.tolist())) == w


class TestCorrectness:
    def test_single_tile(self):
        t = TiledTranspose(4, width=4)
        mat = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(t.apply(mat), mat.T)

    def test_multi_tile(self):
        t = TiledTranspose(16, width=4)
        rng = np.random.default_rng(0)
        mat = rng.random((16, 16))
        assert np.array_equal(t.apply(mat), mat.T)

    def test_naive_arrangement_also_correct(self):
        t = TiledTranspose(8, width=4, diagonal=False)
        mat = np.arange(64.0).reshape(8, 8)
        assert np.array_equal(t.apply(mat), mat.T)

    def test_shape_validation(self):
        t = TiledTranspose(8, width=4)
        with pytest.raises(SizeError):
            t.apply(np.zeros((4, 4)))

    def test_size_constraints(self):
        with pytest.raises(SizeError):
            TiledTranspose(6, width=4)
        with pytest.raises(SizeError):
            TiledTranspose(2, width=4)

    @settings(deadline=None, max_examples=20)
    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_equals_numpy_transpose(self, width, mult, seed):
        m = width * mult
        rng = np.random.default_rng(seed)
        mat = rng.random((m, m))
        t = TiledTranspose(m, width)
        assert np.array_equal(t.apply(mat), mat.T)


class TestRounds:
    def test_table1_round_counts(self, tiny_machine):
        t = TiledTranspose(16, width=4)
        trace = t.simulate(tiny_machine)
        counts = trace.count_rounds()
        assert counts == {
            "global read": 1,
            "global write": 1,
            "shared read": 1,
            "shared write": 1,
        }

    def test_all_rounds_clean_with_diagonal(self, tiny_machine):
        t = TiledTranspose(16, width=4)
        trace = t.simulate(tiny_machine)
        assert all(
            r.classification in ("coalesced", "conflict-free")
            for r in trace.kernels[0].rounds
        )

    def test_naive_arrangement_conflicts(self, tiny_machine):
        """The ablation: without the diagonal trick the shared read is a
        w-way bank conflict, w times slower."""
        diag = TiledTranspose(16, width=4).simulate(tiny_machine)
        naive = TiledTranspose(16, width=4, diagonal=False).simulate(
            tiny_machine
        )
        diag_read = [
            r for r in diag.kernels[0].rounds
            if r.space == "shared" and r.kind == "read"
        ][0]
        naive_read = [
            r for r in naive.kernels[0].rounds
            if r.space == "shared" and r.kind == "read"
        ][0]
        assert naive_read.classification == "casual"
        assert naive_read.stages == 4 * diag_read.stages

    def test_time_matches_theory(self):
        for d in (1, 2, 4):
            params = MachineParams(
                width=4, latency=7, num_dmms=d, shared_capacity=None
            )
            t = TiledTranspose(16, width=4)
            trace = t.simulate(params)
            assert trace.time == transpose_time(256, 4, 7, d)

    def test_shared_capacity_enforced(self):
        params = MachineParams(width=32, latency=5, shared_capacity=128)
        t = TiledTranspose(64, width=32)
        from repro.errors import SharedMemoryCapacityError
        with pytest.raises(SharedMemoryCapacityError):
            t.simulate(params, dtype=np.float64)
