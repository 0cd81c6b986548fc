"""Tests for the conflict-free row-wise permutation (Section VI)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.rowwise import RowwiseSchedule
from repro.core.theory import rowwise_time
from repro.errors import SchedulingError, SizeError
from repro.ir.program import KernelProgram
from repro.machine.params import MachineParams
from repro.staticcheck import certify_program
from tests.conftest import row_permutation_matrices_st


def _random_gamma(rows, m, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(m) for _ in range(rows)]).astype(np.int64)


def _certificate(sched):
    """The static certificate of the schedule's kernel alone."""
    return certify_program(KernelProgram(
        engine="rowwise", n=sched.rows * sched.m, width=sched.width,
        ops=(sched.op,),
    ))


class TestPlanning:
    def test_schedule_dtypes_are_16bit_for_paper_sizes(self):
        # m = 512 needs 16-bit entries (the paper's short int).
        gamma = _random_gamma(2, 512, 0)
        sched = RowwiseSchedule.plan(gamma, width=4)
        assert sched.s.dtype == np.uint16
        assert sched.t.dtype == np.uint16

    def test_small_sizes_use_uint8(self):
        gamma = _random_gamma(2, 8, 0)
        sched = RowwiseSchedule.plan(gamma, width=4)
        assert sched.s.dtype == np.uint8

    def test_s_rows_are_permutations(self):
        gamma = _random_gamma(5, 16, 1)
        sched = RowwiseSchedule.plan(gamma, width=4)
        for j in range(5):
            assert np.array_equal(np.sort(sched.s[j]), np.arange(16))
            assert np.array_equal(np.sort(sched.t[j]), np.arange(16))

    def test_t_is_gamma_after_s_inverse(self):
        gamma = _random_gamma(3, 16, 2)
        sched = RowwiseSchedule.plan(gamma, width=4)
        for j in range(3):
            s_inv = np.empty(16, dtype=np.int64)
            s_inv[sched.s[j].astype(np.int64)] = np.arange(16)
            assert np.array_equal(
                sched.t[j].astype(np.int64), gamma[j][s_inv]
            )

    def test_verify_conflict_free_passes(self):
        gamma = _random_gamma(8, 32, 3)
        sched = RowwiseSchedule.plan(gamma, width=8)
        assert _certificate(sched).ok

    def test_verify_detects_conflict(self):
        gamma = _random_gamma(1, 8, 4)
        sched = RowwiseSchedule.plan(gamma, width=4)
        # Sabotage: make two threads of one warp write the same bank.
        bad_s = sched.s.copy().astype(np.int64)
        bad_s[0, 0], bad_s[0, 1] = 0, 4
        sched_bad = RowwiseSchedule(
            gamma=gamma, s=bad_s, t=sched.t, width=4
        )
        cert = _certificate(sched_bad)
        assert not cert.conflict_free
        assert cert.counterexample.lanes == (0, 1)

    def test_rejects_non_permutation_rows(self):
        gamma = np.zeros((2, 8), dtype=np.int64)
        with pytest.raises(SchedulingError):
            RowwiseSchedule.plan(gamma, width=4)

    @pytest.mark.parametrize("gamma", [
        np.array([[0, 1, 2, 8]]),           # out of range
        np.array([[0, 1, 2, -1]]),
        np.array([[0, 1, 1, 3]]),           # a repeated column
    ])
    def test_rejects_rows_that_are_not_permutations(self, gamma):
        with pytest.raises(SchedulingError, match="permutation"):
            RowwiseSchedule.plan(gamma, width=2)

    @pytest.mark.parametrize("slot, colour", [
        (-1, "degree"),     # one colour too many
        (0, "negative"),    # a colour below 0
    ])
    def test_rejects_a_bank_colour_out_of_range(
        self, monkeypatch, slot, colour
    ):
        import repro.core.rowwise as rowwise

        real = rowwise.edge_coloring

        def out_of_range(graph):
            colors = real(graph).copy()
            colors[slot] = graph.degree if colour == "degree" else -1
            return colors

        monkeypatch.setattr(rowwise, "edge_coloring", out_of_range)
        with pytest.raises(SchedulingError, match="bank colouring"):
            RowwiseSchedule.plan(_random_gamma(3, 16, 6), width=4)

    def test_rejects_bad_width(self):
        gamma = _random_gamma(2, 6, 0)
        with pytest.raises(SizeError):
            RowwiseSchedule.plan(gamma, width=4)

    def test_matching_backend_works(self):
        # Row degree 12 / 4 = 3: the colouring's odd (matching) step.
        gamma = _random_gamma(3, 12, 5)
        sched = RowwiseSchedule.plan(gamma, width=4)
        assert _certificate(sched).ok

    @settings(deadline=None, max_examples=30)
    @given(row_permutation_matrices_st())
    def test_property_schedule_always_conflict_free(self, gamma_width):
        gamma, width = gamma_width
        sched = RowwiseSchedule.plan(gamma, width)
        assert _certificate(sched).ok


class TestExecution:
    def test_applies_gamma(self):
        gamma = _random_gamma(4, 16, 6)
        sched = RowwiseSchedule.plan(gamma, width=4)
        mat = np.random.default_rng(0).random((4, 16))
        out = sched.apply(mat)
        expected = np.empty_like(mat)
        rows = np.arange(4)[:, None]
        expected[rows, gamma] = mat
        assert np.array_equal(out, expected)

    def test_identity_rows(self):
        gamma = np.tile(np.arange(16), (3, 1))
        sched = RowwiseSchedule.plan(gamma, width=4)
        mat = np.random.default_rng(1).random((3, 16))
        assert np.array_equal(sched.apply(mat), mat)

    def test_shape_check(self):
        gamma = _random_gamma(2, 8, 7)
        sched = RowwiseSchedule.plan(gamma, width=4)
        with pytest.raises(SizeError):
            sched.apply(np.zeros((3, 8)))

    @settings(deadline=None, max_examples=30)
    @given(row_permutation_matrices_st())
    def test_property_matches_direct_scatter(self, gamma_width):
        gamma, width = gamma_width
        sched = RowwiseSchedule.plan(gamma, width)
        rows, m = gamma.shape
        mat = np.random.default_rng(0).random((rows, m))
        expected = np.empty_like(mat)
        expected[np.arange(rows)[:, None], gamma] = mat
        assert np.array_equal(sched.apply(mat), expected)


class TestRounds:
    def test_table1_round_counts(self, tiny_machine):
        gamma = _random_gamma(16, 16, 8)
        sched = RowwiseSchedule.plan(gamma, width=4)
        trace = sched.simulate(tiny_machine)
        counts = trace.count_rounds()
        assert counts == {
            "global read": 3,
            "global write": 1,
            "shared read": 2,
            "shared write": 2,
        }

    def test_all_rounds_clean(self, tiny_machine):
        gamma = _random_gamma(16, 16, 9)
        sched = RowwiseSchedule.plan(gamma, width=4)
        trace = sched.simulate(tiny_machine)
        classes = [r.classification for r in trace.kernels[0].rounds]
        assert set(classes) <= {"coalesced", "conflict-free"}

    def test_time_matches_theory(self):
        m = 16
        gamma = _random_gamma(m, m, 10)
        for d in (1, 2, 4):
            params = MachineParams(
                width=4, latency=9, num_dmms=d, shared_capacity=None
            )
            sched = RowwiseSchedule.plan(gamma, width=4)
            trace = sched.simulate(params)
            assert trace.time == rowwise_time(m * m, 4, 9, d)

    def test_shared_bytes_accounts_two_buffers(self):
        gamma = _random_gamma(2, 4096, 11)
        sched = RowwiseSchedule.plan(gamma, width=4)
        assert sched.shared_bytes(np.float32) == 2 * 4096 * 4
        assert sched.shared_bytes(np.float64) == 2 * 4096 * 8
