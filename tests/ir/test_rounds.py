"""Tests for the access-round enumerator and the round interpreter."""

import numpy as np
import pytest

from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.core.transpose import TiledTranspose
from repro.errors import SharedMemoryCapacityError, SizeError, ValidationError
from repro.exec.interpreter import RoundInterpreter, run_op
from repro.exec.simulator import price_ops
from repro.ir.ops import (
    CasualRead,
    CasualWrite,
    CycleRotate,
    KernelOp,
    Pad,
    RowwiseScatter,
    Slice,
)
from repro.ir.program import KernelProgram
from repro.ir.rounds import PAYLOAD_ARRAYS, op_kernel, program_rounds
from repro.machine.params import MachineParams
from repro.permutations.named import random_permutation


class TestDataMovement:
    def test_payload_read_loads_values(self):
        q = np.array([3, 1, 0, 2])
        op = CasualRead(label="k", q=q)
        kernel = op_kernel(op)
        read_a = next(r for r in kernel.rounds if r.array == "a")
        assert read_a.kind == "read"
        assert np.array_equal(read_a.addresses, q)
        out = run_op(op, np.array([10.0, 11.0, 12.0, 13.0]))
        assert np.array_equal(out, [13.0, 11.0, 10.0, 12.0])

    def test_payload_write_stores_values(self):
        p = np.array([2, 0, 3, 1])
        op = CasualWrite(label="k", p=p)
        last = op_kernel(op).rounds[-1]
        assert (last.kind, last.array) == ("write", "b")
        assert np.array_equal(last.addresses, p)
        out = run_op(op, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out, [2.0, 4.0, 1.0, 3.0])

    def test_shared_addresses_are_block_local(self):
        rng = np.random.default_rng(0)
        gamma = np.stack([rng.permutation(8) for _ in range(2)])
        sched = RowwiseSchedule.plan(gamma, width=4)
        kernel = op_kernel(sched.op)
        shared = [r for r in kernel.rounds if r.space == "shared"]
        assert len(shared) == 4
        for rnd in shared:
            assert rnd.block_size == 8
            assert rnd.addresses.min() >= 0 and rnd.addresses.max() < 8
        mat = np.arange(16.0).reshape(2, 8)
        expected = np.empty_like(mat)
        expected[np.arange(2)[:, None], gamma] = mat
        assert np.array_equal(sched.apply(mat), expected)

    def test_interpreter_rejects_wrong_shape(self):
        plan = ScheduledPermutation.plan(random_permutation(64, seed=1),
                                         width=4)
        with pytest.raises(SizeError, match="shape"):
            RoundInterpreter().run(plan.lower(), np.zeros(65))

    def test_pad_and_slice_resize_without_rounds(self):
        program = KernelProgram(
            engine="x", n=3, width=0,
            ops=(
                Pad(label="pad", n=3, padded_n=4),
                CycleRotate(label="rot", p=np.array([1, 2, 3, 0])),
                CasualWrite(label="back", p=np.array([3, 0, 1, 2])),
                Slice(label="slice", n=3),
            ),
        )
        rounds = program_rounds(program)
        assert [r.index for r in rounds] == list(range(5))
        assert {r.kernel for r in rounds} == {"rot", "back"}
        out = RoundInterpreter().run(program, np.array([5.0, 6.0, 7.0]))
        assert np.array_equal(out, [5.0, 6.0, 7.0])


class TestElementCells:
    def test_float64_payload_rounds_span_two_cells(self):
        plan = ScheduledPermutation.plan(random_permutation(256, seed=2),
                                         width=4)
        rounds = program_rounds(plan.lower(), np.float64)
        assert len(rounds) == 32
        for rnd in rounds:
            if rnd.array in PAYLOAD_ARRAYS:
                assert rnd.element_cells == 2, rnd.label()
            else:
                assert rnd.element_cells == 1, rnd.label()   # uint16 s/t

    def test_double_width_doubles_coalesced_stages(self):
        params = MachineParams(width=4, latency=5, shared_capacity=None)
        op = CycleRotate(label="k", p=np.arange(16))
        single = price_ops("f32", (op,), params, np.float32)
        double = price_ops("f64", (op,), params, np.float64)
        assert single.kernels[0].rounds[0].time == 4 + 5 - 1
        assert double.kernels[0].rounds[0].time == 8 + 5 - 1

    def test_narrowed_index_rounds_keep_their_width(self):
        gamma = np.array([[1, 0, 3, 2], [0, 1, 2, 3]])
        sched = RowwiseSchedule.plan(gamma, width=2)
        wide = RowwiseScatter(
            label="wide", gamma=sched.gamma, width=2,
            s=sched.s.astype(np.int64), t=sched.t.astype(np.int64),
        )
        cells = {r.array: r.element_cells
                 for r in op_kernel(sched.op, np.float64).rounds}
        assert cells["s"] == cells["t"] == 1
        assert cells["a"] == cells["b"] == 2
        cells = {r.array: r.element_cells
                 for r in op_kernel(wide, np.float32).rounds}
        assert cells["s"] == cells["t"] == 2
        assert cells["a"] == cells["b"] == 1
        casual = RowwiseScatter(label="c", gamma=gamma, width=0)
        (read_gamma,) = [r for r in op_kernel(casual).rounds
                         if r.array == "gamma"]
        assert read_gamma.element_cells == 2       # int64 gamma


class TestKernels:
    def test_capacity_checked_from_kernel_shared_bytes(self):
        params = MachineParams(width=4, latency=5, shared_capacity=16)
        with pytest.raises(SharedMemoryCapacityError):
            TiledTranspose(8, width=4).simulate(params)

    def test_priced_kernel_names(self):
        plan = ScheduledPermutation.plan(random_permutation(64, seed=3),
                                         width=4)
        trace = plan.simulate(MachineParams(width=4, latency=5,
                                            shared_capacity=None))
        assert [k.name for k in trace.kernels] == [
            "rowwise", "transpose", "rowwise", "transpose", "rowwise"
        ]

    def test_unknown_op_kind_rejected(self):
        class MysteryOp(KernelOp):
            kind = "mystery"

        with pytest.raises(ValidationError, match="mystery"):
            op_kernel(MysteryOp(label="?"))
