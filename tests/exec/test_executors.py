"""Executor differential tests.

Every registered engine's lowered program must run identically through
``engine.apply`` (the sealed gather), every row of ``apply_batch``, the
reference executor, the round interpreter over the raw and the
optimized program, and the simulator — one IR, independent semantics.
The round interpreter moves data through the very rounds the simulator
charges, so agreeing with it proves those rounds compute the answer.
"""

import numpy as np
import pytest

from repro.errors import SizeError, ValidationError
from repro.exec import ReferenceExecutor, RoundInterpreter, SimulatorExecutor
from repro.ir.ops import KernelOp
from repro.ir.program import KernelProgram
from repro.ir.registry import engine_names, get_engine
from repro.machine.params import MachineParams
from repro.permutations.named import random_permutation

N = 256
WIDTH = 4
MACHINE = MachineParams(width=WIDTH, latency=9, num_dmms=2,
                        shared_capacity=None)


def _planned(name):
    p = random_permutation(N, seed=13)
    return get_engine(name).plan(p, width=WIDTH), p


@pytest.mark.parametrize("name", sorted(engine_names()))
class TestPerEngine:
    def test_reference_matches_apply(self, name):
        engine, p = _planned(name)
        a = np.random.default_rng(1).random(N)
        expected = np.empty_like(a)
        expected[p] = a
        out = ReferenceExecutor().run(engine.lower(), a)
        assert np.array_equal(out, expected)
        # apply agrees (on a copy: cpu-inplace mutates its input).
        assert np.array_equal(engine.apply(a.copy()), expected)
        # The charged rounds compute it, raw and optimized.
        interpreter = RoundInterpreter()
        assert np.array_equal(interpreter.run(engine.lower(), a), expected)
        assert np.array_equal(
            interpreter.run(engine.lower_optimized(), a), expected
        )
        # So does every row of a batch.
        batch = np.stack([a, a[::-1].copy(), np.zeros_like(a)])
        rows = engine.apply_batch(batch.copy())
        for row, payload in zip(rows, batch):
            assert np.array_equal(
                row, ReferenceExecutor().run(engine.lower(), payload)
            )

    def test_simulator_agrees_with_engine_simulate(self, name):
        engine, _p = _planned(name)
        program = engine.lower()
        trace = SimulatorExecutor().simulate(program, MACHINE)
        assert trace.time == engine.simulate(MACHINE).time
        assert trace.num_rounds == program.num_rounds

    def test_program_round_trips_through_from_program(self, name):
        engine, p = _planned(name)
        rebuilt = type(engine).from_program(engine.lower(), p)
        a = np.random.default_rng(2).random(N)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(rebuilt.apply(a.copy()), expected)


class TestErrors:
    def test_reference_rejects_wrong_shape(self):
        engine, _p = _planned("scheduled")
        with pytest.raises(SizeError, match="shape"):
            ReferenceExecutor().run(engine.lower(), np.zeros(N + 1))

    def test_batch_rejects_1d_input(self):
        engine, _p = _planned("scheduled")
        with pytest.raises(SizeError, match="batch"):
            engine.apply_batch(np.zeros(N))

    @pytest.mark.parametrize("name", sorted(engine_names()))
    def test_wrong_length_is_a_size_error(self, name):
        engine, _p = _planned(name)
        with pytest.raises(SizeError):
            engine.apply(np.zeros(N - 1))
        with pytest.raises(SizeError):
            engine.apply_batch(np.zeros((2, N - 1)))

    def test_unknown_op_kind_rejected(self):
        class MysteryOp(KernelOp):
            kind = "mystery"

        program = KernelProgram(
            engine="x", n=4, width=0,
            ops=(MysteryOp(label="?"),),
        )
        with pytest.raises(ValidationError, match="mystery"):
            ReferenceExecutor().run(program, np.zeros(4))


class TestSimulatorDetail:
    def test_scheduled_trace_is_bitwise_the_engine_trace(self):
        engine, _p = _planned("scheduled")
        ours = SimulatorExecutor().simulate(engine.lower(), MACHINE)
        theirs = engine.simulate(MACHINE)
        assert ours.num_rounds == theirs.num_rounds == 32
        assert ours.count_rounds() == theirs.count_rounds()
        assert ours.count_classified() == theirs.count_classified()

    def test_empty_batch_supported(self):
        engine, _p = _planned("scheduled")
        out = engine.apply_batch(np.zeros((0, N)))
        assert out.shape == (0, N)
