"""Pass-framework tests: pipeline mechanics, signatures, the identity
guard, and the semantics-preservation property over every engine."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.reference import ReferenceExecutor
from repro.ir.ops import Slice
from repro.ir.program import KernelProgram, concat_programs
from repro.ir.registry import engine_names, get_engine
from repro.passes import (
    PassPipeline,
    aggressive_pipeline,
    default_pipeline,
    identity_guard,
    is_identity_guard,
)
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)

FAMILIES = {
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
    "random": lambda n: random_permutation(n, seed=7),
}

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestSemanticsPreserved:
    """Every pass pipeline keeps every engine's program equivalent."""

    @pytest.mark.parametrize("engine_name", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_default_pipeline(self, engine_name, family):
        p = FAMILIES[family](_N)
        engine = get_engine(engine_name).plan(p, width=_WIDTH)
        raw = engine.lower()
        optimized = default_pipeline().run(raw)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(
            ReferenceExecutor().run(optimized, a), _expected(p, a)
        )
        assert optimized.num_rounds <= raw.num_rounds

    @pytest.mark.parametrize("engine_name", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_aggressive_pipeline(self, engine_name, family):
        p = FAMILIES[family](_N)
        engine = get_engine(engine_name).plan(p, width=_WIDTH)
        optimized = aggressive_pipeline().run(engine.lower())
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(
            ReferenceExecutor().run(optimized, a), _expected(p, a)
        )


class TestIdempotence:
    @pytest.mark.parametrize("engine_name", sorted(engine_names()))
    def test_second_run_is_a_fixpoint(self, engine_name):
        p = bit_reversal(_N)
        engine = get_engine(engine_name).plan(p, width=_WIDTH)
        once = default_pipeline().run(engine.lower())
        twice = default_pipeline().run(once)
        assert twice.num_rounds == once.num_rounds
        assert len(twice.ops) == len(once.ops)
        assert [op.kind for op in twice.ops] == [
            op.kind for op in once.ops
        ]


class TestPipelineMechanics:
    def test_signature_names_every_pass(self):
        sig = default_pipeline().signature()
        assert sig.startswith("default@v")
        for name in ("simplify-pad-slice", "fuse-rowwise",
                     "fuse-casual", "cancel-transposes"):
            assert name in sig

    def test_aggressive_signature_differs(self):
        assert (aggressive_pipeline().signature()
                != default_pipeline().signature())
        assert "drop-identities" in aggressive_pipeline().signature()

    def test_describe_reports_changes(self):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        raw = concat_programs(plan.lower(), plan.inverse().lower(),
                              engine="roundtrip")
        optimized, changes = default_pipeline().explain(raw)
        assert optimized.num_rounds == 0
        assert changes, "cancellation must be reported"
        text = default_pipeline().describe()
        assert "default" in text

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValidationError):
            PassPipeline(())


class TestIdentityGuard:
    def test_guard_shape(self):
        program = KernelProgram(
            engine="x", n=8, width=4,
            ops=(Slice(label="s", n=8),),
        )
        guard = identity_guard(program)
        assert is_identity_guard(guard)
        assert guard.num_rounds == 0

    def test_fully_cancelled_roundtrip_becomes_guard(self):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        raw = concat_programs(plan.lower(), plan.inverse().lower(),
                              engine="roundtrip")
        optimized = default_pipeline().run(raw)
        assert is_identity_guard(optimized)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(ReferenceExecutor().run(optimized, a), a)


class TestValidateMode:
    """``run(validate=True)``: per-pass translation validation."""

    def test_clean_pipeline_validates_unchanged(self):
        p = random_permutation(_N, seed=7)
        raw = get_engine("scheduled").plan(p, width=_WIDTH).lower()
        checked = default_pipeline().run(raw, validate=True)
        plain = default_pipeline().run(raw)
        assert [op.kind for op in checked.ops] == \
            [op.kind for op in plain.ops]

    def test_broken_pass_raises_with_blame(self):
        import dataclasses

        from repro.errors import SemanticValidationError
        from repro.ir.ops import CasualWrite

        class Swapper:
            name = "swap-two"

            def run(self, program):
                q = np.arange(program.n, dtype=np.int64)
                q[0], q[1] = q[1], q[0]
                return dataclasses.replace(
                    program,
                    ops=(*program.ops,
                         CasualWrite(label="swap", p=q)),
                    meta=None,
                )

        p = random_permutation(_N, seed=7)
        raw = get_engine("cpu-blocked").plan(p, width=_WIDTH).lower()
        pipeline = PassPipeline(
            (*default_pipeline().passes, Swapper()), name="broken"
        )
        with pytest.raises(SemanticValidationError) as excinfo:
            pipeline.run(raw, validate=True)
        cert = excinfo.value.certificate
        assert cert is not None
        assert cert.blame == "swap-two"
        assert cert.counterexample is not None
        # The counterexample pinpoints one of the swapped elements.
        swapped = {int(np.flatnonzero(p == 0)[0]),
                   int(np.flatnonzero(p == 1)[0])}
        assert cert.counterexample.index in swapped

    def test_explain_validate_reports_same_changes(self):
        p = bit_reversal(_N)
        engine = get_engine("scheduled").plan(p, width=_WIDTH)
        raw = concat_programs(
            engine.lower(), engine.inverse().lower(),
            engine="roundtrip",
        )
        _opt, changes = default_pipeline().explain(raw)
        _opt2, checked = default_pipeline().explain(raw, validate=True)
        assert [c.name for c in changes] == \
            [c.name for c in checked]
