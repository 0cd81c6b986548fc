"""Translation validation: the symbolic semantics layer.

Three oracles, one generator (``tests.ir.strategies``):

* the *denotation* of a random program must agree with what the
  reference executor actually does to a payload,
* every engine's lowered program, raw and optimized under both
  pipelines, must denote exactly the requested permutation,
* a deliberately broken pass must be refuted by the validator —
  blamed by name, counterexample attached — before any payload runs.

Plus the persistence story: certificates embed in v3 plan files, are
re-proved against the recomputed denotation on load, and a disk-cache
entry whose certificate fails that re-proof is invalidated and
re-planned rather than served.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import (
    CertificateError,
    PlanCorruptionError,
    SemanticValidationError,
)
from repro.exec.reference import ReferenceExecutor
from repro.ir.ops import CasualRead, CasualWrite, CycleRotate, Slice
from repro.ir.program import KernelProgram
from repro.ir.registry import engine_names, get_engine
from repro.passes import (
    PassPipeline,
    ValidatedPass,
    aggressive_pipeline,
    default_pipeline,
)
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.staticcheck.semantics import (
    SemanticCertificate,
    SemanticChecker,
    denotation_digest,
    denote_program,
    prove_bijection,
    validate_translation,
)
from tests.ir.strategies import kernel_programs

N, WIDTH = 256, 16

FAMILIES = {
    "bit-reversal": bit_reversal(N),
    "transpose": transpose_permutation(N),
    "random": random_permutation(N, seed=3),
}


def _rotate_pass(seed: int):
    """A pass that silently appends a random extra permutation."""

    class Mutant:
        name = "mutant-rotate"

        def run(self, program: KernelProgram) -> KernelProgram:
            rng = np.random.default_rng(seed)
            q = rng.permutation(program.n).astype(np.int64)
            return dataclasses.replace(
                program,
                ops=(*program.ops, CycleRotate(label="mutant", p=q)),
                meta=None,
            )

    return Mutant()


class TestDenotation:
    @settings(max_examples=60, deadline=None)
    @given(program=kernel_programs())
    def test_denotation_agrees_with_executor(self, program):
        """denote(program) predicts exactly what the executor does."""
        den = denote_program(program)
        assert den.ok, den.describe()
        a = np.arange(program.n, dtype=np.float64) + 1.0
        out = ReferenceExecutor().run(program, a)
        expected = np.empty_like(a)
        expected[den.index_map] = a
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("engine", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_engine_denotes_its_permutation(self, engine, family):
        p = FAMILIES[family]
        program = get_engine(engine).plan(p, width=WIDTH).lower()
        den = denote_program(program)
        assert den.ok, den.describe()
        np.testing.assert_array_equal(den.index_map, p)

    def test_duplicate_write_fails_bijectivity(self):
        p = np.zeros(4, dtype=np.int64)   # everything lands on slot 0
        program = KernelProgram(
            engine="bad", n=4, width=0,
            ops=(CasualWrite(label="dup", p=p),),
        )
        den = denote_program(program)
        assert not den.ok
        assert den.failure is not None
        assert den.failure.stage == "bijectivity"
        assert "NOT a bijection" in den.describe()

    def test_noninjective_read_fails_denotation(self):
        q = np.array([0, 0, 1, 2], dtype=np.int64)
        program = KernelProgram(
            engine="bad", n=4, width=0,
            ops=(CasualRead(label="dupread", q=q),),
        )
        den = denote_program(program)
        assert not den.ok
        assert den.failure.stage == "denotation"

    def test_slice_dropping_live_element_is_caught(self):
        program = KernelProgram(
            engine="bad", n=4, width=0,
            ops=(Slice(label="chop", n=3),),
        )
        den = denote_program(program)
        assert not den.ok

    def test_empty_map_is_a_bijection(self):
        assert prove_bijection(np.empty(0, dtype=np.int64), 0) is None

    def test_prove_bijection_counterexample_names_duplicate(self):
        failure = prove_bijection(
            np.array([0, 1, 1, 3], dtype=np.int64), 4
        )
        assert failure is not None
        assert failure.index in (1, 2)


class TestCertificate:
    def _cert(self) -> SemanticCertificate:
        p = FAMILIES["random"]
        raw = get_engine("scheduled").plan(p, width=WIDTH).lower()
        optimized = default_pipeline().run(raw)
        return validate_translation(
            raw, optimized, requested=p,
            pipeline_signature=default_pipeline().signature(),
        )

    def test_json_roundtrip(self):
        cert = self._cert()
        assert cert.ok
        back = SemanticCertificate.from_json(cert.to_json())
        assert back.ok
        assert back.denotation_sha == cert.denotation_sha
        assert back.requested_sha == cert.requested_sha
        assert back.pipeline == cert.pipeline

    def test_binding(self):
        cert = self._cert().bound_to("ab" * 32)
        back = SemanticCertificate.from_json(cert.to_json())
        assert back.plan_sha == "ab" * 32

    @pytest.mark.parametrize("payload", [
        "{not json", "[]", '{"version": 999}', '{"version": 1}',
    ])
    def test_malformed_json_rejected(self, payload):
        with pytest.raises(CertificateError):
            SemanticCertificate.from_json(payload)

    def test_requested_digest_matches_permutation(self):
        cert = self._cert()
        assert cert.requested_sha == denotation_digest(
            FAMILIES["random"]
        )


class TestTranslationValidation:
    @pytest.mark.parametrize("engine", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("make_pipeline",
                             [default_pipeline, aggressive_pipeline],
                             ids=["default", "aggressive"])
    def test_matrix_raw_optimized_requested_agree(
        self, engine, family, make_pipeline
    ):
        """The acceptance matrix: raw == optimized == requested for
        every engine x family x pipeline, with zero counterexamples."""
        p = FAMILIES[family]
        pipeline = make_pipeline()
        raw = get_engine(engine).plan(p, width=WIDTH).lower()
        optimized = pipeline.run(raw, validate=True)
        cert = validate_translation(
            raw, optimized, requested=p,
            pipeline_signature=pipeline.signature(),
        )
        assert cert.ok, cert.summary()
        assert cert.counterexample is None
        assert cert.matches_requested is True

    def test_mutant_pass_refuted_with_blame(self):
        """A seeded wrong rewrite is caught symbolically — blamed by
        pass name, counterexample attached — not by executing data."""
        raw = get_engine("scheduled").plan(
            FAMILIES["random"], width=WIDTH
        ).lower()
        broken = PassPipeline(
            (*default_pipeline().passes[:2], _rotate_pass(17)),
            name="mutant",
        )
        with pytest.raises(SemanticValidationError) as excinfo:
            broken.run(raw, validate=True)
        cert = excinfo.value.certificate
        assert cert is not None and not cert.ok
        assert cert.blame == "mutant-rotate"
        assert cert.counterexample is not None
        assert cert.counterexample.stage == "optimized-vs-raw"

    def test_validate_off_does_not_catch_mutant(self):
        """Without validate= the mutant sails through — the mode is
        doing the work, not some other safety net."""
        raw = get_engine("cpu-naive").plan(
            FAMILIES["random"], width=WIDTH
        ).lower()
        broken = PassPipeline((_rotate_pass(17),), name="mutant")
        mutated = broken.run(raw)
        assert len(mutated.ops) > len(raw.ops)

    def test_validated_pass_refuses_wrong_rewrite(self):
        """ValidatedPass turns a wrong rewrite into a refused no-op."""
        wrapped = ValidatedPass(_rotate_pass(23))
        assert wrapped.name == "validated(mutant-rotate)"
        raw = get_engine("cpu-naive").plan(
            FAMILIES["random"], width=WIDTH
        ).lower()
        assert wrapped.run(raw) is raw

    def test_validated_pass_passes_correct_rewrite(self):
        class Renamer:
            name = "rename"

            def run(self, program):
                return dataclasses.replace(program, meta=None)

        raw = get_engine("cpu-naive").plan(
            FAMILIES["random"], width=WIDTH
        ).lower()
        out = ValidatedPass(Renamer()).run(raw)
        assert out is not raw

    def test_checker_base_must_be_bijective(self):
        program = KernelProgram(
            engine="bad", n=4, width=0,
            ops=(CasualWrite(
                label="dup", p=np.zeros(4, dtype=np.int64)
            ),),
        )
        with pytest.raises(SemanticValidationError):
            SemanticChecker(program)

    def test_aggressive_pipeline_signature_names_the_gate(self):
        assert "validated(drop-identities)" in \
            aggressive_pipeline().signature()


class TestPersistence:
    def _plan(self):
        from repro.core.scheduled import ScheduledPermutation

        return ScheduledPermutation.plan(FAMILIES["random"],
                                         width=WIDTH)

    def test_save_load_roundtrips_certificate(self, tmp_path):
        from repro.core.io import load_plan, save_plan

        path = tmp_path / "sem.npz"
        save_plan(path, self._plan())
        loaded = load_plan(path)
        cert = loaded.semantic_certificate
        assert cert is not None and cert.ok
        den = denote_program(loaded.lower())
        assert den.digest() == cert.denotation_sha

    def test_tampered_denotation_sha_rejected(self, tmp_path):
        import json

        from repro.core.io import load_plan, save_plan

        path = tmp_path / "sem.npz"
        save_plan(path, self._plan())
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        cert = json.loads(str(contents["semantic_certificate"]))
        cert["denotation_sha"] = "0" * 64
        contents["semantic_certificate"] = np.str_(json.dumps(cert))
        np.savez_compressed(path, **contents)
        with pytest.raises(PlanCorruptionError, match="denot"):
            load_plan(path)

    def test_foreign_certificate_rejected(self, tmp_path):
        """A valid certificate from another plan fails the binding
        check even though it parses and verifies on its own."""
        from repro.core.io import load_plan, save_plan

        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_plan(a, self._plan())
        from repro.core.scheduled import ScheduledPermutation

        save_plan(b, ScheduledPermutation.plan(
            FAMILIES["bit-reversal"], width=WIDTH
        ))
        with np.load(a) as data:
            stolen = data["semantic_certificate"]
        with np.load(b) as data:
            contents = {k: data[k] for k in data.files}
        contents["semantic_certificate"] = stolen
        np.savez_compressed(b, **contents)
        with pytest.raises(PlanCorruptionError):
            load_plan(b)

    def test_bad_cache_entry_invalidated_and_replanned(self, tmp_path):
        """Satellite 1: a disk-cache entry whose semantic certificate
        fails re-verification is deleted, counted corrupt, and
        re-planned — the error never reaches the caller."""
        import json

        from repro.planner import Planner

        p = FAMILIES["random"]
        planner = Planner(cache_dir=tmp_path)
        fp = planner.fingerprint(p, engine="scheduled", width=WIDTH)
        planner.compile(p, engine="scheduled", width=WIDTH)
        entry = planner.disk.path_for(fp)
        assert entry.exists()
        with np.load(entry) as data:
            contents = {k: data[k] for k in data.files}
        cert = json.loads(str(contents["semantic_certificate"]))
        cert["denotation_sha"] = "f" * 64
        contents["semantic_certificate"] = np.str_(json.dumps(cert))
        np.savez_compressed(entry, **contents)
        # Drop the sealed sidecar: it carries its own (valid) proof
        # and would otherwise shield the poisoned plan entirely.
        planner.disk.sealed_path_for(fp).unlink()

        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, engine="scheduled", width=WIDTH)
        a = np.arange(N, dtype=np.float32)
        expected = np.empty_like(a)
        expected[p] = a
        np.testing.assert_array_equal(compiled.apply(a), expected)
        stats = fresh.stats()
        assert stats["disk_corrupt"] == 1
        assert stats["cold_plans"] == 1
        # The poisoned entry was replaced by the fresh re-plan.
        from repro.core.io import load_plan

        assert load_plan(entry).semantic_certificate.ok
