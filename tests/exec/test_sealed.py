"""The sealed tier's core contract: SealedProgram invariants,
seal_program's proof discipline, and SealedExecutor parity."""

import numpy as np
import pytest

from repro.errors import (
    SemanticValidationError,
    SizeError,
    ValidationError,
)
from repro.exec.reference import ReferenceExecutor
from repro.exec.sealed import SealedExecutor
from repro.ir.registry import get_engine
from repro.ir.sealed import (
    TILED_MIN_N,
    SealedProgram,
    invert_permutation,
)
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import bit_reversal, random_permutation

_N, _WIDTH = 1024, 32


def _sealed_for(p, engine="scheduled"):
    plan = get_engine(engine).plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    return seal_program(program), program


class TestSealedProgram:
    def test_gather_is_derived_inverse(self):
        p = random_permutation(64, seed=1)
        sealed = SealedProgram("x", 8, p)
        assert np.array_equal(sealed.gather, invert_permutation(p))
        sealed.verify()

    def test_verify_refutes_non_inverse_pair(self):
        p = random_permutation(64, seed=1)
        bad = invert_permutation(p).copy()
        bad[0], bad[1] = bad[1], bad[0]
        sealed = SealedProgram("x", 8, p, gather=bad)
        with pytest.raises(ValidationError, match="not the inverse"):
            sealed.verify()

    def test_verify_refutes_out_of_range(self):
        p = np.arange(8, dtype=np.int64)
        sealed = SealedProgram("x", 4, p)
        sealed.scatter = sealed.scatter.copy()
        sealed.scatter[3] = 99
        with pytest.raises(ValidationError, match="range"):
            sealed.verify()

    def test_as_program_round_trips_through_executor(self):
        p = bit_reversal(_N)
        sealed, _program = _sealed_for(p)
        a = np.random.default_rng(0).random(_N)
        expected = np.empty_like(a)
        expected[p] = a
        bridged = ReferenceExecutor().run(sealed.as_program(), a)
        np.testing.assert_array_equal(bridged, expected)

    def test_nbytes_counts_both_maps(self):
        sealed = SealedProgram("x", 8, np.arange(64, dtype=np.int64))
        assert sealed.layout is None
        assert sealed.nbytes == 2 * 64 * 8
        # A tiled program also keeps its gather in visit order.
        tiled = SealedProgram("x", 8, bit_reversal(TILED_MIN_N))
        assert tiled.layout is not None
        assert tiled.nbytes == 3 * TILED_MIN_N * 8


class TestTiledLayoutProof:
    @pytest.fixture
    def tiled(self):
        sealed = SealedProgram("x", 32, bit_reversal(TILED_MIN_N))
        assert sealed.layout is not None
        sealed.verify()
        return sealed

    def test_layout_is_gather_in_visit_order(self, tiled):
        order = tiled.layout.visit(np.arange(tiled.n)).ravel()
        assert np.array_equal(np.sort(order), np.arange(tiled.n))
        assert np.array_equal(tiled.layout.gather, tiled.gather[order])

    def test_non_bijective_order_refuted(self, tiled):
        tiled.layout.axes = (1, 1, 2)
        with pytest.raises(ValidationError, match="not a bijection"):
            tiled.verify()

    def test_wrong_size_order_refuted(self, tiled):
        tiled.layout.dims = tiled.layout.dims[:-1] + (8,)
        with pytest.raises(ValidationError, match="not a bijection"):
            tiled.verify()

    def test_permuted_order_refuted(self, tiled):
        # Still a bijection, but no longer the order the tiled gather
        # was stored in.
        tiled.layout.axes = tuple(sorted(tiled.layout.axes))
        with pytest.raises(ValidationError, match="visit order"):
            tiled.verify()

    def test_tampered_tiled_gather_refuted(self, tiled):
        tiled.layout.gather = tiled.layout.gather.copy()
        tiled.layout.gather[[7, 8]] = tiled.layout.gather[[8, 7]]
        with pytest.raises(ValidationError, match="visit order"):
            tiled.verify()

    def test_sidecar_round_trip_re_derives_layout(self, tmp_path):
        from repro.core.io import load_sealed, save_sealed

        n = 1 << 20
        sealed = SealedProgram("scheduled", 32, bit_reversal(n))
        assert sealed.layout is not None
        plain = SealedProgram("scheduled", 32, random_permutation(n, 0))
        assert plain.layout is None
        save_sealed(tmp_path / "tiled.sealed.npz", sealed)
        save_sealed(tmp_path / "plain.sealed.npz", plain)
        # The sidecar stores the same arrays whether or not the
        # program is tiled: the layout is never persisted.
        with np.load(tmp_path / "tiled.sealed.npz") as tiled_file, \
                np.load(tmp_path / "plain.sealed.npz") as plain_file:
            assert sorted(tiled_file.files) == sorted(plain_file.files)
        back = load_sealed(tmp_path / "tiled.sealed.npz")
        assert back.layout is not None
        assert back.layout.dims == sealed.layout.dims
        assert back.layout.axes == sealed.layout.axes
        assert np.array_equal(back.layout.gather, sealed.layout.gather)


class TestSealProgram:
    def test_seal_matches_requested_permutation(self):
        p = bit_reversal(_N)
        sealed, _ = _sealed_for(p)
        assert np.array_equal(sealed.scatter, p)
        assert sealed.engine == "scheduled"
        assert sealed.n == _N

    def test_seal_refuses_mismatched_request(self):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        program = default_pipeline().run(plan.lower())
        other = random_permutation(_N, seed=7)
        with pytest.raises(SemanticValidationError):
            seal_program(program, requested=other)

    def test_seal_records_provenance(self):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        program = default_pipeline().run(plan.lower())
        sealed = seal_program(
            program, fingerprint="f" * 64,
            pipeline_signature="sig@v1",
        )
        assert sealed.meta["fingerprint"] == "f" * 64
        assert sealed.meta["pipeline"] == "sig@v1"
        assert len(sealed.meta["denotation_sha"]) == 64
        assert sealed.meta["predicted_rounds"] > 0


class TestSealedExecutor:
    def test_parity_with_reference(self):
        p = random_permutation(_N, seed=3)
        sealed, program = _sealed_for(p)
        a = np.random.default_rng(1).random(_N)
        np.testing.assert_array_equal(
            SealedExecutor().run(sealed, a),
            ReferenceExecutor().run(program, a),
        )

    def test_batch_parity(self):
        p = random_permutation(_N, seed=3)
        sealed, _ = _sealed_for(p)
        batch = np.random.default_rng(2).random((4, _N))
        out = SealedExecutor().run_batch(sealed, batch)
        for i in range(4):
            np.testing.assert_array_equal(
                out[i], SealedExecutor().run(sealed, batch[i])
            )

    def test_size_mismatch_rejected(self):
        p = random_permutation(64, seed=1)
        sealed = SealedProgram("x", 8, p)
        with pytest.raises(SizeError):
            SealedExecutor().run(sealed, np.zeros(65))
        # The rank is checked before the length: a 0-d payload has no
        # length, and a (2, n) one is not "a payload of 2".
        for payload in (np.float64(1.0), np.zeros((2, 64))):
            with pytest.raises(SizeError, match="1-D"):
                SealedExecutor().run(sealed, payload)
        with pytest.raises(SizeError):
            SealedExecutor().run_batch(sealed, np.zeros(64))

    def test_preserves_dtype(self):
        p = random_permutation(64, seed=1)
        sealed = SealedProgram("x", 8, p)
        for dtype in (np.float32, np.float64, np.int64, np.uint16):
            a = np.arange(64).astype(dtype)
            out = SealedExecutor().run(sealed, a)
            assert out.dtype == dtype
            expected = np.empty_like(a)
            expected[p] = a
            np.testing.assert_array_equal(out, expected)
