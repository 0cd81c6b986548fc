"""Sealed sidecar persistence: save/load round trip, checksum
enforcement, version gating, and narrow delta encoding."""

import numpy as np
import pytest

from repro.core.io import (
    load_sealed,
    plan_checksum,
    save_plan,
    save_sealed,
)
from repro.errors import PlanCorruptionError, PlanVersionError
from repro.ir.registry import get_engine
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import bit_reversal, random_permutation

_N, _WIDTH = 4096, 32


def _sealed(p=None, engine="scheduled"):
    if p is None:
        p = bit_reversal(_N)
    plan = get_engine(engine).plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    return seal_program(
        program, requested=p, fingerprint="a" * 64,
        pipeline_signature="sig@v1",
    )


class TestRoundTrip:
    def test_save_load_preserves_maps_and_meta(self, tmp_path):
        sealed = _sealed()
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, sealed)
        back = load_sealed(path)
        assert np.array_equal(back.scatter, sealed.scatter)
        assert np.array_equal(back.gather, sealed.gather)
        assert back.engine == sealed.engine
        assert back.width == sealed.width
        assert back.meta["fingerprint"] == "a" * 64
        assert back.meta["pipeline"] == "sig@v1"
        assert (back.meta["denotation_sha"]
                == sealed.meta["denotation_sha"])

    def test_sidecar_is_much_smaller_than_plan(self, tmp_path):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        plan_path = tmp_path / "plan.npz"
        save_plan(plan_path, plan)
        sealed_path = tmp_path / "plan.sealed.npz"
        save_sealed(sealed_path, _sealed(p))
        # Delta + zigzag + min_scalar_type narrowing: the near-sorted
        # gather compresses far below the full schedule arrays.
        assert sealed_path.stat().st_size < (
            plan_path.stat().st_size / 2
        )

    def test_random_permutation_round_trips(self, tmp_path):
        p = random_permutation(_N, seed=11)
        sealed = _sealed(p)
        path = tmp_path / "r.sealed.npz"
        save_sealed(path, sealed)
        assert np.array_equal(load_sealed(path).scatter, p)


class TestRejection:
    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        delta = arrays["gather_delta"].copy()
        delta[7] ^= 1
        arrays["gather_delta"] = delta
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        arrays["sealed_version"] = np.int64(99)
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanVersionError):
            load_sealed(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {
                k: np.asarray(data[k]) for k in data.files
                if k != "gather_delta"
            }
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_legacy_plan_sha_key_is_ignored(self, tmp_path):
        # Sidecars of older builds carry a plan_sha metadata key that
        # bound them to a plan file; it is outside the checksum, and
        # loading ignores it.
        path = tmp_path / "x.sealed.npz"
        sealed = _sealed()
        save_sealed(path, sealed)
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        arrays["plan_sha"] = np.str_("f" * 64)
        np.savez_compressed(path, **arrays)
        back = load_sealed(path)
        assert np.array_equal(back.scatter, sealed.scatter)
        assert "plan_sha" not in back.meta

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)


class TestDeltaNarrowing:
    def test_identityish_gather_stores_narrow_deltas(self, tmp_path):
        # A near-identity permutation has deltas of ~1: the stored
        # zigzag array must narrow below int64.
        p = np.arange(_N, dtype=np.int64)
        p[0], p[1] = p[1], p[0]
        sealed = _sealed(p, engine="cpu-naive")
        path = tmp_path / "near.sealed.npz"
        save_sealed(path, sealed)
        with np.load(path) as data:
            stored = np.asarray(data["gather_delta"])
        assert stored.dtype.itemsize < 8
        assert np.array_equal(load_sealed(path).scatter, p)

    def test_checksum_covers_every_payload_key(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        from repro.core.io import SEALED_METADATA_KEYS

        payload = {
            k: v for k, v in arrays.items()
            if k not in SEALED_METADATA_KEYS
        }
        assert plan_checksum(
            payload, keys=tuple(sorted(payload))
        ) == str(arrays["checksum"])
