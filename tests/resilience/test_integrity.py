"""Tests for the checksummed plan-file format (format version 3; older
versions are refused)."""

import numpy as np
import pytest

import repro
from repro.core.io import (
    FORMAT_VERSION,
    METADATA_KEYS,
    load_plan,
    plan_checksum,
    save_plan,
)
from repro.core.scheduled import ScheduledPermutation
from repro.errors import (
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
    ValidationError,
)
from repro.permutations.named import random_permutation


@pytest.fixture
def plan():
    return ScheduledPermutation.plan(
        random_permutation(256, seed=5), width=4
    )


@pytest.fixture
def saved(plan, tmp_path):
    path = tmp_path / "plan.npz"
    save_plan(path, plan)
    return path


def _resave(path, mutate):
    """Reload the raw arrays, apply ``mutate``, write back."""
    with np.load(path) as data:
        arrays = {k: np.asarray(data[k]) for k in data.files}
    mutate(arrays)
    np.savez_compressed(path, **arrays)


class TestFormat:
    def test_format_version_is_3(self):
        assert FORMAT_VERSION == 3

    def test_file_carries_stamps(self, saved):
        with np.load(saved) as data:
            assert int(data["format_version"]) == 3
            assert str(data["library_version"]) == repro.__version__
            assert str(data["engine"]) == "scheduled"
            assert int(data["num_ops"]) == 5
            checksum = str(data["checksum"])
            arrays = {
                k: np.asarray(data[k])
                for k in data.files if k not in METADATA_KEYS
            }
        assert len(checksum) == 64          # SHA-256 hex
        assert plan_checksum(arrays) == checksum

    def test_checksum_covers_every_payload_key(self, saved):
        with np.load(saved) as data:
            arrays = {
                k: np.asarray(data[k])
                for k in data.files if k not in METADATA_KEYS
            }
        base = plan_checksum(arrays)
        for key in arrays:
            mutated = dict(arrays)
            flat = np.ascontiguousarray(mutated[key]).copy()
            buf = bytearray(flat.tobytes())
            buf[0] ^= 1
            mutated[key] = np.frombuffer(
                bytes(buf), dtype=flat.dtype
            ).reshape(flat.shape)
            assert plan_checksum(mutated) != base, key

    def test_checksum_covers_the_key_set_itself(self, saved):
        """Dropping a key changes the digest even if no bytes change."""
        with np.load(saved) as data:
            arrays = {
                k: np.asarray(data[k])
                for k in data.files if k not in METADATA_KEYS
            }
        base = plan_checksum(arrays)
        smaller = dict(arrays)
        del smaller["op0.gamma"]
        assert plan_checksum(smaller) != base

    def test_roundtrip_still_exact(self, plan, saved):
        loaded = load_plan(saved)
        a = np.random.default_rng(0).random(256)
        assert np.array_equal(loaded.apply(a), plan.apply(a))


class TestRejection:
    def test_checksum_mismatch(self, saved):
        def flip(arrays):
            s1 = arrays["op0.s"].copy()
            s1[0, 0] ^= 1
            arrays["op0.s"] = s1
        _resave(saved, flip)
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_missing_checksum_key(self, saved):
        _resave(saved, lambda arrays: arrays.pop("checksum"))
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_missing_payload_key(self, saved):
        """Deleting a schedule array changes the hashed key set, so the
        stored digest no longer matches."""
        _resave(saved, lambda arrays: arrays.pop("op0.gamma"))
        with pytest.raises(PlanCorruptionError, match="checksum"):
            load_plan(saved)

    def test_truncated_file(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(PlanCorruptionError) as excinfo:
            load_plan(saved)
        assert str(saved) in str(excinfo.value)

    def test_not_an_archive_at_all(self, tmp_path):
        path = tmp_path / "plan.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(PlanCorruptionError):
            load_plan(path)

    @pytest.mark.parametrize(
        "key", ["num_ops", "op0.kind", "op1.m", "op1.diagonal"]
    )
    def test_stripped_and_rechecksummed_key_named(self, plan, tmp_path,
                                                  key):
        """A key removed and the checksum recomputed over what is left
        passes the checksum (a bare file has no certificate bound to
        the old one); the required-key check still names it."""
        saved = tmp_path / "bare.npz"
        save_plan(saved, plan, certify=False)

        def strip(arrays):
            del arrays[key]
            payload = {
                k: v for k, v in arrays.items() if k not in METADATA_KEYS
            }
            arrays["checksum"] = np.str_(plan_checksum(payload))
        _resave(saved, strip)
        with pytest.raises(PlanCorruptionError, match=key):
            load_plan(saved)

    def test_error_message_names_the_path(self, saved):
        _resave(saved, lambda arrays: arrays.pop("p"))
        with pytest.raises(PlanCorruptionError) as excinfo:
            load_plan(saved)
        assert str(saved) in str(excinfo.value)


class TestVersioning:
    def test_version_1_rejected_loudly(self, saved):
        _resave(
            saved,
            lambda arrays: arrays.update(format_version=np.int64(1)),
        )
        with pytest.raises(PlanVersionError) as excinfo:
            load_plan(saved)
        message = str(excinfo.value)
        assert "format version 1" in message
        assert "python -m repro plan" in message    # how to re-plan
        assert "save_plan" in message

    def test_version_2_rejected_loudly(self, saved):
        _resave(
            saved,
            lambda arrays: arrays.update(format_version=np.int64(2)),
        )
        with pytest.raises(PlanVersionError) as excinfo:
            load_plan(saved)
        message = str(excinfo.value)
        assert "format version 2" in message
        assert "reads version 3" in message
        assert "python -m repro plan" in message

    def test_future_version_rejected(self, saved):
        _resave(
            saved,
            lambda arrays: arrays.update(
                format_version=np.int64(FORMAT_VERSION + 1)
            ),
        )
        with pytest.raises(PlanVersionError):
            load_plan(saved)

    def test_version_error_beats_checksum_error(self, saved):
        """A v1 file gets the actionable version message even though
        its checksum is (necessarily) also stale."""
        def make_v1(arrays):
            arrays["format_version"] = np.int64(1)
            arrays.pop("checksum")
            arrays.pop("library_version")
        _resave(saved, make_v1)
        with pytest.raises(PlanVersionError):
            load_plan(saved)


class TestHierarchy:
    def test_plan_errors_are_validation_errors(self):
        assert issubclass(PlanCorruptionError, PlanIntegrityError)
        assert issubclass(PlanVersionError, PlanIntegrityError)
        assert issubclass(PlanIntegrityError, ValidationError)
        assert issubclass(PlanIntegrityError, ValueError)
