"""Dtype narrowing on plan save: smaller v3 files, bitwise loads."""

import numpy as np
import pytest

from repro.core.io import _narrow_index_array, load_plan, save_plan
from repro.ir.registry import get_engine
from repro.permutations.named import random_permutation


class TestNarrowHelper:
    def test_small_values_narrow(self):
        arr = np.arange(200, dtype=np.int64)
        assert _narrow_index_array(arr).dtype == np.uint8

    def test_wider_values_keep_width(self):
        arr = np.array([0, 70000], dtype=np.int64)
        assert _narrow_index_array(arr).dtype == np.uint32

    def test_negative_values_untouched(self):
        arr = np.array([-1, 5], dtype=np.int64)
        assert _narrow_index_array(arr) is arr

    def test_non_integer_untouched(self):
        arr = np.array([0.5, 1.5])
        assert _narrow_index_array(arr) is arr

    def test_empty_untouched(self):
        arr = np.empty(0, dtype=np.int64)
        assert _narrow_index_array(arr) is arr


@pytest.mark.parametrize(
    "engine", ["scheduled", "d-designated", "dmm-scheduled"]
)
class TestNarrowedRoundtrip:
    def _plan(self, engine):
        return get_engine(engine).plan(
            random_permutation(1024, seed=3), width=32
        )

    def test_files_shrink(self, engine, tmp_path):
        """Narrowing must actually save bytes over raw int64 storage."""
        import repro.core.io as io_mod

        plan = self._plan(engine)
        narrow, wide = tmp_path / "narrow.npz", tmp_path / "wide.npz"
        save_plan(narrow, plan)
        original = io_mod._store_narrowed
        try:
            # Disable narrowing to measure the un-narrowed baseline.
            io_mod._store_narrowed = (
                lambda arrays, key, value: arrays.__setitem__(
                    key, np.asarray(value)
                )
            )
            save_plan(wide, plan)
        finally:
            io_mod._store_narrowed = original
        assert narrow.stat().st_size < wide.stat().st_size

    def test_load_is_bitwise_identical(self, engine, tmp_path):
        plan = self._plan(engine)
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        a = np.random.default_rng(1).random(1024)
        assert np.array_equal(loaded.apply(a), plan.apply(a))
        lowered, reloaded = plan.lower(), loaded.lower()
        assert np.array_equal(loaded.p, plan.p)
        assert loaded.p.dtype == plan.p.dtype
        for op, rop in zip(lowered.ops, reloaded.ops):
            for fieldname in op._ARRAY_FIELDS:
                mine = getattr(op, fieldname)
                theirs = getattr(rop, fieldname)
                if mine is None:
                    assert theirs is None
                    continue
                assert np.array_equal(mine, theirs)
                assert mine.dtype == theirs.dtype, (
                    engine, fieldname, mine.dtype, theirs.dtype
                )

    def test_loaded_plan_still_certifies(self, engine, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, self._plan(engine), certify=True)
        # load_plan re-checks the checksum (which covers the dtype
        # sidecar keys) and re-proves the plan before returning.
        loaded = load_plan(path)
        assert loaded.semantic_certificate.ok
        if engine == "scheduled":
            assert loaded.certificate.ok

    def test_sidecar_is_tamper_protected(self, engine, tmp_path):
        from repro.errors import PlanCorruptionError

        path = tmp_path / "plan.npz"
        save_plan(path, self._plan(engine))
        arrays = dict(np.load(path, allow_pickle=False))
        sidecars = [k for k in arrays if k.endswith(".dtype")]
        assert sidecars, "expected at least one narrowed array"
        arrays[sidecars[0]] = np.str_("int16")
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError):
            load_plan(path)
