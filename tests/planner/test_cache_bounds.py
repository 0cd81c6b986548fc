"""Byte-bounded cache tiers: size-aware LRU eviction in memory and
on disk, accounting survival across processes, and the knobs'
surfacing through ``Planner.stats()``."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.planner import DiskPlanCache, LRUPlanCache, Planner
from repro.permutations.named import random_permutation

_N, _WIDTH = 1024, 32


class _Sized:
    """Stand-in handle with a known resident footprint."""

    def __init__(self, nbytes):
        self._nbytes = nbytes

    def resident_bytes(self):
        return self._nbytes


class TestMemoryBound:
    def test_max_bytes_validated(self):
        with pytest.raises(ValidationError):
            LRUPlanCache(4, max_bytes=0)

    def test_evicts_by_resident_bytes(self):
        cache = LRUPlanCache(100, max_bytes=1000)
        cache.put("a", _Sized(400))
        cache.put("b", _Sized(400))
        cache.put("c", _Sized(400))  # 1200 > 1000: a goes
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        stats = cache.stats()
        assert stats["memory_bytes"] == 800
        assert stats["memory_max_bytes"] == 1000
        assert stats["memory_evictions"] == 1

    def test_get_refreshes_lru_order_for_byte_eviction(self):
        cache = LRUPlanCache(100, max_bytes=1000)
        cache.put("a", _Sized(400))
        cache.put("b", _Sized(400))
        cache.get("a")
        cache.put("c", _Sized(400))
        assert "b" not in cache
        assert "a" in cache

    def test_oversize_entry_occupies_cache_alone(self):
        cache = LRUPlanCache(100, max_bytes=1000)
        cache.put("a", _Sized(300))
        cache.put("big", _Sized(5000))
        assert "a" not in cache
        assert "big" in cache
        assert cache.stats()["memory_entries"] == 1

    def test_unsized_entries_cost_nothing(self):
        cache = LRUPlanCache(100, max_bytes=10)
        cache.put("a", object())
        cache.put("b", object())
        assert "a" in cache and "b" in cache
        assert cache.stats()["memory_bytes"] == 0

    def test_planner_surfaces_memory_bound(self):
        planner = Planner(cache_size=8, cache_max_bytes=200_000)
        for seed in range(6):
            p = random_permutation(_N, seed=seed)
            planner.compile(p, engine="scheduled", width=_WIDTH)
        stats = planner.stats()
        assert stats["memory_max_bytes"] == 200_000
        assert stats["memory_bytes"] <= 200_000
        assert stats["memory_evictions"] >= 1
        # Evicted-but-sealed handles still answer correctly.
        p = random_permutation(_N, seed=0)
        a = np.random.default_rng(0).random(_N)
        out = planner.compile(p, engine="scheduled", width=_WIDTH).apply(a)
        expected = np.empty_like(a)
        expected[p] = a
        np.testing.assert_array_equal(out, expected)


class TestDiskBound:
    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            DiskPlanCache(tmp_path, max_bytes=0)

    def _fill(self, tmp_path, bound, perms=6):
        planner = Planner(cache_dir=tmp_path, disk_max_bytes=bound)
        for seed in range(perms):
            p = random_permutation(_N, seed=seed)
            planner.compile(p, engine="scheduled", width=_WIDTH)
        return planner

    def test_evicts_oldest_entries_over_bound(self, tmp_path):
        planner = self._fill(tmp_path, 20_000)
        stats = planner.stats()
        assert stats["disk_max_bytes"] == 20_000
        assert stats["disk_bytes"] <= 20_000
        assert stats["disk_evictions"] >= 1
        assert stats["disk_entries"] >= 1

    def test_eviction_removes_plan_and_sidecar_together(self, tmp_path):
        # An entry is one sidecar (no plan file beside it), so eviction
        # leaves exactly the accounted sidecars on disk.
        planner = self._fill(tmp_path, 20_000)
        files = list(tmp_path.iterdir())
        assert all(f.name.endswith(".sealed.npz") for f in files)
        assert len(files) == planner.stats()["disk_entries"]
        assert sum(f.stat().st_size for f in files) == planner.disk.bytes

    def test_scan_seeds_accounting_across_processes(self, tmp_path):
        self._fill(tmp_path, None, perms=3)
        fresh = DiskPlanCache(tmp_path, max_bytes=10**9)
        on_disk = sum(
            p.stat().st_size for p in tmp_path.glob("*.npz")
        )
        assert fresh.bytes == on_disk
        assert fresh.stats()["disk_entries"] == 3

    def test_scan_ignores_foreign_files(self, tmp_path):
        (tmp_path / "notes.npz").write_bytes(b"x" * 64)
        (tmp_path / "README.md").write_text("not a plan")
        fresh = DiskPlanCache(tmp_path)
        assert fresh.bytes == 0
        assert fresh.stats()["disk_entries"] == 0

    def test_leftover_plan_file_is_foreign(self, tmp_path):
        # Older builds wrote <fp>.npz beside each sidecar; it is never
        # read, accounted, evicted or deleted.
        from repro.core.io import save_plan

        p = random_permutation(_N, seed=0)
        planner = Planner(cache_dir=tmp_path, disk_max_bytes=1)
        compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
        leftover = tmp_path / f"{compiled.fingerprint}.npz"
        save_plan(leftover, compiled.engine)
        fresh = Planner(cache_dir=tmp_path, disk_max_bytes=1)
        sidecar = fresh.disk.sealed_path_for(compiled.fingerprint)
        assert fresh.disk.bytes == sidecar.stat().st_size
        # Fill past the bound: the old sidecar is evicted, the
        # leftover plan file stays.
        fresh.compile(random_permutation(_N, seed=1), engine="scheduled",
                      width=_WIDTH)
        assert fresh.stats()["disk_evictions"] == 1
        assert not sidecar.exists()
        assert leftover.exists()
        assert fresh.disk.bytes == sum(
            f.stat().st_size for f in tmp_path.glob("*.sealed.npz")
        )

    def test_unbounded_cache_never_evicts(self, tmp_path):
        planner = self._fill(tmp_path, None)
        stats = planner.stats()
        assert stats["disk_max_bytes"] is None
        assert stats["disk_evictions"] == 0
        assert stats["disk_entries"] == 6

    def test_evicted_fingerprint_replans_cleanly(self, tmp_path):
        planner = self._fill(tmp_path, 20_000)
        evicted_before = planner.stats()["disk_evictions"]
        # Seed 0 planned first, so its files went first; a fresh
        # planner must fall back to a cold plan without error.
        p = random_permutation(_N, seed=0)
        fresh = Planner(cache_dir=tmp_path, disk_max_bytes=20_000)
        a = np.random.default_rng(1).random(_N)
        out = fresh.compile(p, engine="scheduled", width=_WIDTH).apply(a)
        expected = np.empty_like(a)
        expected[p] = a
        np.testing.assert_array_equal(out, expected)
        assert evicted_before >= 1
