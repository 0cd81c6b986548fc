"""Planner-level sharding: ``Planner.sharded`` is the one memoized home
of a proven ``d``-stripe sharding, and every stream goes through it."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ResidentBudgetError, ShardingError
from repro.exec.streaming import StreamingExecutor
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner, permutation_digest
from repro.planner.fingerprint import shard_fingerprint
from repro.service import PermutationService

N, WIDTH = 4096, 32


def _payload(path, n=N):
    a = np.arange(n, dtype=np.float64) * 1.5 - 3.0
    np.save(path, a)
    return a


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def _sharded(planner, p, d):
    return planner.sharded(p, permutation_digest(p), d)


class TestPlannerSharded:
    def test_proven_and_memoized(self):
        planner = Planner()
        p = bit_reversal(N)
        sharded = _sharded(planner, p, 4)
        assert sharded.d == 4
        assert np.array_equal(
            sharded.gather_pre[sharded.gather_post], np.argsort(p)
        )
        assert _sharded(planner, p, 4) is sharded

    def test_distinct_per_d(self):
        planner = Planner()
        p = bit_reversal(N)
        digest = permutation_digest(p)
        four, eight = _sharded(planner, p, 4), _sharded(planner, p, 8)
        assert four is not eight and eight.d == 8
        fp4, fp8 = shard_fingerprint(digest, 4), shard_fingerprint(digest, 8)
        assert fp4 != fp8 and digest not in (fp4, fp8)
        assert planner.memory.get(fp4) is four
        assert planner.memory.get(fp8) is eight

    def test_indivisible_d_refused(self):
        planner = Planner()
        with pytest.raises(ShardingError):
            _sharded(planner, bit_reversal(N), 3)
        assert planner.stats()["shard_plans"] == 0

    def test_stream_round_trip(self, tmp_path):
        p = random_permutation(N, seed=13)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(Planner(), p, 4), src, dst, tmp_dir=tmp_path
        )
        assert np.array_equal(np.load(dst), _expected(p, a))
        assert stats.peak_resident_total_bytes <= 64 * 1024

    def test_counts_fresh_shards_only(self):
        planner = Planner()
        p = bit_reversal(N)
        _sharded(planner, p, 4)
        assert planner.stats()["shard_plans"] == 1
        _sharded(planner, p, 4)
        assert planner.stats()["shard_plans"] == 1
        _sharded(planner, p, 8)
        assert planner.stats()["shard_plans"] == 2

    def test_concurrent_misses_build_once(self):
        planner = Planner()
        p = random_permutation(N, seed=3)
        digest = permutation_digest(p)
        start = threading.Barrier(8)
        results = []

        def stream_shard():
            start.wait(timeout=10)
            results.append(planner.sharded(p, digest, 4))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=stream_shard)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert planner.stats()["shard_plans"] == 1

    def test_needs_no_sidecar_or_compile(self, tmp_path):
        planner = Planner(cache_dir=tmp_path / "cache")
        p = random_permutation(N, seed=17)
        assert _sharded(planner, p, 4).d == 4
        stats = planner.stats()
        assert stats["cold_plans"] == 0
        assert stats["sealed_hits"] == 0
        assert not list((tmp_path / "cache").glob("*"))

    def test_nbytes_counts_the_two_gathers(self):
        planner = Planner()
        p = bit_reversal(N)
        digest = permutation_digest(p)
        sharded = planner.sharded(p, digest, 4)
        assert sharded.nbytes == (
            sharded.gather_pre.nbytes + sharded.gather_post.nbytes
        ) == 2 * 4 * N
        # Sharding builds from p: no sealed entry is pinned beside it.
        assert planner.memory.bytes == sharded.nbytes
        assert digest not in planner.memory
        sealed_bytes = planner.sealed(p, digest).nbytes
        assert planner.memory.bytes == sharded.nbytes + sealed_bytes

    def test_small_byte_budget_evicts_a_shard(self):
        p, q = random_permutation(N, seed=1), random_permutation(N, seed=2)
        probe = Planner()
        shard_bytes = _sharded(probe, p, 4).nbytes
        one = probe.memory.bytes
        # Room for one permutation's sharding (the only entry a stream
        # builds) plus half a sharding: q's sharding pushes p's out.
        budget = one + shard_bytes // 2
        planner = Planner(cache_max_bytes=budget)
        first = _sharded(planner, p, 4)
        key = shard_fingerprint(permutation_digest(p), 4)
        assert key in planner.memory
        _sharded(planner, q, 4)
        assert key not in planner.memory
        assert planner.stats()["memory_evictions"] >= 1
        assert planner.memory.bytes <= budget
        again = _sharded(planner, p, 4)
        assert again is not first
        assert np.array_equal(again.gather_post, first.gather_post)
        assert planner.stats()["shard_plans"] == 3


class TestServiceApplyStream:
    def test_service_streams_named_permutation(self, tmp_path):
        service = PermutationService(width=WIDTH)
        p = bit_reversal(N)
        service.register("bitrev", p)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        before = service.stats()["requests"]
        stats = service.apply_stream(
            "bitrev", src, dst, d=4, max_resident_bytes=64 * 1024,
            tmp_dir=tmp_path,
        )
        assert np.array_equal(np.load(dst), _expected(p, a))
        assert stats.d == 4
        assert service.stats()["requests"] == before + 1

    def test_one_sharding_per_d(self, tmp_path):
        service = PermutationService(width=WIDTH)
        p = random_permutation(N, seed=5)
        service.register("r", p)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        built = service.metrics.counter("planner_shard_plans_total")
        for _ in range(2):
            service.apply_stream("r", src, dst, d=4, tmp_dir=tmp_path)
            assert np.array_equal(np.load(dst), _expected(p, a))
        assert built.value == 1
        service.apply_stream("r", src, dst, d=8, tmp_dir=tmp_path)
        assert np.array_equal(np.load(dst), _expected(p, a))
        assert built.value == 2

    def test_overwrite_never_streams_the_old_sharding(self, tmp_path):
        service = PermutationService(width=WIDTH)
        old, new = random_permutation(N, seed=7), random_permutation(N, seed=8)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        service.register("r", old)
        service.apply_stream("r", src, dst, d=4, tmp_dir=tmp_path)
        assert np.array_equal(np.load(dst), _expected(old, a))
        service.register("r", new, overwrite=True)
        service.apply_stream("r", src, dst, d=4, tmp_dir=tmp_path)
        assert np.array_equal(np.load(dst), _expected(new, a))
        assert service.stats()["shard_plans"] == 2

    def test_warm_stream_spills_only_the_payload(self, tmp_path,
                                                 monkeypatch):
        """A warm stream reuses the built sharding and writes nothing
        into ``tmp_dir`` but ``mid.npy``."""
        service = PermutationService(width=WIDTH)
        p = random_permutation(N, seed=19)
        service.register("r", p)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        spill = tmp_path / "spill"
        a = _payload(src)
        service.apply_stream("r", src, dst, d=4, tmp_dir=spill)
        built = service.metrics.counter("planner_shard_plans_total")
        before = built.value
        written = []
        real_save, real_memmap = np.save, np.lib.format.open_memmap

        def save(file, *args, **kwargs):
            written.append(Path(file))
            return real_save(file, *args, **kwargs)

        def open_memmap(filename, mode="r+", *args, **kwargs):
            if mode.startswith("w"):
                written.append(Path(filename))
            return real_memmap(filename, mode, *args, **kwargs)

        monkeypatch.setattr(np, "save", save)
        monkeypatch.setattr(np.lib.format, "open_memmap", open_memmap)
        service.apply_stream("r", src, dst, d=4, tmp_dir=spill)
        monkeypatch.undo()
        assert [f.name for f in written if f.parent == spill] == ["mid.npy"]
        assert built.value == before
        assert np.array_equal(np.load(dst), _expected(p, a))

    def test_stream_only_registration_pins_only_the_sharding(
            self, tmp_path):
        service = PermutationService(width=WIDTH)
        p = random_permutation(N, seed=23)
        service.register("r", p)
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        service.apply_stream("r", src, dst, d=4, tmp_dir=tmp_path)
        assert np.array_equal(np.load(dst), _expected(p, a))
        digest = permutation_digest(p)
        sharded = service.planner.sharded(p, digest, 4)
        assert service.planner.memory.bytes == sharded.nbytes == 2 * 4 * N
        assert len(service.planner.memory) == 1
        assert digest not in service.planner.memory

    def test_zero_budget_is_refused_not_replaced(self, tmp_path):
        service = PermutationService(width=WIDTH)
        service.register("bitrev", bit_reversal(N))
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        _payload(src)
        with pytest.raises(ResidentBudgetError):
            service.apply_stream("bitrev", src, dst, d=4,
                                 max_resident_bytes=0)
        assert not dst.exists()

    def test_stream_sets_no_per_round_gauge(self, tmp_path):
        """A stream runs two gather passes, not the engine's rounds:
        it records its wall time but no seconds-per-round ratio."""
        service = PermutationService(width=WIDTH)
        service.register("bitrev", bit_reversal(N), engine="scheduled")
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        _payload(src)
        service.apply_stream("bitrev", src, dst, d=4, tmp_dir=tmp_path)
        snap = service.metrics.snapshot()
        modes = {row["labels"]["mode"]
                 for row in snap["exec_apply_seconds"]}
        assert modes == {"stream"}
        assert not [row for row in snap.get("exec_seconds_per_round", [])
                    if row["labels"].get("mode") == "stream"]
