"""Planner-level sharding: handles, fingerprints, out-of-core apply."""

import numpy as np
import pytest

from repro.errors import ShardingError
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner
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


class TestCompiledShard:
    def test_shard_is_proven_and_memoized(self):
        compiled = Planner().compile(
            bit_reversal(N), engine="d-designated", width=WIDTH
        )
        sharded = compiled.shard(4)
        assert sharded.proven
        assert compiled.shard(4) is sharded
        assert compiled.shard(2) is not sharded

    def test_shard_fingerprint_distinct_per_d(self):
        compiled = Planner().compile(
            bit_reversal(N), engine="d-designated", width=WIDTH
        )
        fp4 = compiled.shard_fingerprint(4)
        fp8 = compiled.shard_fingerprint(8)
        assert fp4 != fp8
        assert fp4 != compiled.fingerprint
        assert fp4 == shard_fingerprint(compiled.fingerprint, 4)

    def test_indivisible_d_refused(self):
        compiled = Planner().compile(
            bit_reversal(N), engine="d-designated", width=WIDTH
        )
        with pytest.raises(ShardingError):
            compiled.shard(3)

    def test_apply_stream_round_trip(self, tmp_path):
        p = random_permutation(N, seed=13)
        compiled = Planner().compile(
            p, engine="d-designated", width=WIDTH
        )
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        stats = compiled.apply_stream(
            src, dst, d=4, max_resident_bytes=64 * 1024,
            tmp_dir=tmp_path,
        )
        assert np.array_equal(np.load(dst), _expected(p, a))
        assert stats.peak_resident_total_bytes <= 64 * 1024


class TestPlannerCompileSharded:
    def test_counts_fresh_shards_only(self):
        planner = Planner()
        p = bit_reversal(N)
        compiled, sharded = planner.compile_sharded(
            p, 4, engine="d-designated", width=WIDTH
        )
        assert sharded.proven and sharded.d == 4
        assert planner.stats()["shard_plans"] == 1
        again, sharded2 = planner.compile_sharded(
            p, 4, engine="d-designated", width=WIDTH
        )
        assert again is compiled and sharded2 is sharded
        assert planner.stats()["shard_plans"] == 1
        planner.compile_sharded(p, 8, engine="d-designated", width=WIDTH)
        assert planner.stats()["shard_plans"] == 2

    def test_sidecar_handle_shards_without_replanning(self, tmp_path):
        p = random_permutation(N, seed=17)
        Planner(cache_dir=tmp_path).compile(p, width=WIDTH)
        fresh = Planner(cache_dir=tmp_path)
        compiled, sharded = fresh.compile_sharded(p, 4, width=WIDTH)
        assert sharded.proven and sharded.d == 4
        stats = fresh.stats()
        assert stats["sealed_hits"] == 1
        assert stats["cold_plans"] == 0
        assert not compiled.is_loaded
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a = _payload(src)
        compiled.apply_stream(src, dst, d=4, tmp_dir=tmp_path)
        assert np.array_equal(np.load(dst), _expected(p, a))
        assert fresh.stats()["cold_plans"] == 0
        assert not compiled.is_loaded


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
