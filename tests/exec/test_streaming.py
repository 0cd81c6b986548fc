"""Tests for the out-of-core streaming executor."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ResidentBudgetError, ShardingError, SizeError
from repro.exec.streaming import StreamingExecutor
from repro.ir.registry import get_engine
from repro.permutations.named import bit_reversal, random_permutation
from repro.shard import shard_program
from repro.telemetry import MetricsRegistry

N = 4096
WIDTH = 32


def _sharded(p, d=4):
    program = get_engine("d-designated").plan(p, width=WIDTH).lower()
    return shard_program(program, d)


def _payload(path, n, dtype=np.float64):
    a = (np.arange(n) * 3 + 1).astype(dtype)
    np.save(path, a)
    return a


def _failing_phase(phase, *args):
    raise ShardingError(f"seeded failure in {phase}")


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "in.npy", tmp_path / "out.npy"


class TestCorrectness:
    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_streamed_matches_scatter(self, paths, d):
        src, dst = paths
        p = bit_reversal(N)
        a = _payload(src, N)
        expected = np.empty_like(a)
        expected[p] = a
        stats = StreamingExecutor(
            max_resident_bytes=64 * 1024
        ).run_sharded(_sharded(p, d), src, dst)
        assert np.array_equal(np.load(dst), expected)
        assert stats.n == N and stats.d == d

    @pytest.mark.parametrize("dtype", (np.float32, np.float64, np.int32))
    def test_dtypes_round_trip(self, paths, dtype):
        src, dst = paths
        p = random_permutation(N, seed=5)
        a = _payload(src, N, dtype)
        expected = np.empty_like(a)
        expected[p] = a
        StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        out = np.load(dst)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, expected)

    def test_random_permutation_streams_across_stripes(self, paths):
        src, dst = paths
        p = random_permutation(N, seed=2)
        a = _payload(src, N)
        expected = np.empty_like(a)
        expected[p] = a
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        assert np.array_equal(np.load(dst), expected)
        assert stats.exchange_elements > 0


class TestBudget:
    def test_peak_resident_stays_under_budget(self, paths):
        src, dst = paths
        budget = 8 * 1024
        p = bit_reversal(N)
        _payload(src, N)
        stats = StreamingExecutor(max_resident_bytes=budget).run_sharded(
            _sharded(p), src, dst
        )
        assert 0 < stats.peak_resident_total_bytes <= budget
        assert (stats.peak_resident_payload_bytes
                <= stats.peak_resident_total_bytes)
        # The budget forces tiling: many more tiles than stripes.
        assert stats.tiles_loaded > 2 * stats.d
        assert stats.tile_elems < N // stats.d

    def test_budget_too_small_for_one_element(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        with pytest.raises(ResidentBudgetError):
            StreamingExecutor(max_resident_bytes=8).run_sharded(
                _sharded(p), src, dst
            )

    def test_invalid_budget_rejected(self):
        with pytest.raises(ResidentBudgetError):
            StreamingExecutor(max_resident_bytes=0)


class TestLifecycle:
    def test_stats_timed_per_phase(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        assert set(stats.phase_seconds) == {"pre", "post"}
        assert stats.seconds >= sum(stats.phase_seconds.values()) >= 0.0

    def test_budget_refused_before_any_payload_write(self, paths,
                                                      tmp_path):
        src, dst = paths
        spill = tmp_path / "spill"
        p = bit_reversal(N)
        _payload(src, N)
        with pytest.raises(ResidentBudgetError):
            StreamingExecutor(max_resident_bytes=8).run_sharded(
                _sharded(p), src, dst, tmp_dir=spill
            )
        assert not dst.exists()
        assert not spill.exists()

    def test_spill_removed_after_a_failed_run(self, paths, tmp_path,
                                              monkeypatch):
        src, dst = paths
        spill = tmp_path / "spill"
        spill.mkdir()
        p = bit_reversal(N)
        _payload(src, N)
        executor = StreamingExecutor(max_resident_bytes=64 * 1024)
        monkeypatch.setattr(executor, "_stream_phase", _failing_phase)
        with pytest.raises(ShardingError, match="seeded failure in pre"):
            executor.run_sharded(_sharded(p), src, dst, tmp_dir=spill)
        assert list(spill.iterdir()) == []

    def test_owned_spill_dir_removed_after_a_failed_run(
        self, paths, tmp_path, monkeypatch
    ):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(**kwargs):
            made.append(real_mkdtemp(dir=tmp_path, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        executor = StreamingExecutor(max_resident_bytes=64 * 1024)
        monkeypatch.setattr(executor, "_stream_phase", _failing_phase)
        with pytest.raises(ShardingError, match="seeded"):
            executor.run_sharded(_sharded(p), src, dst)
        assert len(made) == 1
        assert not Path(made[0]).exists()

    def test_same_file_in_and_out_refused(self, paths):
        src, _ = paths
        p = bit_reversal(N)
        a = _payload(src, N)
        with pytest.raises(ShardingError, match="onto itself"):
            StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
                _sharded(p), src, src
            )
        assert np.array_equal(np.load(src), a)

    def test_wrong_payload_size_refused(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N // 2)
        with pytest.raises(SizeError):
            StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
                _sharded(p), src, dst
            )
        assert not dst.exists()

    def test_external_tmp_dir_spill_file_removed(self, paths, tmp_path):
        src, dst = paths
        spill = tmp_path / "spill"
        spill.mkdir()
        p = bit_reversal(N)
        _payload(src, N)
        StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst, tmp_dir=spill
        )
        assert list(spill.iterdir()) == []

    def test_only_the_payload_is_spilled(self, paths, tmp_path,
                                         monkeypatch):
        """The gathers stay in memory with the sharding: while each
        phase runs, the spill directory holds ``mid.npy`` alone."""
        src, dst = paths
        spill = tmp_path / "spill"
        p = random_permutation(N, seed=6)
        a = _payload(src, N)
        executor = StreamingExecutor(max_resident_bytes=64 * 1024)
        real_phase = executor._stream_phase
        seen = {}

        def listing_phase(phase, *args):
            seen[phase] = sorted(f.name for f in spill.iterdir())
            return real_phase(phase, *args)

        monkeypatch.setattr(executor, "_stream_phase", listing_phase)
        executor.run_sharded(_sharded(p), src, dst, tmp_dir=spill)
        assert seen == {"pre": ["mid.npy"], "post": ["mid.npy"]}
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(np.load(dst), expected)


class TestStatsParity:
    """The two-gather sharding streams exactly the tiles, bytes and
    resident peaks the spilled-gather executor reported for the same
    p, d, dtype and budget (figures recorded from that executor)."""

    @pytest.mark.parametrize(
        "family, d, dtype, budget, expected",
        [
            ("bit-reversal", 4, "float64", 8 * 1024,
             (341, 32, 98304, 65536, 2728, 4092)),
            ("random", 8, "float32", 64 * 1024,
             (512, 16, 65536, 32768, 2048, 4096)),
            ("random", 2, "int32", 3000,
             (187, 44, 65536, 32768, 748, 1496)),
            ("bit-reversal", 1, "float64", 1 << 20,
             (4096, 2, 98304, 65536, 32768, 49152)),
        ],
    )
    def test_stats_unchanged(self, paths, family, d, dtype, budget,
                             expected):
        src, dst = paths
        p = (bit_reversal(N) if family == "bit-reversal"
             else random_permutation(N, seed=21))
        np.save(src, np.arange(N).astype(dtype))
        stats = StreamingExecutor(max_resident_bytes=budget).run_sharded(
            _sharded(p, d), src, dst
        )
        assert (
            stats.tile_elems, stats.tiles_loaded, stats.bytes_read,
            stats.bytes_written, stats.peak_resident_payload_bytes,
            stats.peak_resident_total_bytes,
        ) == expected


class TestTelemetry:
    def test_metrics_histograms_observed(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        metrics = MetricsRegistry()
        StreamingExecutor(
            max_resident_bytes=64 * 1024, metrics=metrics
        ).run_sharded(_sharded(p), src, dst)
        snapshot = metrics.snapshot()
        assert "stream_tile_bytes" in snapshot
        assert "stream_resident_bytes" in snapshot
        assert "stream_exchange_segment_bytes" in snapshot
        tile_series = snapshot["stream_tile_bytes"]
        assert {s["labels"].get("phase") for s in tile_series} == {
            "pre", "post"
        }
        assert all(s["count"] > 0 for s in tile_series)

    def test_stats_describe_mentions_budget(self, paths):
        src, dst = paths
        p = bit_reversal(N)
        _payload(src, N)
        stats = StreamingExecutor(max_resident_bytes=64 * 1024).run_sharded(
            _sharded(p), src, dst
        )
        text = stats.describe()
        assert "budget" in text
        assert "stripes" in text
