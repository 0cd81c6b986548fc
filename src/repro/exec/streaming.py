"""Out-of-core streaming executor for sharded permutation plans.

Applies a :class:`~repro.shard.ShardedProgram` to a payload that lives
on disk, never materialising more than a bounded number of bytes of
payload in process memory.  The sharding holds the two **gather
passes** a stream runs (gathers, unlike scatters, can be evaluated in
arbitrarily small output chunks against a memory-mapped source):

1. *pre*  — ``mid[q] = in[gather_pre[q]]`` groups every stripe's
   elements by destination stripe (stripe-local reads);
2. *post* — ``out[q] = mid[gather_post[q]]`` fuses the column
   exchange with the final stripe-local placement, so each output
   stripe reads only its ``<= d`` contiguous exchange source ranges.

Both maps were proved when the sharding was built and stay in memory
with it (the planner's memory tier accounts for them); the run spills
only the payload's intermediate ``mid.npy``.  The executor's
*allocated* footprint per tile is ``tile_elems * (payload_itemsize +
index_itemsize)`` regardless of ``n``.  ``max_resident_bytes`` is a
hard budget on those allocations: tile sizes are derived from it
(halved for headroom) and each tile's resident bytes are checked
against it.  Stripes run one after another, pre phase first.
Memory-mapped files are backed by the OS page cache and are
reclaimable at any time; they are deliberately *not* charged against
the budget — that is what makes the scheme out-of-core.

Telemetry: every run and stripe gets a span; tiles, streamed bytes and
exchange volume are counted, and an optional
:class:`~repro.telemetry.MetricsRegistry` receives ``stream_*``
histograms for tile bytes, resident bytes and exchange segment bytes.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.errors import ResidentBudgetError, ShardingError, SizeError

if TYPE_CHECKING:
    from repro.shard import ShardedProgram
    from repro.telemetry import MetricsRegistry

__all__ = ["StreamingExecutor", "StreamingStats"]

#: Default hard budget for executor-allocated tile buffers: 256 MB.
DEFAULT_RESIDENT_BYTES = 256 * 1024 * 1024


@dataclass
class StreamingStats:
    """Everything a caller needs to audit one streamed application."""

    n: int
    d: int
    dtype: str
    payload_bytes: int
    max_resident_bytes: int
    tile_elems: int
    tiles_loaded: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    exchange_segments: int = 0
    exchange_elements: int = 0
    exchange_bytes: int = 0
    peak_resident_payload_bytes: int = 0
    peak_resident_total_bytes: int = 0
    seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        mb = 1024.0 * 1024.0
        return "\n".join(
            [
                f"streamed n={self.n} ({self.dtype}, "
                f"{self.payload_bytes / mb:.1f} MB) across d={self.d} "
                f"stripes in {self.seconds:.2f} s",
                f"  tiles: {self.tiles_loaded} x {self.tile_elems} elems, "
                f"read {self.bytes_read / mb:.1f} MB, "
                f"wrote {self.bytes_written / mb:.1f} MB",
                f"  exchange: {self.exchange_segments} segments, "
                f"{self.exchange_bytes / mb:.1f} MB crossing",
                f"  resident: peak payload "
                f"{self.peak_resident_payload_bytes / mb:.2f} MB, "
                f"peak total {self.peak_resident_total_bytes / mb:.2f} MB "
                f"(budget {self.max_resident_bytes / mb:.1f} MB)",
            ]
        )


#: The one spill file a run writes into its temporary directory.
_MID = "mid.npy"


class StreamingExecutor:
    """Apply sharded plans to on-disk payloads under a byte budget.

    Holds only its configuration: each :meth:`run_sharded` call owns
    its spill file and stats, so callers on several threads may
    share one executor.
    """

    def __init__(
        self,
        max_resident_bytes: int = DEFAULT_RESIDENT_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_resident_bytes < 1:
            raise ResidentBudgetError(
                f"max_resident_bytes must be >= 1, got {max_resident_bytes}"
            )
        self.max_resident_bytes = int(max_resident_bytes)
        self.metrics = metrics

    def run_sharded(
        self,
        sharded: ShardedProgram,
        path_in: str | Path,
        path_out: str | Path,
        tmp_dir: str | Path | None = None,
    ) -> StreamingStats:
        """Stream every stripe of the pre phase, then of the post phase.

        A payload of the wrong shape, an input that is also the output
        and a budget too small for a one-element tile are refused
        before any file is written.  The spill file is removed
        whether the run succeeds or fails.
        """
        started = time.perf_counter()
        path_in = Path(path_in)
        path_out = Path(path_out)
        if path_in.resolve() == path_out.resolve():
            raise ShardingError(
                "streaming cannot permute a file onto itself"
            )
        src = np.load(path_in, mmap_mode="r")
        n = sharded.n
        if src.shape != (n,):
            raise SizeError(
                f"payload {path_in} has shape {src.shape}, "
                f"expected ({n},)"
            )
        itemsize = int(src.dtype.itemsize)
        index_itemsize = int(sharded.gather_post.dtype.itemsize)
        # A tile takes at most half the budget: the rest is headroom
        # for the temporaries NumPy makes around it.
        tile_elems = min(
            self.max_resident_bytes // (2 * (itemsize + index_itemsize)),
            max(1, sharded.stripe),
        )
        if tile_elems < 1:
            raise ResidentBudgetError(
                f"max_resident_bytes={self.max_resident_bytes} cannot "
                f"hold even a one-element tile for dtype {src.dtype}; "
                "raise the budget"
            )
        stats = StreamingStats(
            n=n,
            d=sharded.d,
            dtype=str(src.dtype),
            payload_bytes=n * itemsize,
            max_resident_bytes=self.max_resident_bytes,
            tile_elems=int(tile_elems),
            exchange_segments=len(sharded.segments),
            exchange_elements=sharded.exchange_elements,
            exchange_bytes=sharded.exchange_elements * itemsize,
        )
        if self.metrics is not None:
            seg_hist = self.metrics.histogram(
                "stream_exchange_segment_bytes"
            )
            for seg in sharded.segments:
                if seg.crosses:
                    seg_hist.observe(seg.length * itemsize)

        owns_tmp = tmp_dir is None
        tmp = Path(
            tempfile.mkdtemp(prefix="repro-stream-")
            if tmp_dir is None
            else tmp_dir
        )
        with telemetry.span("stream.run", n=n, d=sharded.d) as sp:
            try:
                tmp.mkdir(parents=True, exist_ok=True)
                mid = np.lib.format.open_memmap(
                    tmp / _MID, mode="w+", dtype=src.dtype,
                    shape=(n,),
                )
                path_out.parent.mkdir(parents=True, exist_ok=True)
                out = np.lib.format.open_memmap(
                    path_out, mode="w+", dtype=src.dtype, shape=(n,)
                )
                self._stream_phase("pre", sharded.gather_pre, src, mid,
                                   sharded, stats)
                self._stream_phase("post", sharded.gather_post, mid, out,
                                   sharded, stats)
                out.flush()
            finally:
                if owns_tmp:
                    shutil.rmtree(tmp, ignore_errors=True)
                else:
                    (tmp / _MID).unlink(missing_ok=True)
            stats.seconds = time.perf_counter() - started
            sp.set(
                tiles=stats.tiles_loaded,
                peak_resident=stats.peak_resident_total_bytes,
            )
        return stats

    def _stream_phase(
        self,
        phase: str,
        gather: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        sharded: ShardedProgram,
        stats: StreamingStats,
    ) -> None:
        """``dst[q] = src[gather[q]]``, stripe by stripe, in tiles of
        ``stats.tile_elems`` whose allocated bytes are checked against
        the budget one by one."""
        started = time.perf_counter()
        itemsize = int(src.dtype.itemsize)
        stripe = sharded.stripe
        step = stats.tile_elems
        for k in range(sharded.d):
            with telemetry.span("stream.stripe", phase=phase, stripe=k):
                for t0 in range(k * stripe, (k + 1) * stripe, step):
                    t1 = min(t0 + step, (k + 1) * stripe)
                    idx = gather[t0:t1]
                    payload_bytes = (t1 - t0) * itemsize
                    resident = payload_bytes + idx.nbytes
                    if resident > stats.max_resident_bytes:
                        raise ResidentBudgetError(
                            f"tile would hold {resident} resident "
                            "bytes, over the budget of "
                            f"{stats.max_resident_bytes}; raise the "
                            "budget"
                        )
                    stats.peak_resident_payload_bytes = max(
                        stats.peak_resident_payload_bytes, payload_bytes
                    )
                    stats.peak_resident_total_bytes = max(
                        stats.peak_resident_total_bytes, resident
                    )
                    dst[t0:t1] = src[idx]
                    stats.tiles_loaded += 1
                    stats.bytes_read += resident
                    stats.bytes_written += payload_bytes
                    if self.metrics is not None:
                        self.metrics.histogram(
                            "stream_resident_bytes"
                        ).observe(resident)
                        self.metrics.histogram(
                            "stream_tile_bytes", phase=phase
                        ).observe(payload_bytes)
        stats.phase_seconds[phase] = time.perf_counter() - started
