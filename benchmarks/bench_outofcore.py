"""Out-of-core streaming benchmark: n = 2^26 float64 under 256 MB.

The tentpole demonstration for the shard layer: a 512 MiB float64
payload (n = 2^26) is permuted *from disk to disk* through the proven
two-gather row-stripe sharding (:func:`repro.shard.shard_program`,
memoized by :meth:`repro.planner.Planner.sharded`), with the streaming
executor's resident-payload budget capped at **one eighth of the
payload** — 64 MiB, comfortably under the 256 MB headline cap.  The run
is checked bit-for-bit against the definitional scatter (computed
chunked, so the reference itself never holds more than a tile), and
compared against the ordinary in-core ``apply`` on throughput and peak
resident bytes.

The second half prices the same permutation on the sharded HMM model
for d in {1, 2, 4, 8}: per-DMM local rounds on stripes of ``n/d`` plus
the MCM-style inter-DMM exchange charge for the elements that actually
cross a stripe boundary (:func:`repro.core.selector.predict_sharded`),
and the machine-level :meth:`~repro.machine.hmm.HMM.run_sharded`
breakdown for the streamed shard count.

Artefacts: ``benchmarks/results/outofcore.txt`` and ``BENCH_8.json``
at the repo root.  Scale knob for CI: ``REPRO_OOC_LOGN`` (default 26;
the smoke job uses 16).  The resident budget always scales as
``payload_bytes / 8``, so the 1/8 acceptance ratio is pinned at every
scale.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.tables import format_table
from repro.core.selector import predict_sharded
from repro.errors import ShardRefutedError
from repro.exec.streaming import StreamingExecutor
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.permutations.named import bit_reversal
from repro.planner import Planner, permutation_digest, shard_fingerprint
from repro.shard import prove_sharding

WIDTH = 32
LOGN = int(os.environ.get("REPRO_OOC_LOGN", "26"))
N = 1 << LOGN
DTYPE = np.float64
STREAM_D = 8
MODEL_DS = (1, 2, 4, 8)
#: Verification chunk: the reference scatter is computed and compared
#: in slices of this many elements, so the checker is itself bounded.
CHECK_CHUNK = 1 << 20
REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_payload(path: Path, n: int) -> None:
    """Write a deterministic n-element float64 payload chunk by chunk."""
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=DTYPE, shape=(n,)
    )
    for lo in range(0, n, CHECK_CHUNK):
        hi = min(lo + CHECK_CHUNK, n)
        # Distinct, order-sensitive values: any misrouted element
        # changes the bitwise comparison.
        out[lo:hi] = np.arange(lo, hi, dtype=np.float64) * 0.5 + 1.0
    out.flush()
    del out


def _expected_scatter(p: np.ndarray, src: Path, dst: Path) -> None:
    """The definitional ``out[p[i]] = a[i]``, chunked over memmaps."""
    a = np.load(src, mmap_mode="r")
    out = np.lib.format.open_memmap(
        dst, mode="w+", dtype=DTYPE, shape=(int(p.shape[0]),)
    )
    for lo in range(0, int(p.shape[0]), CHECK_CHUNK):
        hi = min(lo + CHECK_CHUNK, int(p.shape[0]))
        out[p[lo:hi]] = a[lo:hi]
    out.flush()
    del out


def _files_equal(x_path: Path, y_path: Path, n: int) -> bool:
    x = np.load(x_path, mmap_mode="r")
    y = np.load(y_path, mmap_mode="r")
    for lo in range(0, n, CHECK_CHUNK):
        hi = min(lo + CHECK_CHUNK, n)
        if not np.array_equal(x[lo:hi], y[lo:hi]):
            return False
    return True


def run_outofcore(n: int = N, stream_d: int = STREAM_D) -> dict:
    """One full out-of-core run; returns the aggregate payload dict."""
    p = bit_reversal(n)
    payload_bytes = n * np.dtype(DTYPE).itemsize
    budget = payload_bytes // 8
    digest = permutation_digest(p)
    planner = Planner()
    compiled = planner.compile(p, engine="d-designated", width=WIDTH,
                               digest=digest)

    with tempfile.TemporaryDirectory() as tmp:
        tdir = Path(tmp)
        src = tdir / "payload.npy"
        streamed = tdir / "streamed.npy"
        expected = tdir / "expected.npy"
        _write_payload(src, n)
        _expected_scatter(p, src, expected)

        # --- out-of-core streamed apply (proves the sharding first) --
        t0 = time.perf_counter()
        sharded = planner.sharded(p, digest, stream_d)
        stats = StreamingExecutor(max_resident_bytes=budget).run_sharded(
            sharded, src, streamed, tmp_dir=tdir
        )
        stream_s = time.perf_counter() - t0
        correct = _files_equal(streamed, expected, n)
        # Re-run the build's proof on the streamed sharding itself.
        try:
            prove_sharding(sharded, p)
            shard_proven = True
        except ShardRefutedError:
            shard_proven = False

        # --- in-core baseline: plain apply on a fully resident array -
        a = np.load(src)
        t0 = time.perf_counter()
        out = compiled.apply(a)
        incore_s = time.perf_counter() - t0
        incore_correct = bool(
            np.array_equal(out, np.load(expected, mmap_mode="r"))
        )
        del a, out

    machine = HMM(MachineParams(width=WIDTH))
    model_run = machine.run_sharded(
        sharded, element_cells=np.dtype(DTYPE).itemsize // 4
    )
    model = predict_sharded(
        p, MachineParams(width=WIDTH), dtype=DTYPE, ds=MODEL_DS
    )
    mib = 1024 * 1024
    return {
        "bench": "outofcore-streaming",
        "n": n,
        "log2_n": int(n).bit_length() - 1,
        "dtype": str(np.dtype(DTYPE)),
        "payload_bytes": payload_bytes,
        "budget_bytes": budget,
        "budget_ratio": budget / payload_bytes,
        "d": stream_d,
        "engine": compiled.engine_name,
        "shard_proven": shard_proven,
        "shard_fingerprint": shard_fingerprint(digest, stream_d),
        "exchange_elements": int(sharded.exchange_elements),
        "correct": bool(correct),
        "incore_correct": incore_correct,
        "stream": {
            "seconds": stream_s,
            "apply_seconds": stats.seconds,
            "throughput_mib_s": payload_bytes / mib / stats.seconds,
            "tiles_loaded": stats.tiles_loaded,
            "tile_elems": stats.tile_elems,
            "bytes_read": stats.bytes_read,
            "bytes_written": stats.bytes_written,
            "exchange_bytes": stats.exchange_bytes,
            "peak_resident_payload_bytes":
                stats.peak_resident_payload_bytes,
            "peak_resident_total_bytes":
                stats.peak_resident_total_bytes,
            "phase_seconds": dict(stats.phase_seconds),
        },
        "incore": {
            "seconds": incore_s,
            "throughput_mib_s": payload_bytes / mib / incore_s,
            "peak_resident_payload_bytes": 2 * payload_bytes,
        },
        "model_run_d": model_run,
        "model_scaling": {
            str(d): times for d, times in sorted(model.items())
        },
    }


def test_outofcore_streaming_report(report):
    payload = run_outofcore()
    mib = 1024 * 1024
    s = payload["stream"]
    rows = [
        ["streamed (d=%d)" % payload["d"],
         f"{s['seconds']:.2f}",
         f"{s['throughput_mib_s']:.0f}",
         f"{s['peak_resident_total_bytes'] / mib:.1f}",
         "yes" if payload["correct"] else "NO"],
        ["in-core apply",
         f"{payload['incore']['seconds']:.2f}",
         f"{payload['incore']['throughput_mib_s']:.0f}",
         f"{payload['incore']['peak_resident_payload_bytes'] / mib:.1f}",
         "yes" if payload["incore_correct"] else "NO"],
    ]
    table1 = format_table(
        ["path", "seconds", "MiB/s", "peak resident MiB", "correct"],
        rows,
        title=(
            f"out-of-core bit-reversal, n = 2^{payload['log2_n']} "
            f"{payload['dtype']} "
            f"({payload['payload_bytes'] // mib} MiB payload, "
            f"budget {payload['budget_bytes'] // mib} MiB = 1/8)"
        ),
    )
    model_rows = [
        [d, t["local"], t["exchange"], t["total"]]
        for d, t in sorted(
            payload["model_scaling"].items(), key=lambda kv: int(kv[0])
        )
    ]
    table2 = format_table(
        ["d", "local time", "exchange time", "total time"],
        model_rows,
        title=("sharded HMM model (per-DMM rounds + inter-DMM "
               "exchange, exact crossing volume)"),
    )
    report("outofcore", table1 + "\n\n" + table2)

    # Pinned acceptance criteria.
    assert payload["correct"], "streamed output differs from scatter"
    assert payload["incore_correct"]
    assert payload["shard_proven"], "sharding was not proven"
    assert s["peak_resident_total_bytes"] <= payload["budget_bytes"], (
        s["peak_resident_total_bytes"], payload["budget_bytes"])
    assert payload["budget_bytes"] * 8 <= payload["payload_bytes"], (
        "budget must be at most 1/8 of the payload")

    (REPO_ROOT / "BENCH_8.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
