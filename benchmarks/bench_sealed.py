"""The sealed tier: one proven gather vs the optimized program replay.

PR 2's pass pipeline already collapsed the scheduled engine's warm
path to five fused full-array passes; sealing collapses those five to
*one* — the denoted permutation applied as a single flat gather.  This
bench quantifies the whole ladder at ``n = 2^16 .. 2^20``:

* **warm sealed**: one ``CompiledPermutation.apply`` through the
  sealed maps (the memory-tier steady state);
* **warm replay**: the same payload through the optimized
  ``KernelProgram`` (what every warm apply cost before the sealed
  tier);
* **sealed disk**: a fresh process's first request — ``compile``
  resolving via the sealed sidecar (decode, re-prove, apply; the v3
  plan is never rehydrated).

Every speedup divides two numbers from the same run on the same host:
the sealed-disk first request against the cold compile, and the warm
sealed apply against the warm replay.

The correctness half is a parity matrix: every registered engine x
three families, sealed apply vs program replay vs the requested
scatter, single and batched — zero wrong answers tolerated.

Artefacts: ``benchmarks/results/sealed.txt`` and ``BENCH_9.json``.
Pinned criteria, all same-run: zero parity mismatches; at ``n = 2^20``
the sealed-disk load-and-apply at least 4x faster than the cold
compile-and-apply, and the warm sealed apply at least 2x faster than
the warm replay (the replay is memory-bound at five passes, so the
single-gather ceiling on one core is ~3-5x, not the naive 32-round
intuition).
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.tables import format_table
from repro.exec.reference import ReferenceExecutor
from repro.ir.registry import engine_names
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.planner import Planner

WIDTH = 32
# REPRO_SEALED_MAXLOGN caps the sweep for CI wall-clock; the BENCH_9
# artifact is produced at the full default range.
_MAX_LOGN = int(os.environ.get("REPRO_SEALED_MAXLOGN", "20"))
SIZES = tuple(2**k for k in (16, 18, 20) if k <= _MAX_LOGN)
FAMILIES = (
    ("bit-reversal", bit_reversal),
    ("transpose", transpose_permutation),
    ("random", lambda n: random_permutation(n, seed=5)),
)
PARITY_N = 1024
REPO_ROOT = Path(__file__).resolve().parent.parent


def _median(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _measure(family: str, make, n: int, cache_dir: Path) -> dict:
    p = make(n)
    a = np.random.default_rng(0).random(n).astype(np.float32)
    expected = np.empty_like(a)
    expected[p] = a

    planner = Planner(cache_dir=cache_dir)
    t0 = time.perf_counter()
    compiled = planner.compile(p, engine="scheduled", width=WIDTH)
    out = compiled.apply(a)
    cold_s = time.perf_counter() - t0
    assert np.array_equal(out, expected)
    assert compiled.sealed is not None

    warm_sealed_s = _median(lambda: compiled.apply(a), 7)
    program = compiled.program
    replay_s = _median(
        lambda: ReferenceExecutor().run(program, a), 5
    )
    assert np.array_equal(
        ReferenceExecutor().run(program, a), expected
    )

    fresh = Planner(cache_dir=cache_dir)
    t0 = time.perf_counter()
    reloaded = fresh.compile(p, engine="scheduled", width=WIDTH)
    out = reloaded.apply(a)
    disk_s = time.perf_counter() - t0
    assert np.array_equal(out, expected)
    stats = fresh.stats()
    assert stats["sealed_hits"] == 1
    assert stats["cold_plans"] == 0
    # The sealed hit served without rehydrating the v3 plan.
    assert not reloaded.is_loaded

    return {
        "family": family,
        "n": n,
        "engine": "scheduled",
        "cold_plan_apply_s": cold_s,
        "warm_sealed_apply_s": warm_sealed_s,
        "warm_replay_apply_s": replay_s,
        "sealed_disk_load_apply_s": disk_s,
        "warm_speedup_vs_replay": replay_s / warm_sealed_s,
        "disk_speedup_vs_cold": cold_s / disk_s,
        "fingerprint": compiled.fingerprint,
    }


def _parity_matrix() -> dict:
    """Sealed apply vs program replay vs requested scatter, for every
    registered engine x family, single and batched."""
    checks = 0
    wrong: list[str] = []
    planner = Planner()
    for family, make in FAMILIES:
        p = make(PARITY_N)
        a = np.random.default_rng(1).random(PARITY_N)
        batch = np.stack([a, a + 1.0, a * 2.0])
        expected = np.empty_like(a)
        expected[p] = a
        for engine in engine_names():
            compiled = planner.compile(p, engine=engine, width=WIDTH)
            if compiled.sealed is None:
                wrong.append(f"{engine}/{family}: not sealed")
                continue
            sealed_out = compiled.apply(a)
            replay_out = ReferenceExecutor().run(compiled.program, a)
            batch_out = compiled.apply_batch(batch)
            checks += 3
            if not np.array_equal(sealed_out, expected):
                wrong.append(f"{engine}/{family}: sealed != scatter")
            if not np.array_equal(sealed_out, replay_out):
                wrong.append(f"{engine}/{family}: sealed != replay")
            if not all(
                np.array_equal(batch_out[i], np.asarray(
                    row[compiled.sealed.gather]))
                for i, row in enumerate(batch)
            ):
                wrong.append(f"{engine}/{family}: batch mismatch")
    return {
        "engines": list(engine_names()),
        "families": [f for f, _ in FAMILIES],
        "n": PARITY_N,
        "checks": checks,
        "wrong": wrong,
    }


def test_sealed_report(report, benchmark):
    def sweep():
        records = []
        with tempfile.TemporaryDirectory() as tmp:
            for family, make in FAMILIES:
                for n in SIZES:
                    records.append(
                        _measure(family, make, n, Path(tmp) / family)
                    )
        return records, _parity_matrix()

    records, parity = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [r["family"], r["n"],
         f"{r['warm_replay_apply_s'] * 1e3:.2f}",
         f"{r['warm_sealed_apply_s'] * 1e3:.2f}",
         f"{r['sealed_disk_load_apply_s'] * 1e3:.1f}",
         f"{r['warm_speedup_vs_replay']:.1f}x",
         f"{r['disk_speedup_vs_cold']:.1f}x"]
        for r in records
    ]
    text = format_table(
        ["family", "n", "replay ms", "sealed ms", "disk ms",
         "vs replay", "disk vs cold"],
        rows,
        title=("sealed tier: single proven gather vs optimized "
               f"replay (scheduled, w = {WIDTH}); parity "
               f"{parity['checks']} checks, "
               f"{len(parity['wrong'])} wrong"),
    )
    report("sealed", text)

    # Pinned criteria (see module docstring for the ceiling math).
    assert parity["wrong"] == [], parity["wrong"]
    for r in records:
        if r["n"] == 2**20:
            assert r["disk_speedup_vs_cold"] >= 4, r
            assert r["warm_speedup_vs_replay"] >= 2, r

    if _MAX_LOGN >= 20:
        payload = {
            "bench": "sealed-tier",
            "engine": "scheduled",
            "width": WIDTH,
            "sizes": list(SIZES),
            "records": records,
            "parity": parity,
        }
        (REPO_ROOT / "BENCH_9.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
