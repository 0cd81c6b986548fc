"""Chaos/load harness for the concurrent serving core.

A fleet of closed-loop client threads hammers a
:class:`~repro.service.PermutationServer` with tens of thousands of
mixed-family requests (single payloads, batches, all three permutation
families) while a chaos driver injects the resilience layer's fault
repertoire mid-flight.  The families' programs are compiled into the
cache directory before serving starts, so there are files to damage:

every ``CHAOS_EVERY`` served requests a family's disk-cache entry (its
sealed sidecar) is replaced by a damaged copy and its sealed gather
evicted from the memory tier, so the next request takes the miss path.
The damaged copies are built once per ``(family, mode)`` before serving
starts (:class:`~repro.resilience.SidecarChaos`), so every cycle
injects a fresh fault rather than damaging an already-damaged file.

A request is answered from its registration's own permutation, so no
corrupt sidecar can reach it.  Every client verifies every answer
against the definitional scatter, so the *wrong answers* column is a
real end-to-end correctness count — the acceptance criteria are **zero
wrong answers**, **availability >= 99%** and **zero cold plans in the
served phase**, with faults injected at >= 1% of the request rate.

Latency quantiles are sourced from the telemetry layer's mergeable
log-bucketed :class:`~repro.telemetry.Histogram`: every client thread
observes into its own per-family histogram, the per-client histograms
are merged at the end (the same merge the metrics registry and SLO
monitor rely on), and p50/p99 are read off the merged distribution.
The server's own ``server_e2e_seconds`` histogram rows are captured
alongside, so client-observed and server-observed latency can be
compared in the artefact.

Artefacts: ``benchmarks/results/serving.txt`` (p50/p99 latency and
throughput per family) and ``BENCH_7.json`` at the repo root with the
raw aggregates, fault accounting, and the server's final health
snapshot (same workload as the retired ``BENCH_6.json``).  Scale knobs
for CI: ``REPRO_SERVING_REQUESTS``, ``REPRO_SERVING_CLIENTS``,
``REPRO_SERVING_WORKERS``.
"""

import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analysis.tables import format_table
from repro.errors import ReproError
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.resilience import SidecarChaos
from repro.service import PermutationServer

WIDTH = 32
N = 1024
REQUESTS = int(os.environ.get("REPRO_SERVING_REQUESTS", "20000"))
CLIENTS = int(os.environ.get("REPRO_SERVING_CLIENTS", "8"))
WORKERS = int(os.environ.get("REPRO_SERVING_WORKERS", "4"))
#: Served requests between chaos injections (=> fault rate ~1/60).
CHAOS_EVERY = 60
BATCH_K = 4
DEADLINE_S = 10.0
FAMILIES = (
    ("bit-reversal", lambda n: bit_reversal(n), "scheduled"),
    ("transpose", lambda n: transpose_permutation(n), "scheduled"),
    ("random", lambda n: random_permutation(n, seed=5), "padded"),
)
REPO_ROOT = Path(__file__).resolve().parent.parent


class _Chaos(threading.Thread):
    """Injects one fault cycle every ``CHAOS_EVERY`` served requests."""

    def __init__(self, server, fingerprints, digests):
        super().__init__(name="chaos-driver", daemon=True)
        self.server = server
        self.digests = digests
        self.stop = threading.Event()
        disk = server.service.planner.disk
        self.chaos = SidecarChaos(
            {name: disk.sealed_path_for(fp) for name, fp in fingerprints},
            seed=11,
        )

    def run(self):
        cycle = 0
        while not self.stop.is_set():
            served = self.server.stats().get("server.served", 0)
            if served < (cycle + 1) * CHAOS_EVERY:
                time.sleep(0.001)
                continue
            cycle += 1
            name, _ = self.chaos.step()
            self.server.service.planner.memory.invalidate(
                self.digests[name]
            )

    def snapshot(self) -> dict:
        return {
            "corruptions": self.chaos.corruptions,
            "skipped": self.chaos.skipped,
        }


def _client(server, perms, records, lock, per_client, seed, hists):
    rng = np.random.default_rng(seed)
    names = [name for name, _ in perms]
    for i in range(per_client):
        name = names[int(rng.integers(len(names)))]
        p = dict(perms)[name]
        a = (np.arange(N, dtype=np.int64)
             + int(rng.integers(1_000_000)))
        batch = i % 16 == 15
        payload = (
            np.stack([a + j for j in range(BATCH_K)]) if batch else a
        )
        t0 = time.perf_counter()
        rec = {"family": name, "ok": False, "wrong": False,
               "error": None}
        try:
            res = server.submit(name, payload, batch=batch,
                                deadline_s=DEADLINE_S)
            out = res.result(timeout=60.0)
            rec["ok"] = True
            expected = np.empty_like(payload)
            if batch:
                expected[:, p] = payload
            else:
                expected[p] = payload
            if not np.array_equal(out, expected):
                rec["wrong"] = True
        except ReproError as exc:
            rec["error"] = type(exc).__name__
        latency = time.perf_counter() - t0
        rec["latency_s"] = latency
        if rec["ok"]:
            # Thread-private histogram: no contention on the hot loop;
            # merged into the per-family aggregate after join().
            hists[name].observe(latency)
        with lock:
            records.append(rec)


def run_chaos_load(
    requests=REQUESTS,
    clients=CLIENTS,
    workers=WORKERS,
    chaos=True,
    cache_dir=None,
):
    """One full chaos/load run; returns the aggregate payload dict."""
    perms = [(name, make(N)) for name, make, _ in FAMILIES]
    server = PermutationServer(
        width=WIDTH,
        cache_dir=cache_dir,
        workers=workers,
        queue_capacity=max(64, 4 * clients),
    )
    fingerprints = []
    for (name, make, engine), (_, p) in zip(FAMILIES, perms):
        fingerprints.append((name, server.register(name, p,
                                                   engine=engine)))
    service = server.service
    digests = {}
    for name, _ in perms:
        key = f"default/{name}"
        service.compiled(key)
        digests[name] = service._registration(key).digest
    server.warm()
    cold_before = service.planner.stats()["cold_plans"]

    records: list[dict] = []
    lock = threading.Lock()
    per_client = requests // clients
    driver = _Chaos(server, fingerprints, digests) if chaos else None
    if driver is not None:
        driver.start()
    client_hists = [
        {name: telemetry.Histogram() for name, _ in perms}
        for _ in range(clients)
    ]
    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(server, perms, records, lock, per_client, 100 + c,
                  client_hists[c]),
        )
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if driver is not None:
        driver.stop.set()
        driver.join(timeout=5.0)
    stats = server.stats()
    health = server.health()
    metrics_snapshot = server.metrics.snapshot()
    server.close()

    # Merge the per-client histograms into one distribution per family.
    merged: dict[str, telemetry.Histogram] = {
        name: telemetry.Histogram() for name, _ in perms
    }
    for per_client_hists in client_hists:
        for name, h in per_client_hists.items():
            merged[name].merge(h)

    total = len(records)
    succeeded = sum(r["ok"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    failures: dict[str, int] = {}
    for r in records:
        if r["error"]:
            failures[r["error"]] = failures.get(r["error"], 0) + 1
    families = {}
    for name, _ in perms:
        h = merged[name]
        families[name] = {
            "requests": sum(r["family"] == name for r in records),
            "succeeded": h.count,
            "p50_ms": h.quantile(0.5) * 1e3,
            "p99_ms": h.quantile(0.99) * 1e3,
            "mean_ms": h.mean * 1e3,
            "max_ms": h.max * 1e3,
            "throughput_rps": h.count / elapsed,
        }
    # Server-observed end-to-end latency, for comparison with the
    # client-observed quantiles above.
    server_latency = [
        {"labels": row["labels"], "count": row["count"],
         "p50_ms": row["p50"] * 1e3, "p99_ms": row["p99"] * 1e3}
        for row in metrics_snapshot.get("server_e2e_seconds", [])
    ]
    chaos_stats = driver.snapshot() if driver else {}
    fault_events = chaos_stats.get("corruptions", 0)
    return {
        "bench": "serving-chaos",
        "n": N,
        "width": WIDTH,
        "requests": total,
        "clients": clients,
        "workers": workers,
        "elapsed_s": elapsed,
        "throughput_rps": succeeded / elapsed,
        "availability": succeeded / total if total else 0.0,
        "wrong_answers": wrong,
        "failures": failures,
        "families": families,
        "server_latency": server_latency,
        "chaos": chaos_stats,
        "fault_events": fault_events,
        "fault_rate": fault_events / total if total else 0.0,
        "served_cold_plans": stats["cold_plans"] - cold_before,
        "server_stats": {
            k: v for k, v in stats.items()
            if isinstance(v, (int, float))
        },
        "health": health,
    }


def test_serving_chaos_report(report):
    with tempfile.TemporaryDirectory() as tmp:
        payload = run_chaos_load(cache_dir=Path(tmp) / "plans")

    rows = [
        [name,
         f["requests"],
         f"{f['p50_ms']:.2f}",
         f"{f['p99_ms']:.2f}",
         f"{f['throughput_rps']:.0f}"]
        for name, f in payload["families"].items()
    ]
    rows.append([
        "TOTAL",
        payload["requests"],
        "-", "-",
        f"{payload['throughput_rps']:.0f}",
    ])
    text = format_table(
        ["family", "requests", "p50 ms", "p99 ms", "rps"],
        rows,
        title=(
            "serving under chaos: "
            f"{payload['requests']} requests, "
            f"{payload['clients']} clients, "
            f"{payload['workers']} workers | "
            f"availability {payload['availability']:.4f}, "
            f"wrong answers {payload['wrong_answers']}, "
            f"fault rate {payload['fault_rate']:.3f}, "
            f"cold plans while serving {payload['served_cold_plans']}"
        ),
    )
    report("serving", text)

    # Pinned acceptance criteria.
    assert payload["wrong_answers"] == 0, payload["failures"]
    assert payload["availability"] >= 0.99, payload["failures"]
    assert payload["fault_rate"] >= 0.01, payload["chaos"]
    assert payload["chaos"]["skipped"] == 0, payload["chaos"]
    assert payload["served_cold_plans"] == 0

    (REPO_ROOT / "BENCH_7.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
