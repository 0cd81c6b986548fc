"""Concurrent serving tests: thread-pool clients hammering the server
across three permutation families while faults are injected — zero
wrong answers, no request ever plans, and queue-full rejections
observable through ``stats()`` / ``health()``."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import telemetry
from repro.errors import ReproError, ServiceOverloadError
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.resilience import FILE_FAULT_MODES, SidecarChaos
from repro.service import PermutationServer

_N, _WIDTH = 1024, 32

FAMILIES = {
    "bit-reversal": bit_reversal(_N),
    "transpose": transpose_permutation(_N),
    "random": random_permutation(_N, seed=5),
}


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestHammer:
    def test_mixed_families_under_faults_zero_wrong_answers(
        self, tmp_path
    ):
        server = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=4,
            queue_capacity=128,
        )
        fingerprints = {
            name: server.register(name, p)
            for name, p in FAMILIES.items()
        }
        # Compile the programs so the cache holds sidecars to corrupt;
        # serving must never read them.
        for name in FAMILIES:
            server.service.compiled(f"default/{name}")
        digests = {
            name: server.service._registration(f"default/{name}").digest
            for name in FAMILIES
        }
        planner = server.service.planner
        before = planner.stats()
        server.warm()
        names = sorted(FAMILIES)
        wrong = []
        failed = []
        corrupted = set()
        lock = threading.Lock()
        stop = threading.Event()
        # Set once every mode has been applied: step c uses mode c mod 4.
        all_modes = threading.Event()
        sidecars = SidecarChaos(
            {name: planner.disk.sealed_path_for(fingerprints[name])
             for name in names},
            seed=3,
        )

        def chaos():
            cycle = 0
            while not stop.is_set():
                name, mode = sidecars.step()
                corrupted.add(mode)
                # Evicting the sealed entry sends the next request down
                # the miss path, past the corrupted sidecar.
                planner.memory.invalidate(digests[name])
                stop.wait(0.002)
                cycle += 1
                if cycle >= len(FILE_FAULT_MODES):
                    all_modes.set()

        def client(seed):
            rng = np.random.default_rng(seed)
            for i in range(40):
                name = names[int(rng.integers(len(names)))]
                p = FAMILIES[name]
                a = np.arange(_N, dtype=np.int64) + int(
                    rng.integers(10_000)
                )
                batch = i % 10 == 9
                payload = np.stack([a, a + 1]) if batch else a
                try:
                    out = server.submit(
                        name, payload, batch=batch, deadline_s=30.0
                    ).result(timeout=60.0)
                except ReproError as exc:
                    with lock:
                        failed.append(type(exc).__name__)
                    continue
                expected = np.empty_like(payload)
                if batch:
                    expected[:, p] = payload
                else:
                    expected[p] = payload
                if not np.array_equal(out, expected):
                    with lock:
                        wrong.append(name)

        driver = threading.Thread(target=chaos, daemon=True)
        driver.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(client, range(8)))
        # The clients can finish before the chaos thread's first
        # round of modes; let it finish that round before stopping.
        assert all_modes.wait(timeout=5.0)
        stop.set()
        driver.join(timeout=5.0)
        assert not driver.is_alive()
        stats = server.stats()
        server.close()

        assert wrong == []                       # zero wrong answers
        total = 8 * 40
        assert len(failed) <= total * 0.01, failed
        # The chaos bit (sealed entries were evicted under armed
        # faults), yet no request planned or read the poisoned cache.
        assert stats["memory_invalidations"] >= 1
        assert corrupted == set(FILE_FAULT_MODES)
        assert sidecars.skipped == 0
        assert sidecars.corruptions >= len(FILE_FAULT_MODES)
        assert stats["cold_plans"] == before["cold_plans"]
        assert stats["sealed_hits"] == before["sealed_hits"]
        assert stats["sealed_corrupt"] == before["sealed_corrupt"]
        assert stats["server.served"] >= total - len(failed)

    def test_concurrent_compiles_collapse_to_one_plan(self, tmp_path):
        server = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=4,
        )
        p = random_permutation(_N, seed=9)
        server.register("r", p)
        # No warm(): requests race the program compiles, which race
        # each other on the cold plan.
        futures = [
            server.submit("r", np.arange(_N) + i) for i in range(16)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(pool.map(
                lambda _i: server.service.compiled("default/r"),
                range(8),
            ))
        for i, fut in enumerate(futures):
            assert np.array_equal(
                fut.result(timeout=60.0),
                _expected(p, np.arange(_N) + i),
            )
        assert all(h is handles[0] for h in handles)
        assert server.service.planner.stats()["cold_plans"] == 1   # single-flight
        server.close()


class TestBookkeepingUnderContention:
    def test_every_request_counted_once(self):
        """Four workers and six clients on two cores, switching threads
        every microsecond: the SLO window, the held counters and
        histogram handles and the in-flight table lose no update and
        keep no request."""
        server = PermutationServer(
            width=_WIDTH, workers=4, queue_capacity=256,
            slo=telemetry.SLO(window_s=3600.0),
        )
        for name, p in FAMILIES.items():
            server.register(name, p)
        names = sorted(FAMILIES)
        clients, per_client = 6, 50
        wrong = []

        def client(seed):
            a = np.arange(_N, dtype=np.float64) + seed
            for i in range(per_client):
                name = names[(seed + i) % len(names)]
                out = server.submit(name, a).result(timeout=60.0)
                if not np.array_equal(out, _expected(FAMILIES[name], a)):
                    wrong.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        server.close()

        total = clients * per_client
        assert wrong == []
        stats = server.stats()
        assert stats["server.accepted"] == stats["server.served"] == total
        assert server._inflight_reqs == {}
        assert server._active_requests() == []
        slo = server.slo_monitor.status()
        assert (slo["samples"], slo["availability"]) == (total, 1.0)
        snapshot = server.metrics.snapshot()
        for metric in ("server_e2e_seconds", "server_queue_wait_seconds",
                       "exec_apply_seconds"):
            assert sum(row["count"] for row in snapshot[metric]) == total
        assert server.recorder.recorded == 2 * total   # admit + finish


class TestObservableFailures:
    def test_queue_full_rejections_observable(self):
        release = threading.Event()
        server = PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2,
        )
        p = bit_reversal(_N)
        server.register("bitrev", p)
        real_apply = server.service.apply

        def blocking(name, a):
            release.wait(30.0)
            return real_apply(name, a)

        server.service.apply = blocking
        a = np.arange(_N)
        accepted = [server.submit("bitrev", a)]   # occupies the worker
        # Wait for the worker to pick it up (and block in apply), so
        # queue depth is stable while we overflow it.
        deadline = time.time() + 10.0
        while (server.stats()["server.queue_depth"] > 0
               and time.time() < deadline):
            time.sleep(0.001)
        # Fill the queue behind the stuck worker, then overflow it.
        rejections = 0
        while True:
            try:
                accepted.append(server.submit("bitrev", a))
            except ServiceOverloadError as exc:
                assert exc.retry_after > 0
                rejections += 1
                break
        health = server.health()
        assert health["queue"]["depth"] == health["queue"]["capacity"]
        assert health["status"] == "degraded"
        assert server.stats()["server.rejected.queue_full"] == 1
        release.set()
        for fut in accepted:
            assert np.array_equal(fut.result(timeout=60.0),
                                  _expected(p, a))
        assert rejections == 1
        server.close()
