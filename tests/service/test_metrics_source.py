"""One counter store: every count a serving stack keeps lives in the
planner's MetricsRegistry, so ``stats()``, ``health()`` and
``/metrics`` are views over the same numbers.

The chaos run is single-threaded and deterministic: the workers are
stalled and the test drains the queue itself under a fake clock, so
coalescing, shedding, a failed apply and a disk fault each happen
exactly as scripted.
"""

import numpy as np

from repro.errors import ColoringError, ServiceOverloadError
from repro.permutations.named import bit_reversal, random_permutation
from repro.resilience import FaultPlan
from repro.service import PermutationServer, PermutationService
from repro.service.server import HIGH, LOW, NORMAL
from repro.telemetry import validate_prometheus_text

_N, _WIDTH = 1024, 32

#: ``server.*`` stats fields that are gauges, not event counters.
_SERVER_GAUGES = {"server.queue_depth", "server.queue_capacity",
                  "server.inflight", "server.latency_ema_s"}

#: Planner stats fields that are not counters (config or state).
_PLANNER_NON_COUNTERS = {
    "memory_entries", "memory_capacity", "memory_bytes",
    "memory_max_bytes", "disk_bytes", "disk_max_bytes", "disk_entries",
    "disk_directory",
}


def _drain(server) -> None:
    """Serve every queued request on the calling thread, exactly as a
    worker would (the test's workers are stalled)."""
    while True:
        with server._cond:
            if server._size == 0:
                return
            group = server._take_group()
        try:
            server._dispatch(group)
        finally:
            with server._cond:
                for req in group:
                    server._tenant(req.tenant).inflight -= 1


def _series(families: dict, name: str, **labels) -> float:
    (value,) = [v for lab, v in families[name]["samples"]
                if lab == labels]
    return value


def _chaos_run(tmp_path, fake_clock):
    service = PermutationService(width=_WIDTH, cache_dir=tmp_path)
    server = PermutationServer(
        service, workers=1, queue_capacity=4, max_coalesce=8,
        clock=fake_clock,
    )
    server._worker = lambda: None
    p = bit_reversal(_N)
    q = random_permutation(_N, seed=5)
    server.register("bitrev", p)
    server.register("shuffle", q)
    server.warm()
    x = np.arange(_N, dtype=np.float32)

    # Coalescing: three same-registration requests, one batched pass.
    futures = [server.submit("bitrev", x + i) for i in range(3)]
    _drain(server)
    for i, fut in enumerate(futures):
        expected = np.empty_like(x)
        expected[p] = x + i
        assert np.array_equal(fut.result(timeout=0), expected)
        assert fut.coalesced

    # Shed: a full queue of low-priority work displaced by HIGH.
    victim = server.submit("shuffle", x, priority=LOW)
    kept = [server.submit("shuffle", x, priority=NORMAL)
            for _ in range(3)]
    kept.append(server.submit("shuffle", x, priority=HIGH))
    try:
        victim.result(timeout=0)
        raise AssertionError("the LOW request should have been shed")
    except ServiceOverloadError:
        pass
    _drain(server)
    for fut in kept:
        fut.result(timeout=0)

    # Failure: one apply raises; the request fails once, unretried.
    real_apply = service.apply

    def failing(name, a):
        raise ColoringError("injected")

    service.apply = failing
    failed = server.submit("bitrev", x)
    _drain(server)
    assert isinstance(failed.exception(timeout=0), ColoringError)
    service.apply = real_apply

    # Disk fault: the compiled program's sealed sidecar is bit-flipped,
    # but no request reads the disk, so nothing is rejected.
    fp = service.compiled("default/shuffle").fingerprint
    service.planner.memory.invalidate(
        service._registration("default/shuffle").digest
    )
    FaultPlan(seed=0).corrupt_plan_file(
        service.planner.disk.sealed_path_for(fp), "bit-flip"
    )
    served = server.submit("shuffle", x)
    _drain(server)
    expected = np.empty_like(x)
    expected[q] = x
    assert np.array_equal(served.result(timeout=0), expected)
    return server


def test_chaos_counters_match_metrics_series(tmp_path, fake_clock):
    server = _chaos_run(tmp_path, fake_clock)
    try:
        stats = server.stats()
        planner_stats = server.service.planner.stats()
        health = server.health()
        families = validate_prometheus_text(server.metrics_text())
    finally:
        server.close()

    # The run exercised every path it was scripted to.
    # Two riders in the first burst, three behind the HIGH request.
    assert stats["server.coalesced"] == 5
    assert stats["server.shed"] == 1
    assert stats["server.failed"] == 1
    assert planner_stats["cold_plans"] == 1     # the explicit compile
    assert planner_stats["sealed_corrupt"] == 0

    events = {k: v for k, v in stats.items()
              if k.startswith("server.") and k not in _SERVER_GAUGES}
    assert events
    for key, value in events.items():
        event = key.removeprefix("server.")
        assert _series(families, "repro_server_events_total",
                       event=event) == value, key
    # ...and no series counts an event stats() does not list.
    exported = {lab["event"] for lab, _v in
                families["repro_server_events_total"]["samples"]}
    assert exported == {k.removeprefix("server.") for k in events}

    for key, value in planner_stats.items():
        if key in _PLANNER_NON_COUNTERS:
            continue
        assert _series(families, f"repro_planner_{key}_total") == value, key
    assert _series(families, "repro_planner_memory_bytes") == \
        planner_stats["memory_bytes"]
    assert _series(families, "repro_planner_disk_bytes") == \
        planner_stats["disk_bytes"]

    for key in ("requests", "elements_served", "reregistrations"):
        assert _series(families, f"repro_service_{key}_total") == \
            stats[key], key

    for tenant, snap in health["tenants"].items():
        assert _series(families, "repro_tenant_admitted_total",
                       tenant=tenant) == snap["admitted"], tenant
        assert _series(families, "repro_tenant_rate_limited_total",
                       tenant=tenant) == snap["rejected"], tenant
    assert _series(families, "repro_recorder_events_total") == \
        health["recorder"]["events"]
    assert _series(families, "repro_recorder_dumps_total") == \
        health["recorder"]["dumps"]


def test_every_total_series_is_a_counter(tmp_path, fake_clock):
    server = _chaos_run(tmp_path, fake_clock)
    try:
        families = validate_prometheus_text(server.metrics_text())
    finally:
        server.close()
    totals = {name: fam["type"] for name, fam in families.items()
              if name.endswith("_total")}
    for name in ("repro_planner_sealed_plans_total",
                 "repro_planner_sealed_hits_total",
                 "repro_planner_disk_evictions_total",
                 "repro_recorder_events_total",
                 "repro_recorder_dumps_total",
                 "repro_server_events_total"):
        assert name in totals, name
    assert {kind for kind in totals.values()} == {"counter"}, totals


def test_stack_shares_the_planners_registry(tmp_path):
    service = PermutationService(width=_WIDTH, cache_dir=tmp_path)
    server = PermutationServer(service, workers=1)
    try:
        planner = service.planner
        assert planner.metrics is not None
        assert service.metrics is planner.metrics
        assert server.metrics is planner.metrics
        assert server.recorder.metrics is planner.metrics
        assert planner.disk.metrics is planner.metrics
    finally:
        server.close()


def _stream_series(metrics) -> dict:
    """Sample counts of every histogram series a stream records."""
    snap = metrics.snapshot()
    counts = {}
    for name in ("exec_apply_seconds", "stream_tile_bytes",
                 "stream_resident_bytes",
                 "stream_exchange_segment_bytes"):
        for row in snap.get(name, []):
            if name == "exec_apply_seconds" and \
                    row["labels"]["mode"] != "stream":
                continue
            labels = tuple(sorted(row["labels"].items()))
            counts[(name, labels)] = row["count"]
    return counts


def test_server_stream_counts_like_a_direct_service_stream(tmp_path):
    p = bit_reversal(_N)
    src = tmp_path / "in.npy"
    a = np.arange(_N, dtype=np.float64) * 0.5
    np.save(src, a)
    expected = np.empty_like(a)
    expected[p] = a
    kwargs = dict(d=4, max_resident_bytes=16 * 1024, tmp_dir=tmp_path)

    server = PermutationServer(width=_WIDTH, workers=2)
    try:
        server.register("bitrev", p)
        engine = server.service._registration("default/bitrev").engine
        before = server.stats()
        server.apply_stream("bitrev", src, tmp_path / "server.npy",
                            **kwargs)
        after = server.stats()
        served = _stream_series(server.metrics)
    finally:
        server.close()
    assert after["server.accepted"] == after["server.served"] == 1
    assert after["server.inflight"] == 0
    assert after["requests"] - before["requests"] == 1
    assert after["elements_served"] - before["elements_served"] == _N
    apply_key = ("exec_apply_seconds",
                 (("engine", engine), ("mode", "stream")))
    assert served[apply_key] == 1
    tiles = {labels: count for (name, labels), count in served.items()
             if name == "stream_tile_bytes"}
    assert set(tiles) == {(("phase", "pre"),), (("phase", "post"),)}
    assert all(count > 0 for count in tiles.values())

    service = PermutationService(width=_WIDTH)
    service.register("default/bitrev", p)
    before = service.stats()
    service.apply_stream("default/bitrev", src,
                         tmp_path / "service.npy", **kwargs)
    after = service.stats()
    assert after["requests"] - before["requests"] == 1
    assert after["elements_served"] - before["elements_served"] == _N
    assert _stream_series(service.metrics) == served

    for run in ("server", "service"):
        assert np.array_equal(np.load(tmp_path / f"{run}.npy"), expected)
