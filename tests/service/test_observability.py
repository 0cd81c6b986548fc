"""End-to-end serving observability: request contexts, connected span
trees, latency histograms, SLO breaches and flight-recorder dumps.
"""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ServiceOverloadError
from repro.service import PermutationServer
from repro.service.server import HIGH, LOW

_N = 64


@pytest.fixture
def perm():
    return np.random.default_rng(7).permutation(_N)


def _payload(seed=0):
    return np.random.default_rng(seed).random(_N).astype(np.float32)


# ---------------------------------------------------------------------------
# Trace propagation
# ---------------------------------------------------------------------------


def test_one_request_renders_as_one_connected_tree(perm):
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        with PermutationServer(width=8, workers=2) as server:
            server.register("p", perm)
            server.warm()
            server.submit("p", _payload()).result(timeout=10.0)

    roots = [s for s in tracer.spans if s.name == "serve.request"]
    assert len(roots) == 1
    root = roots[0]
    assert root.attributes["tenant"] == "default"
    assert root.attributes["outcome"] == "ok"
    assert root.attributes["engine"] is not None

    telemetry.validate_span_tree(telemetry.chrome_trace(tracer))
    by_parent = {}
    for s in tracer.spans:
        by_parent.setdefault(s.parent_id, []).append(s)
    child_names = {s.name for s in by_parent[root.span_id]}
    assert child_names == {"serve.queue_wait", "serve.attempt"}
    attempt = next(s for s in by_parent[root.span_id]
                   if s.name == "serve.attempt")
    grandchildren = {s.name for s in by_parent.get(attempt.span_id, [])}
    assert "planner.sealed" in grandchildren
    # The attempt ran on a worker thread, the root started on the
    # client thread — the tree is connected across the boundary.
    assert attempt.tid != root.tid
    # Every span of the request carries its request_id.
    rid = root.attributes["request_id"]
    for s in by_parent.get(attempt.span_id, []):
        assert s.attributes["request_id"] == rid


def test_concurrent_requests_stay_untangled(perm):
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        with PermutationServer(width=8, workers=4) as server:
            server.register("p", perm)
            server.warm()
            futures = [
                server.submit("p", _payload(i)) for i in range(24)
            ]
            for f in futures:
                f.result(timeout=10.0)

    roots = [s for s in tracer.spans if s.name == "serve.request"]
    assert len(roots) == 24
    telemetry.validate_span_tree(telemetry.chrome_trace(tracer))
    # Request ids are unique and every root resolved ok.
    rids = [r.attributes["request_id"] for r in roots]
    assert len(set(rids)) == 24
    assert all(r.attributes["outcome"] == "ok" for r in roots)


def test_every_served_request_has_its_own_attempt(perm):
    """Same-registration requests queued together are still served one
    per step, so every ``ok`` root has its own ``serve.attempt``."""
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        server = PermutationServer(width=8, workers=1)
        server._worker = lambda: None
        server.register("p", perm)
        futures = [server.submit("p", _payload(i)) for i in range(6)]
        while server._size:
            server._step()
        for f in futures:
            f.result(timeout=0)
        server.close()

    roots = [s for s in tracer.spans if s.name == "serve.request"]
    assert len(roots) == 6
    assert all(r.attributes["outcome"] == "ok" for r in roots)
    attempts = [s for s in tracer.spans if s.name == "serve.attempt"]
    assert sorted(a.parent_id for a in attempts) == \
        sorted(r.span_id for r in roots)
    telemetry.validate_span_tree(telemetry.chrome_trace(tracer))


def test_no_tracer_never_allocates_contexts(perm):
    """The disabled fast path: no tracer, no RequestContext objects."""
    assert telemetry.get_tracer() is None
    before = telemetry.RequestContext.created
    with PermutationServer(width=8, workers=1) as server:
        server.register("p", perm)
        for i in range(8):
            server.submit("p", _payload(i)).result(timeout=10.0)
    assert telemetry.RequestContext.created == before


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_request_histograms_and_planner_tiers(perm, tmp_path):
    with PermutationServer(width=8, workers=2,
                           cache_dir=tmp_path) as server:
        server.register("p", perm)
        server.warm()
        for i in range(10):
            server.submit("p", _payload(i)).result(timeout=10.0)
        snap = server.metrics.snapshot()
        stats = server.stats()

    e2e = snap["server_e2e_seconds"]
    ok_rows = [r for r in e2e if r["labels"]["outcome"] == "ok"]
    assert sum(r["count"] for r in ok_rows) == 10
    row = ok_rows[0]
    assert row["labels"]["family"] == "p"
    assert row["labels"]["tenant"] == "default"
    assert 0.0 < row["p50"] <= row["p99"] <= row["max"]

    waits = snap["server_queue_wait_seconds"]
    assert sum(r["count"] for r in waits) == 10

    # No request compiles: warm() built the sealed entry from the
    # permutation and every serve afterwards was a memory hit.
    assert "planner_compile_seconds" not in snap
    assert stats["memory_misses"] == 1
    assert stats["memory_hits"] == 10

    exec_rows = snap["exec_apply_seconds"]
    assert sum(r["count"] for r in exec_rows) >= 1
    # The measured-vs-model gauge exists for the engine that served.
    assert "exec_seconds_per_round" in snap


def test_metrics_text_is_valid_and_scrapeable(perm):
    with PermutationServer(width=8, workers=1,
                           metrics_port=0) as server:
        server.register("p", perm)
        server.submit("p", _payload()).result(timeout=10.0)
        import urllib.request

        body = urllib.request.urlopen(
            server.http.url + "/metrics", timeout=5.0
        ).read().decode()
    families = telemetry.validate_prometheus_text(body)
    assert "repro_server_e2e_seconds_count" in families
    assert "repro_slo_availability" in families
    assert "repro_server_queue_depth" in families


# ---------------------------------------------------------------------------
# SLO + flight recorder
# ---------------------------------------------------------------------------


def test_slo_breach_dumps_postmortem(perm, tmp_path):
    slo = telemetry.SLO(latency_p99_s=1e-12, min_samples=1)
    with PermutationServer(width=8, workers=1, slo=slo,
                           postmortem_dir=tmp_path) as server:
        server.register("p", perm)
        server.submit("p", _payload()).result(timeout=10.0)
        health = server.health()

    assert health["slo"]["breached"]
    assert health["status"] == "degraded"
    assert server.recorder.dumps >= 1
    [path] = [p for p in server.recorder.dump_paths
              if "slo_breach" in p.name]
    bundle = server.recorder.last_bundle
    assert bundle["reason"] == "slo_breach"
    assert {"health", "slo", "active_requests"} <= set(
        bundle["snapshots"]
    )
    kinds = {e["kind"] for e in bundle["events"]}
    assert {"admit", "finish"} <= kinds
    assert path.exists()


def test_unexpected_error_dumps_postmortem(perm):
    with PermutationServer(width=8, workers=1) as server:
        server.register("p", perm)

        def explode(*a, **k):
            raise RuntimeError("not part of the failure taxonomy")

        server.service.apply = explode
        with pytest.raises(RuntimeError):
            server.submit("p", _payload()).result(timeout=10.0)

    assert server.recorder.dumps == 1
    assert server.recorder.last_bundle["reason"] == "unexpected_error"
    assert "RuntimeError" in server.recorder.last_bundle["context"]["error"]


def test_shed_request_is_observed(perm):
    release = threading.Event()
    started = threading.Event()
    with PermutationServer(width=8, workers=1,
                           queue_capacity=1) as server:
        server.register("p", perm)
        server.warm()
        real_apply = server.service.apply

        def slow_apply(*a, **k):
            started.set()
            assert release.wait(10.0)
            return real_apply(*a, **k)

        server.service.apply = slow_apply
        blocker = server.submit("p", _payload(0))
        assert started.wait(5.0)    # worker is busy; queue is empty
        victim = server.submit("p", _payload(1), priority=LOW)
        displacer = server.submit("p", _payload(2), priority=HIGH)
        release.set()
        blocker.result(timeout=10.0)
        displacer.result(timeout=10.0)
        with pytest.raises(ServiceOverloadError):
            victim.result(timeout=10.0)
        snap = server.metrics.snapshot()

    shed_rows = [
        r for r in snap["server_e2e_seconds"]
        if r["labels"]["outcome"] == "shed"
    ]
    assert sum(r["count"] for r in shed_rows) == 1
    kinds = [e["kind"] for e in server.recorder.events()]
    assert "shed" in kinds
    status = server.slo_monitor.status()
    assert status["samples"] >= 3   # shed counts against the SLO


# ---------------------------------------------------------------------------
# stats() snapshot consistency
# ---------------------------------------------------------------------------


def test_stats_snapshot_is_consistent(perm):
    # A short switch interval makes the workers and the sampler
    # interleave often, so a count made outside the in-flight table's
    # lock section shows up as a broken equality.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _check_snapshots(perm)
    finally:
        sys.setswitchinterval(interval)


def _check_snapshots(perm):
    with PermutationServer(width=8, workers=4) as server:
        server.register("p", perm)
        server.warm()
        futures = [server.submit("p", _payload(i)) for i in range(40)]
        # Sample stats WHILE requests are in flight: the invariant
        # must hold inside every single snapshot.
        for _ in range(20):
            s = server.stats()
            resolved = (
                s.get("server.served", 0)
                + s.get("server.failed", 0)
                + s.get("server.shed", 0)
                + s.get("server.deadline_exceeded", 0)
                + s.get("server.dropped", 0)
            )
            assert s.get("server.accepted", 0) == \
                resolved + s["server.inflight"]
            assert s["server.queue_depth"] <= s["server.queue_capacity"]
            # The service is sampled after the server: its request
            # count can only be NEWER (never behind served).
            assert s["requests"] >= s.get("server.served", 0)
        for f in futures:
            f.result(timeout=10.0)
        final = server.stats()

    assert final["server.accepted"] == 40
    assert final["server.served"] == 40
    assert final["server.queue_depth"] == 0
    assert final["server.inflight"] == 0


def test_health_reports_slo_and_recorder(perm):
    with PermutationServer(width=8, workers=1) as server:
        server.register("p", perm)
        server.submit("p", _payload()).result(timeout=10.0)
        health = server.health()
    assert health["status"] == "ok"
    assert health["slo"]["availability"] == 1.0
    assert health["slo"]["burn_rate"] == 0.0
    assert health["recorder"]["events"] >= 2
    assert health["recorder"]["dumps"] == 0
