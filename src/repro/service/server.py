"""The concurrent serving core.

:class:`PermutationServer` turns the synchronous
:class:`~repro.service.PermutationService` into a server: callers
*submit* requests and worker threads serve them, with every production
concern the bare facade lacks:

* **bounded queue + admission control** — a fixed-capacity priority
  queue; when it is full an incoming request either displaces a
  strictly lower-priority queued one (which is *shed* — its caller
  gets :class:`~repro.errors.ServiceOverloadError` with a retry-after
  hint) or is rejected the same way.  The server never buffers
  unbounded work.
* **deadlines** — each request may carry a deadline, enforced at
  admission and at dequeue, so expired work never occupies a worker.
* **one attempt per group** — a request is answered from the
  registration's own permutation
  (:meth:`~repro.planner.Planner.sealed`), so serving never colours,
  lowers, runs the pass pipeline or touches the disk.  There is no
  planning fault to retry and no engine to degrade to: every engine
  would compute the same gather.
* **per-tenant namespaces and quotas** — registrations live under
  ``tenant/name`` keys; each tenant is metered by a
  :class:`~repro.service.quotas.TenantQuota` (requests/sec token
  bucket, in-flight bulkhead, resident-plan bulkhead).
* **request coalescing** — concurrent single-payload requests for the
  same registration are drained from the queue together and served by
  one batched ``apply_batch`` pass over the shared gather.

Everything is observable from one store: every count lives in the
planner's :class:`~repro.telemetry.MetricsRegistry`, which the server
shares; :meth:`PermutationServer.stats` and ``/metrics`` are views
over it, :meth:`PermutationServer.health` adds queue/tenant/SLO
snapshots, and an active tracer records each request's span tree.
See ``docs/serving.md``.

::

    from repro.service import PermutationServer

    with PermutationServer(width=32, workers=4) as server:
        server.register("shuffle", p)
        result = server.submit("shuffle", a, deadline_s=0.5)
        out = result.result()        # or .result(timeout=...)
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadError,
    ServingError,
    ValidationError,
)
from repro.service import PermutationService
from repro.service.quotas import (
    UNLIMITED_QUOTA,
    TenantQuota,
    TenantState,
)

__all__ = [
    "HIGH",
    "LOW",
    "NORMAL",
    "PermutationServer",
    "ServeResult",
]

#: Request priorities: lower value is more important.
HIGH, NORMAL, LOW = 0, 1, 2
_PRIORITIES = (HIGH, NORMAL, LOW)

#: Fallback retry-after hint when the server has no latency sample yet.
_DEFAULT_LATENCY_S = 0.005


class ServeResult:
    """A future for one submitted request.

    ``result()`` blocks until the request is served, then returns the
    permuted payload or raises the failure.  After completion the
    handle also carries how the request was served: ``engine`` (the
    registered engine), ``attempts`` (always 1 once served),
    ``coalesced`` (whether it shared a batched apply), and ``wait_s`` /
    ``service_s`` timings.
    """

    def __init__(self, name: str, tenant: str, priority: int) -> None:
        self.name = name
        self.tenant = tenant
        self.priority = priority
        self.engine: str | None = None
        self.attempts = 0
        self.coalesced = False
        self.wait_s = 0.0
        self.service_s = 0.0
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"request {self.name!r} not finished within "
                f"{timeout} s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        self._event.wait(timeout)
        return self._error

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Request:
    """One queue entry (internal).

    ``rid`` is the process-unique request id (always assigned);
    ``ctx`` / ``qspan`` carry the request's
    :class:`~repro.telemetry.RequestContext` and detached queue-wait
    span, and stay ``None`` when no tracer is active — the disabled
    fast path allocates neither.  Out-of-core stream *stripes* are
    queue entries too: they carry their shared :class:`_StreamJob` in
    ``stream`` plus their ``phase``/``stripe`` assignment, and an
    empty payload.
    """

    __slots__ = ("key", "payload", "batch", "priority", "deadline",
                 "enqueued", "tenant", "result", "rid", "ctx", "qspan",
                 "stream", "phase", "stripe")

    def __init__(self, key: str, payload: np.ndarray, batch: bool,
                 priority: int, deadline: float | None,
                 enqueued: float, tenant: str, result: "ServeResult",
                 rid: int = 0, ctx: Any = None,
                 qspan: Any = None, stream: "Any | None" = None,
                 phase: str = "", stripe: int = -1) -> None:
        self.key = key
        self.payload = payload
        self.batch = batch
        self.priority = priority
        self.deadline = deadline
        self.enqueued = enqueued
        self.tenant = tenant
        self.result = result
        self.rid = rid
        self.ctx = ctx
        self.qspan = qspan
        self.stream = stream
        self.phase = phase
        self.stripe = stripe


class _StreamJob:
    """Shared state of one out-of-core stream request.

    ``submit_stream`` enqueues ``2 d`` stripe requests (``d`` pre
    stripes, then ``d`` post stripes) that all point here.  The first
    stripe a worker picks up shards the registration's sealed gather
    and prepares the streaming job; later stripes reuse it.  FIFO
    order within a priority bucket guarantees every pre stripe is
    running or done before any worker blocks on a post stripe, so the
    phase barrier inside
    :class:`~repro.exec.StreamingJob` cannot deadlock.  The caller's
    future resolves with the :class:`~repro.exec.StreamingStats` when
    the last stripe finishes, or fails once on the first error, shed,
    or server shutdown.
    """

    def __init__(
        self,
        key: str,
        path_in: Path,
        path_out: Path,
        d: int,
        max_resident_bytes: int | None,
        tmp_dir: Any,
        result: "ServeResult",
    ) -> None:
        self.key = key
        self.path_in = path_in
        self.path_out = path_out
        self.d = int(d)
        self.max_resident_bytes = max_resident_bytes
        self.tmp_dir = tmp_dir
        self.user_result = result
        self.total_stripes = 2 * self.d
        self.engine_name: str | None = None
        self.cancelled = False
        self._completed = 0
        self._lock = threading.Lock()
        self._prepared: Any = None

    def ensure_prepared(self, server: "PermutationServer") -> Any:
        """Shard + open the streaming job (exactly once)."""
        with self._lock:
            if self.cancelled:
                raise ServingError(
                    f"stream for {self.key!r} was cancelled"
                )
            if self._prepared is not None:
                return self._prepared
            from repro.exec.streaming import (
                DEFAULT_RESIDENT_BYTES,
                StreamingExecutor,
            )

            self.engine_name = server.service._registration(
                self.key
            ).engine
            executor = StreamingExecutor(
                max_resident_bytes=self.max_resident_bytes
                or DEFAULT_RESIDENT_BYTES,
                metrics=server.metrics,
            )
            self._prepared = executor.prepare(
                server.service._sharded(self.key, self.d),
                self.path_in,
                self.path_out,
                tmp_dir=self.tmp_dir,
                concurrency=min(server.workers, self.d),
            )
            return self._prepared

    def stripe_finished(self) -> bool:
        """Count one finished stripe; True when it was the last."""
        with self._lock:
            self._completed += 1
            return self._completed == self.total_stripes

    def finalize(self) -> Any:
        return self._prepared.finalize()

    def fail(self, error: BaseException) -> None:
        """Fail the caller's future once and release any waiters."""
        with self._lock:
            if self.cancelled:
                return
            self.cancelled = True
            prepared = self._prepared
        self.user_result._fail(error)
        if prepared is not None:
            prepared.abort(str(error))

    def cancel(self, reason: str) -> None:
        self.fail(ServingError(reason))


class PermutationServer:
    """Concurrent front door over a service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.PermutationService` to serve from
        (one is built from ``width`` / ``cache_dir`` when omitted;
        ``cache_dir`` holds only what :meth:`PermutationService.
        compiled` writes — no request reads it).
    workers:
        Worker threads draining the queue.
    queue_capacity:
        Bound on queued requests; beyond it admission control sheds or
        rejects.
    default_deadline_s:
        Deadline applied to requests that do not carry their own
        (``None``: no deadline).
    coalesce / max_coalesce:
        Batch concurrent same-registration requests into one
        ``apply_batch`` (up to ``max_coalesce`` payloads per pass).
    quotas:
        ``{tenant: TenantQuota}``; tenants not listed get
        ``default_quota`` (unlimited unless specified).
    self_check:
        Verify every served output against the definitional scatter
        before delivering it (one extra O(n) pass per request).
    slo:
        The :class:`~repro.telemetry.SLO` objectives the built-in
        :class:`~repro.telemetry.SLOMonitor` enforces (defaults are
        permissive: 99 % availability, 250 ms p99).
    recorder / postmortem_dir:
        The :class:`~repro.telemetry.FlightRecorder` capturing recent
        request events (one counting into :attr:`metrics` is created
        when omitted, dumping bundles to ``postmortem_dir`` if given).
        The server dumps on SLO breach, shed bursts, and unexpected
        (non-repro) errors.
    metrics_port:
        When not ``None``, :meth:`start` additionally serves
        ``GET /metrics`` (Prometheus text) and ``GET /health`` on
        ``127.0.0.1:<metrics_port>`` (``0`` picks an ephemeral port,
        see ``server.http.port``).
    clock:
        Injectable monotonic clock for deterministic tests.

    The server records latency histograms and counts into its
    planner's registry (:attr:`metrics`), so one registry exposes the
    whole stack.
    """

    def __init__(
        self,
        service: PermutationService | None = None,
        *,
        width: int = 32,
        cache_dir: Any = None,
        workers: int = 2,
        queue_capacity: int = 64,
        default_deadline_s: float | None = None,
        coalesce: bool = True,
        max_coalesce: int = 16,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota = UNLIMITED_QUOTA,
        self_check: bool = False,
        slo: Any = None,
        recorder: Any = None,
        postmortem_dir: Any = None,
        metrics_port: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_coalesce < 1:
            raise ValidationError(
                f"max_coalesce must be >= 1, got {max_coalesce}"
            )
        self.service = service or PermutationService(
            width=width, cache_dir=cache_dir
        )
        self.workers = int(workers)
        self.queue_capacity = int(queue_capacity)
        self.default_deadline_s = default_deadline_s
        self.coalesce = bool(coalesce)
        self.max_coalesce = int(max_coalesce)
        self.self_check = bool(self_check)
        self._clock = clock
        self._quotas = dict(quotas or {})
        self._default_quota = default_quota
        self._tenants: dict[str, TenantState] = {}
        self._buckets: dict[int, deque[_Request]] = {
            prio: deque() for prio in _PRIORITIES
        }
        self._size = 0
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        # ``server_events_total`` handles by event, created on first
        # count so ``stats()`` lists only events that happened.
        self._events: dict[str, telemetry.Counter] = {}
        self._latency_ema = _DEFAULT_LATENCY_S
        self._stopping = False
        self._started = False
        self._threads: list[threading.Thread] = []
        #: Cross-request observability: labeled instruments, rolling
        #: SLO compliance, and the failure flight recorder.
        planner = self.service.planner
        self.metrics = planner.metrics
        self.slo_monitor = telemetry.SLOMonitor(
            slo or telemetry.SLO(), clock=clock
        )
        self.recorder = recorder or telemetry.FlightRecorder(
            dump_dir=postmortem_dir, clock=clock, metrics=self.metrics
        )
        self.recorder.add_provider("health", self.health)
        self.recorder.add_provider("slo", self.slo_monitor.status)
        self.recorder.add_provider(
            "active_requests", self._active_requests
        )
        self._metrics_port = metrics_port
        self.http = None
        self._rid = itertools.count(1)
        # Shed timestamps for burst detection: a full window inside
        # one second triggers a flight-recorder dump.
        self._recent_sheds: deque[float] = deque(maxlen=8)
        # In-flight requests by rid (admitted, not yet resolved) —
        # snapshotted into post-mortem bundles.
        self._inflight_reqs: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PermutationServer":
        """Spawn the worker threads (idempotent)."""
        with self._cond:
            if self._started:
                return self
            if self._stopping:
                raise ServingError("server is closed")
            self._started = True
            for i in range(self.workers):
                t = threading.Thread(
                    target=self._worker,
                    name=f"permserve-worker-{i}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()
        if self._metrics_port is not None and self.http is None:
            self.http = telemetry.MetricsHTTPServer(
                self.metrics_text,
                health_fn=self.health,
                port=self._metrics_port,
            ).start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the workers down.

        With ``drain=True`` (default) queued requests are served
        first; otherwise they fail with
        :class:`~repro.errors.ServingError`.
        """
        dropped: list[_Request] = []
        with self._cond:
            self._stopping = True
            if not drain:
                for bucket in self._buckets.values():
                    while bucket:
                        req = bucket.popleft()
                        self._size -= 1
                        self._tenant(req.tenant).inflight -= 1
                        req.result._fail(
                            ServingError("server closed before the "
                                         "request was served")
                        )
                        dropped.append(req)
            self._cond.notify_all()
        for req in dropped:
            # Outside the queue lock: finishing a request can trigger
            # a flight-recorder dump whose providers re-take it.
            if req.stream is not None:
                req.stream.cancel(
                    "server closed before the stream was served"
                )
            if req.qspan is not None:
                telemetry.end_span(req.qspan, outcome="dropped")
            self._finish_request(req, "dropped", ok=False)
        for t in self._threads:
            t.join(timeout=30.0)
        self._threads.clear()
        if self.http is not None:
            self.http.close()
            self.http = None

    def __enter__(self) -> "PermutationServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration (tenant namespaces)
    # ------------------------------------------------------------------

    @staticmethod
    def _key(tenant: str, name: str) -> str:
        return f"{tenant}/{name}"

    def _tenant(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            quota = self._quotas.get(tenant, self._default_quota)
            state = TenantState(quota, clock=self._clock, tenant=tenant,
                                metrics=self.metrics)
            self._tenants[tenant] = state
        return state

    def register(
        self,
        name: str,
        p: np.ndarray,
        engine: str | None = None,
        tenant: str = "default",
        overwrite: bool = False,
    ) -> str:
        """Register ``p`` in the tenant's namespace; returns the plan
        fingerprint.  Enforces the tenant's resident-plan bulkhead."""
        key = self._key(tenant, name)
        with self._cond:
            state = self._tenant(tenant)
            if not state.plan_slot_available(key):
                self._count("rejected.plan_quota")
                raise QuotaExceededError(
                    f"tenant {tenant!r} is at its resident-plan "
                    f"quota ({state.quota.max_plans}); unregister a "
                    "permutation first"
                )
        fp = self.service.register(
            key, p, engine=engine, overwrite=overwrite
        )
        with self._cond:
            self._tenant(tenant).plans.add(key)
        return fp

    def unregister(self, name: str, tenant: str = "default") -> bool:
        """Drop a registration and free its slot in the tenant's
        resident-plan quota; returns whether it existed."""
        key = self._key(tenant, name)
        existed = self.service.unregister(key)
        with self._cond:
            self._tenant(tenant).plans.discard(key)
        return existed

    def warm(self, tenant: str | None = None) -> int:
        """Build the sealed entry of every registration (of one
        tenant, or all)."""
        names = self.service.names()
        if tenant is not None:
            prefix = f"{tenant}/"
            names = [n for n in names if n.startswith(prefix)]
        return self.service.warm(names)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        # Under the stats lock, so one ``stats()`` snapshot sees every
        # event counter at the same instant.
        with self._stats_lock:
            counter = self._events.get(name)
            if counter is None:
                counter = self._events[name] = self.metrics.counter(
                    "server_events_total", event=name
                )
            counter.inc(n)

    def _active_requests(self) -> list[dict]:
        """Flight-recorder snapshot of every in-flight request."""
        now = self._clock()
        with self._stats_lock:
            rows = [dict(info) for info in self._inflight_reqs.values()]
        for row in rows:
            row["age_s"] = now - row.pop("enqueued")
        return sorted(rows, key=lambda r: r["rid"])

    def _track(self, request: _Request) -> None:
        info = {
            "rid": request.rid,
            "key": request.key,
            "tenant": request.tenant,
            "priority": request.priority,
            "enqueued": request.enqueued,
        }
        span_id = getattr(request.ctx.span, "span_id", None) \
            if request.ctx is not None else None
        if span_id is not None:
            info["span_id"] = span_id
        with self._stats_lock:
            self._inflight_reqs[request.rid] = info

    def _finish_request(
        self,
        request: _Request,
        outcome: str,
        ok: bool,
        engine: str | None = None,
    ) -> None:
        """Observability epilogue for one resolved request.

        Records the end-to-end latency histogram (labeled by family,
        tenant, engine and outcome), feeds the SLO monitor (dumping a
        post-mortem on the breach transition), logs a flight-recorder
        event, ends the request's root span, and drops it from the
        in-flight table.  Must be called exactly once per admitted
        request, after its future resolves.
        """
        e2e = self._clock() - request.enqueued
        family = request.key.rsplit("/", 1)[-1]
        self.metrics.histogram(
            "server_e2e_seconds",
            family=family,
            tenant=request.tenant,
            engine=engine or "none",
            outcome=outcome,
        ).observe(e2e)
        self.recorder.record(
            "finish", rid=request.rid, outcome=outcome,
            engine=engine, e2e_s=round(e2e, 6),
        )
        if request.ctx is not None:
            telemetry.end_span(
                request.ctx.span, outcome=outcome,
                engine=engine, e2e_s=e2e,
            )
        with self._stats_lock:
            self._inflight_reqs.pop(request.rid, None)
        if self.slo_monitor.record(ok, e2e):
            self.recorder.dump(
                "slo_breach", rid=request.rid, outcome=outcome
            )

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``/metrics`` (the scrape-time
        gauges — queue depth, SLO compliance — are refreshed here;
        every count is already live in the registry)."""
        with self._cond:
            depth = self._size
        gauges = self.metrics.gauge
        gauges("server_queue_depth").set(depth)
        gauges("server_queue_capacity").set(self.queue_capacity)
        status = self.slo_monitor.status()
        gauges("slo_availability").set(status["availability"])
        gauges("slo_latency_p99_seconds").set(status["p99_s"])
        gauges("slo_burn_rate").set(min(status["burn_rate"], 1e9))
        gauges("slo_breached").set(1.0 if status["breached"] else 0.0)
        return self.metrics.prometheus_text()

    def _retry_after(self) -> float:
        ema = self._latency_ema or _DEFAULT_LATENCY_S
        return ema * (1 + self._size / max(1, self.workers))

    def _shed_for(self, priority: int) -> _Request | None:
        """The queued request to displace for an incoming ``priority``
        request: the newest entry of the lowest-priority non-empty
        bucket, and only if strictly less important."""
        for prio in reversed(_PRIORITIES):
            if prio <= priority:
                return None
            if self._buckets[prio]:
                return self._buckets[prio].pop()
        return None

    def submit(
        self,
        name: str,
        a: np.ndarray,
        *,
        tenant: str = "default",
        priority: int = NORMAL,
        deadline_s: float | None = None,
        batch: bool = False,
    ) -> ServeResult:
        """Enqueue one request; returns a :class:`ServeResult` future.

        Raises synchronously when the request cannot be admitted:
        :class:`~repro.errors.QuotaExceededError` (tenant over rate or
        bulkhead), :class:`~repro.errors.ServiceOverloadError` (queue
        full, nothing shed-able) — both carry ``retry_after`` — or
        :class:`~repro.errors.ValidationError` (unknown name, payload
        shape mismatch).
        """
        if priority not in _PRIORITIES:
            raise ValidationError(
                f"priority must be one of {_PRIORITIES}, got {priority}"
            )
        key = self._key(tenant, name)
        reg = self.service._registration(key)
        payload = np.asarray(a)
        n = int(reg.p.shape[0])
        if batch:
            if payload.ndim != 2 or payload.shape[1] != n:
                raise ValidationError(
                    f"batch payload must have shape (k, {n}), got "
                    f"{payload.shape}"
                )
        elif payload.shape != (n,):
            raise ValidationError(
                f"payload must have shape ({n},), got {payload.shape}"
            )
        self.start()
        now = self._clock()
        limit = deadline_s if deadline_s is not None \
            else self.default_deadline_s
        deadline = now + limit if limit is not None else None
        result = ServeResult(name=name, tenant=tenant, priority=priority)
        rid = next(self._rid)
        ctx = qspan = None
        if telemetry.get_tracer() is not None:
            # Only an active tracer pays for a context + root span;
            # the disabled fast path allocates neither.
            ctx = telemetry.RequestContext(
                rid, tenant=tenant, name=name, priority=priority,
                deadline=deadline,
            )
            ctx.span = telemetry.begin_span(
                "serve.request", request_id=rid, tenant=tenant,
                registration=name, priority=priority,
            )
            qspan = telemetry.begin_span(
                "serve.queue_wait", parent=ctx.span, request_id=rid
            )
        request = _Request(
            key=key, payload=payload, batch=batch, priority=priority,
            deadline=deadline, enqueued=now, tenant=tenant,
            result=result, rid=rid, ctx=ctx, qspan=qspan,
        )
        victim: _Request | None = None
        shed_burst = False
        try:
            with self._cond:
                if self._stopping:
                    raise ServingError("server is closed")
                state = self._tenant(tenant)
                wait = state.try_acquire()
                if wait > 0:
                    self._count("rejected.rate")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} exceeded "
                        f"{state.quota.rps} requests/sec",
                        retry_after=wait,
                    )
                if not state.inflight_available():
                    self._count("rejected.bulkhead")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} is at its in-flight "
                        f"bulkhead ({state.quota.max_inflight})",
                        retry_after=self._retry_after(),
                    )
                if self._size >= self.queue_capacity:
                    victim = self._shed_for(priority)
                    if victim is None:
                        self._count("rejected.queue_full")
                        raise ServiceOverloadError(
                            f"request queue is full "
                            f"({self.queue_capacity} deep)",
                            retry_after=self._retry_after(),
                        )
                    self._size -= 1
                    self._tenant(victim.tenant).inflight -= 1
                    self._count("shed")
                    self._recent_sheds.append(self._clock())
                    shed_burst = (
                        len(self._recent_sheds)
                        == self._recent_sheds.maxlen
                        and (self._recent_sheds[-1]
                             - self._recent_sheds[0]) <= 1.0
                    )
                    victim.result._fail(ServiceOverloadError(
                        "shed from the queue by a higher-priority "
                        "request",
                        retry_after=self._retry_after(),
                    ))
                self._buckets[priority].append(request)
                self._size += 1
                state.inflight += 1
                self._count("accepted")
                self._cond.notify()
        except (QuotaExceededError, ServiceOverloadError,
                ServingError) as exc:
            self.recorder.record(
                "reject", rid=rid, key=key, tenant=tenant,
                reason=type(exc).__name__,
            )
            if ctx is not None:
                telemetry.end_span(qspan, outcome="rejected")
                telemetry.end_span(
                    ctx.span, outcome="rejected",
                    reason=type(exc).__name__,
                )
            raise
        self._track(request)
        self.recorder.record(
            "admit", rid=rid, key=key, tenant=tenant,
            priority=priority,
        )
        if victim is not None:
            if victim.stream is not None:
                # Shedding one stripe strands the rest of its plan:
                # fail the whole stream (its queued siblings then
                # drain as no-ops).
                victim.stream.cancel(
                    "a stripe of this stream was shed from the queue "
                    "by a higher-priority request"
                )
            if victim.qspan is not None:
                telemetry.end_span(victim.qspan, outcome="shed")
            self.recorder.record(
                "shed", rid=victim.rid, by=rid, key=victim.key
            )
            self._finish_request(victim, "shed", ok=False)
            if shed_burst:
                self.recorder.dump(
                    "shed_burst",
                    window_s=round(self._recent_sheds[-1]
                                   - self._recent_sheds[0], 3),
                    sheds=len(self._recent_sheds),
                )
        return result

    def submit_stream(
        self,
        name: str,
        path_in: str | Path,
        path_out: str | Path,
        *,
        d: int = 8,
        tenant: str = "default",
        priority: int = NORMAL,
        deadline_s: float | None = None,
        max_resident_bytes: int | None = None,
        tmp_dir: str | Path | None = None,
    ) -> ServeResult:
        """Enqueue an out-of-core stream as ``2 d`` stripe tasks.

        The on-disk ``.npy`` payload at ``path_in`` is permuted into
        ``path_out`` through the registration's proven ``d``-stripe
        sharding, under the streaming executor's resident-bytes
        budget.  The stream is admitted once (one rate token, one
        bulkhead check) but occupies ``2 d`` queue slots and in-flight
        counts: ``d`` pre stripes followed by ``d`` post stripes, all
        in the same priority bucket, so any number of workers can pull
        stripes concurrently — FIFO order within the bucket guarantees
        every pre stripe is running or done before a worker blocks on
        a post stripe, which makes the phase barrier deadlock-free.

        The returned future resolves with the
        :class:`~repro.exec.StreamingStats` when the last stripe
        finishes.  Any stripe failure, shed, or server shutdown fails
        the whole stream once and aborts the in-flight stripes.
        """
        if priority not in _PRIORITIES:
            raise ValidationError(
                f"priority must be one of {_PRIORITIES}, got {priority}"
            )
        if d < 1:
            raise ValidationError(
                f"shard count d must be >= 1, got {d}"
            )
        key = self._key(tenant, name)
        self.service._registration(key)
        src = Path(path_in)
        if not src.exists():
            raise ValidationError(
                f"input payload {str(src)!r} does not exist"
            )
        self.start()
        now = self._clock()
        limit = deadline_s if deadline_s is not None \
            else self.default_deadline_s
        deadline = now + limit if limit is not None else None
        result = ServeResult(name=name, tenant=tenant,
                             priority=priority)
        job = _StreamJob(
            key=key, path_in=src, path_out=Path(path_out), d=d,
            max_resident_bytes=max_resident_bytes, tmp_dir=tmp_dir,
            result=result,
        )
        requests = [
            _Request(
                key=key, payload=np.empty(0), batch=False,
                priority=priority, deadline=deadline, enqueued=now,
                tenant=tenant,
                result=ServeResult(name=name, tenant=tenant,
                                   priority=priority),
                rid=next(self._rid), stream=job, phase=phase,
                stripe=k,
            )
            for phase in ("pre", "post")
            for k in range(d)
        ]
        try:
            with self._cond:
                if self._stopping:
                    raise ServingError("server is closed")
                state = self._tenant(tenant)
                wait = state.try_acquire()
                if wait > 0:
                    self._count("rejected.rate")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} exceeded "
                        f"{state.quota.rps} requests/sec",
                        retry_after=wait,
                    )
                if not state.inflight_available():
                    self._count("rejected.bulkhead")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} is at its in-flight "
                        f"bulkhead ({state.quota.max_inflight})",
                        retry_after=self._retry_after(),
                    )
                if self._size + len(requests) > self.queue_capacity:
                    # A stream is all-or-nothing: admitting a partial
                    # stripe set (or shedding on its behalf) could
                    # strand the phase barrier, so it simply waits for
                    # room instead of displacing queued work.
                    self._count("rejected.queue_full")
                    raise ServiceOverloadError(
                        f"queue cannot hold {len(requests)} stripe "
                        f"tasks ({self.queue_capacity - self._size} "
                        "slots free)",
                        retry_after=self._retry_after(),
                    )
                self._buckets[priority].extend(requests)
                self._size += len(requests)
                state.inflight += len(requests)
                self._count("accepted")
                self._count("stream.accepted")
                self._cond.notify_all()
        except (QuotaExceededError, ServiceOverloadError,
                ServingError) as exc:
            self.recorder.record(
                "reject", rid=requests[0].rid, key=key, tenant=tenant,
                reason=type(exc).__name__,
            )
            raise
        for req in requests:
            self._track(req)
        self.recorder.record(
            "admit_stream", rid=requests[0].rid, key=key,
            tenant=tenant, d=d, stripes=len(requests),
        )
        return result

    def apply(self, name: str, a: np.ndarray, **kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(name, a, **kwargs).result()

    def apply_batch(
        self, name: str, batch: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Synchronous convenience for a stacked ``(k, n)`` payload."""
        return self.submit(name, batch, batch=True, **kwargs).result()

    def apply_stream(
        self, name: str, path_in: str | Path, path_out: str | Path,
        **kwargs: Any,
    ) -> Any:
        """Synchronous convenience: ``submit_stream(...).result()``."""
        return self.submit_stream(name, path_in, path_out,
                                  **kwargs).result()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while self._size == 0 and not self._stopping:
                    self._cond.wait()
                if self._size == 0 and self._stopping:
                    return
                group = self._take_group()
            try:
                self._dispatch(group)
            finally:
                with self._cond:
                    for req in group:
                        self._tenant(req.tenant).inflight -= 1

    def _take_group(self) -> list[_Request]:
        """Pop the most important request and (when coalescing) every
        compatible same-registration single request behind it.  Caller
        holds the lock."""
        first: _Request | None = None
        for prio in _PRIORITIES:
            if self._buckets[prio]:
                first = self._buckets[prio].popleft()
                break
        assert first is not None
        self._size -= 1
        group = [first]
        if not self.coalesce or first.batch or first.stream is not None:
            # Stream stripes never coalesce: each is one unit of an
            # ordered plan, not an independent same-shape payload.
            return group
        shape, dtype = first.payload.shape, first.payload.dtype
        for prio in _PRIORITIES:
            bucket = self._buckets[prio]
            keep: deque[_Request] = deque()
            while bucket and len(group) < self.max_coalesce:
                req = bucket.popleft()
                if (
                    not req.batch
                    and req.stream is None
                    and req.key == first.key
                    and req.payload.shape == shape
                    and req.payload.dtype == dtype
                ):
                    group.append(req)
                    self._size -= 1
                else:
                    keep.append(req)
            keep.extend(bucket)
            bucket.clear()
            bucket.extend(keep)
            if len(group) >= self.max_coalesce:
                break
        return group

    def _dispatch(self, group: list[_Request]) -> None:
        """Serve one dequeued group end to end."""
        now = self._clock()
        live: list[_Request] = []
        for req in group:
            wait = now - req.enqueued
            if req.qspan is not None:
                telemetry.end_span(req.qspan, wait_s=wait)
            self.metrics.histogram(
                "server_queue_wait_seconds",
                priority=str(req.priority),
            ).observe(wait)
            if req.deadline is not None and now >= req.deadline:
                self._count("deadline_exceeded")
                error = DeadlineExceededError(
                    f"deadline expired after "
                    f"{wait:.3f} s in the queue"
                )
                req.result._fail(error)
                if req.stream is not None:
                    # One expired stripe fails the whole stream.
                    req.stream.fail(error)
                self._finish_request(
                    req, "deadline_exceeded", ok=False
                )
            else:
                req.result.wait_s = wait
                live.append(req)
        if not live:
            return
        # Adopt the group leader's request context on this worker
        # thread: spans opened while serving nest under its root, so
        # the whole serve renders as one connected tree.  Riders keep
        # their own root spans and are linked by attribute.
        leader = live[0]
        t0 = self._clock()
        serve = (
            self._serve_stream if leader.stream is not None
            else self._serve
        )
        try:
            if leader.ctx is not None:
                with telemetry.request_scope(leader.ctx):
                    serve(live)
            else:
                serve(live)
        except Exception as exc:
            # Catch everything: an escaped exception would kill the
            # worker thread and leave every queued future unresolved.
            self._count("failed")
            engine = leader.result.engine
            for req in live:
                req.result._fail(exc)
                self._finish_request(
                    req, type(exc).__name__, ok=False, engine=engine
                )
            if not isinstance(exc, ReproError):
                # Anything outside the library's failure taxonomy is
                # a bug, not an operational condition: freeze the ring.
                self.recorder.dump(
                    "unexpected_error", rid=leader.rid,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return
        elapsed = self._clock() - t0
        with self._stats_lock:
            self._latency_ema = (
                0.9 * self._latency_ema + 0.1 * elapsed
            )
        engine = leader.result.engine
        for req in live:
            req.result.service_s = elapsed
            self._finish_request(req, "ok", ok=True, engine=engine)
        self._count("served", len(live))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _serve(self, group: list[_Request]) -> None:
        """Serve ``group`` (same registration) in one apply pass and
        resolve every future; a failure fails the whole group."""
        key = group[0].key
        engine = self.service._registration(key).engine
        with telemetry.span(
            "serve.attempt",
            engine=engine,
            riders=[r.rid for r in group[1:]],
        ):
            out = self._apply_group(key, group)
        self._deliver(group, out, engine)

    def _serve_stream(self, group: list[_Request]) -> None:
        """Serve one dequeued stream stripe (groups are singletons).

        The first stripe of a job shards and prepares it; every stripe
        then runs its
        assigned ``(phase, k)`` slice of the plan.  The last finisher
        finalizes the job and resolves the caller's future with the
        :class:`~repro.exec.StreamingStats`.  Failures fail the shared
        future exactly once and abort the job, so sibling stripes
        (queued or in flight) drain as no-ops.
        """
        req = group[0]
        job = req.stream
        assert job is not None
        if job.cancelled:
            # The job already failed (another stripe, a shed, or
            # shutdown); drain this stripe so the worker frees up.
            req.result._resolve(np.empty(0))
            self._count("stream.stripe_drained")
            return
        try:
            with telemetry.span(
                "serve.stripe", phase=req.phase, stripe=req.stripe
            ):
                prepared = job.ensure_prepared(self)
                timeout = None
                if req.deadline is not None:
                    timeout = max(0.0,
                                  req.deadline - self._clock())
                prepared.run_stripe(req.phase, req.stripe,
                                    timeout=timeout)
        except Exception as exc:
            job.fail(exc)
            raise
        req.result.engine = job.engine_name
        req.result._resolve(np.empty(0))
        if job.stripe_finished():
            stats = job.finalize()
            job.user_result.engine = job.engine_name
            job.user_result.service_s = stats.seconds
            job.user_result._resolve(stats)
            self._count("stream.completed")

    def _apply_group(
        self, key: str, group: list[_Request]
    ) -> np.ndarray:
        """One apply pass for the whole group."""
        if len(group) == 1 and not group[0].batch:
            return self.service.apply(key, group[0].payload)
        if len(group) == 1:
            return self.service.apply_batch(key, group[0].payload)
        stacked = np.stack([req.payload for req in group])
        self._count("coalesced", len(group) - 1)
        return self.service.apply_batch(key, stacked)

    def _deliver(
        self, group: list[_Request], out: np.ndarray, engine: str
    ) -> None:
        if self.self_check:
            p = self.service._registration(group[0].key).p
            payloads = (
                out if len(group) > 1 else [np.asarray(out)]
            )
            for req, row in zip(group, payloads):
                expected = np.empty_like(np.asarray(req.payload))
                if req.batch:
                    expected[:, p] = req.payload
                else:
                    expected[p] = req.payload
                if not np.array_equal(row, expected):
                    self._count("self_check_failed")
                    raise ServingError(
                        f"engine {engine!r} produced a wrong answer "
                        "(caught by the server self-check)"
                    )
        coalesced = len(group) > 1
        for i, req in enumerate(group):
            req.result.engine = engine
            req.result.attempts = 1
            req.result.coalesced = coalesced
            req.result._resolve(out[i] if coalesced else out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Server counters merged with the underlying service stats.

        The server-side fields are captured as **one consistent
        snapshot**: the queue state and every ``server.*`` counter are
        read under a single combined lock section, so within one
        ``stats()`` dict invariants like ``accepted == served + failed
        + shed + deadline_exceeded + in-flight`` hold exactly.

        Two field classes — read them accordingly:

        * **monotonic counters** (``server.accepted``,
          ``server.served``, ``server.shed``,
          ``service.requests``-style fields, ...): only ever increase;
          rates are meaningful as deltas between two snapshots.
        * **instantaneous gauges** (``server.queue_depth``,
          ``server.latency_ema_s``): the value at snapshot time;
          deltas are meaningless.

        The ``service.*``/planner fields are sampled *after* the
        server fields (outside the server lock, since the service has
        its own): a concurrently served request can make the service
        counts slightly newer than the server counts, which preserves
        the observable invariant ``service requests >= server.served``
        (the service increments before the server marks a request
        served) — the reverse ordering could transiently violate it.
        """
        with self._cond:
            with self._stats_lock:
                merged: dict = {
                    f"server.{name}": counter.value
                    for name, counter in self._events.items()
                }
                ema = self._latency_ema
                inflight = len(self._inflight_reqs)
            depth = self._size
        merged["server.latency_ema_s"] = ema
        merged["server.queue_depth"] = depth
        merged["server.queue_capacity"] = self.queue_capacity
        merged["server.inflight"] = inflight
        merged.update(self.service.stats())
        return merged

    def health(self) -> dict:
        """A point-in-time health snapshot.

        ``status`` is ``"ok"`` when the server is accepting, the queue
        has headroom, and the SLO is met, else ``"degraded"``.  The
        ``slo`` block carries the rolling-window availability, p99
        latency and error-budget burn rate
        (:meth:`~repro.telemetry.SLOMonitor.status`), and
        ``recorder`` summarises flight-recorder activity.
        """
        with self._cond:
            queue = {
                "depth": self._size,
                "capacity": self.queue_capacity,
                "workers": self.workers,
                "accepting": not self._stopping,
            }
            tenants = {
                name: state.snapshot()
                for name, state in sorted(self._tenants.items())
            }
        slo_status = self.slo_monitor.status()
        degraded = (
            queue["depth"] >= queue["capacity"]
            or not queue["accepting"]
            or slo_status["breached"]
        )
        return {
            "status": "degraded" if degraded else "ok",
            "queue": queue,
            "tenants": tenants,
            "slo": slo_status,
            "recorder": {
                "events": self.recorder.recorded,
                "dumps": self.recorder.dumps,
            },
        }
