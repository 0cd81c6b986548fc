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
* **one apply per request** — a worker dequeues one request and
  answers it from the registration's own permutation
  (:meth:`~repro.planner.Planner.sealed`), so serving never colours,
  lowers, runs the pass pipeline or touches the disk.  There is no
  planning fault to retry and no engine to degrade to: every engine
  would compute the same gather.
* **per-tenant namespaces and quotas** — registrations live under
  ``tenant/name`` keys; each tenant is metered by a
  :class:`~repro.service.quotas.TenantQuota` (requests/sec token
  bucket, in-flight bulkhead, resident-plan bulkhead).
* **out-of-core streams** — :meth:`PermutationServer.submit_stream`
  queues one request like any other; a worker serves it with
  :meth:`PermutationService.apply_stream` and is held until it ends.

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
from typing import Any, Generic, TypeVar

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
from repro.exec.streaming import StreamingStats
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

#: What a :class:`ServeResult` resolves with.
T = TypeVar("T")


class ServeResult(Generic[T]):
    """A future for one submitted request, typed by its value.

    ``result()`` blocks until the request is served, then returns the
    permuted payload (``ServeResult[np.ndarray]``; for a stream, its
    :class:`~repro.exec.StreamingStats`,
    ``ServeResult[StreamingStats]``) or raises the failure.  After
    completion the handle also carries how the request was served:
    ``engine`` (the registered engine) and ``wait_s`` / ``service_s``
    timings.  ``attempts`` (1 once served) and ``coalesced`` (always
    ``False``: every request is served by its own apply) stay only
    because existing readers, such as the benchmark harness, still
    read them.
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
        self._value: T | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> T:
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

    def _resolve(self, value: T) -> None:
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
    fast path allocates neither.  An out-of-core stream carries the
    keyword arguments of :meth:`PermutationService.apply_stream` in
    ``stream`` and an empty payload.
    """

    __slots__ = ("key", "payload", "batch", "priority", "deadline",
                 "enqueued", "tenant", "result", "rid", "ctx", "qspan",
                 "stream")

    def __init__(self, key: str, payload: np.ndarray, batch: bool,
                 priority: int, deadline: float | None,
                 enqueued: float, tenant: str,
                 result: "ServeResult[Any]",
                 rid: int = 0, ctx: Any = None,
                 qspan: Any = None,
                 stream: dict[str, Any] | None = None) -> None:
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
        self.service = service or PermutationService(
            width=width, cache_dir=cache_dir
        )
        self.workers = int(workers)
        self.queue_capacity = int(queue_capacity)
        self.default_deadline_s = default_deadline_s
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
        self._inflight_reqs: dict[int, _Request] = {}
        # Per-request histogram handles, each resolved on first use
        # (so the exposition lists only label sets that occurred):
        # queue wait by priority, end-to-end latency by (key, engine,
        # outcome).
        self._queue_wait: dict[int, telemetry.Histogram] = {}
        self._e2e: dict[tuple[str, str | None, str],
                        telemetry.Histogram] = {}
        # The two event counters every served request moves, held
        # once first counted.
        self._accepted: telemetry.Counter | None = None
        self._served: telemetry.Counter | None = None

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
            if req.qspan is not None:
                telemetry.end_span(req.qspan, outcome="dropped")
            self._finish_request(req, "dropped", "dropped")
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

    def _event(self, name: str) -> telemetry.Counter:
        """The ``server_events_total`` counter of one event, created on
        first use.  Caller holds the stats lock."""
        counter = self._events.get(name)
        if counter is None:
            counter = self._events[name] = self.metrics.counter(
                "server_events_total", event=name
            )
        return counter

    def _count(self, name: str, n: int = 1) -> None:
        # Under the stats lock, so one ``stats()`` snapshot sees every
        # event counter at the same instant.
        with self._stats_lock:
            self._event(name).inc(n)

    def _active_requests(self) -> list[dict]:
        """Flight-recorder snapshot of every in-flight request: one
        row each, built only here, when a post-mortem asks."""
        now = self._clock()
        with self._stats_lock:
            requests = sorted(self._inflight_reqs.values(),
                              key=lambda r: r.rid)
        rows = []
        for req in requests:
            row: dict[str, Any] = {
                "rid": req.rid,
                "key": req.key,
                "tenant": req.tenant,
                "priority": req.priority,
            }
            span_id = getattr(req.ctx.span, "span_id", None) \
                if req.ctx is not None else None
            if span_id is not None:
                row["span_id"] = span_id
            row["age_s"] = now - req.enqueued
            rows.append(row)
        return rows

    def _track(self, request: _Request) -> None:
        """Count ``request`` accepted and enter it in the in-flight
        table, in one stats-lock section."""
        with self._stats_lock:
            self._inflight_reqs[request.rid] = request
            if self._accepted is None:
                self._accepted = self._event("accepted")
            self._accepted.inc()

    def _finish_request(
        self,
        request: _Request,
        outcome: str,
        event: str,
        engine: str | None = None,
    ) -> None:
        """Observability epilogue for one resolved request.

        Records the end-to-end latency histogram (labeled by family,
        tenant, engine and outcome), feeds the SLO monitor (dumping a
        post-mortem on the breach transition) — both for in-memory
        requests only; an out-of-core stream is timed by
        ``exec_apply_seconds{mode="stream"}`` — logs a flight-recorder
        event, ends the request's root span, and drops it from the
        in-flight table while counting its ``event`` (``served``,
        ``failed``, ``shed``, ``deadline_exceeded`` or ``dropped``) in
        the same stats-lock section, so every ``stats()`` snapshot
        sees ``accepted == served + failed + shed + deadline_exceeded
        + dropped + inflight``.  Must be called exactly once per
        admitted request, after its future resolves.
        """
        ok = event == "served"
        e2e = self._clock() - request.enqueued
        in_memory = request.stream is None
        if in_memory:
            labels = (request.key, engine, outcome)
            e2e_seconds = self._e2e.get(labels)
            if e2e_seconds is None:
                e2e_seconds = self._e2e[labels] = self.metrics.histogram(
                    "server_e2e_seconds",
                    family=request.key.rsplit("/", 1)[-1],
                    tenant=request.tenant,
                    engine=engine or "none",
                    outcome=outcome,
                )
            e2e_seconds.observe(e2e)
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
            if ok:
                if self._served is None:
                    self._served = self._event("served")
                self._served.inc()
            else:
                self._event(event).inc()
        if in_memory and self.slo_monitor.record(ok, e2e):
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
    ) -> ServeResult[np.ndarray]:
        """Enqueue one request; returns a :class:`ServeResult` future.

        Raises synchronously when the request cannot be admitted:
        :class:`~repro.errors.QuotaExceededError` (tenant over rate or
        bulkhead), :class:`~repro.errors.ServiceOverloadError` (queue
        full, nothing shed-able) — both carry ``retry_after`` — or
        :class:`~repro.errors.ValidationError` (unknown name, payload
        shape mismatch).
        """
        reg = self.service._registration(self._key(tenant, name))
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
        return self._enqueue(name, tenant, priority, deadline_s,
                             payload, batch)

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
    ) -> ServeResult[StreamingStats]:
        """Enqueue an out-of-core stream as one request.

        The on-disk ``.npy`` payload at ``path_in`` is permuted into
        ``path_out`` by :meth:`PermutationService.apply_stream` (the
        registration's proven ``d``-stripe sharding, under the
        streaming executor's resident-bytes budget).  Admission,
        shedding, the deadline and shutdown treat the stream like any
        other request: it takes one queue slot and one in-flight
        count.  Its deadline is checked at dequeue only, not between
        stripes, and a running stream holds its worker until it
        finishes, so with ``workers=1`` even a ``HIGH`` request waits
        for it.  The server's ``self_check``
        does not cover streams, and neither ``server_e2e_seconds``,
        the SLO monitor nor the latency EMA behind ``retry_after``
        sees them: a stream's run time scales with its file, not with
        serving health, so it is timed by
        ``exec_apply_seconds{mode="stream"}`` alone.

        The returned future resolves with the
        :class:`~repro.exec.StreamingStats`, or fails with the
        stream's error.  A ``d`` that does not divide the
        registration's ``n`` is refused here, before it takes a slot.
        """
        reg = self.service._registration(self._key(tenant, name))
        n = int(reg.p.shape[0])
        if d < 1 or n % d:
            raise ValidationError(
                f"shard count d must be >= 1 and divide n = {n}, "
                f"got {d}"
            )
        src = Path(path_in)
        if not src.exists():
            raise ValidationError(
                f"input payload {str(src)!r} does not exist"
            )
        stream: dict[str, Any] = {
            "path_in": src, "path_out": Path(path_out), "d": int(d),
            "max_resident_bytes": max_resident_bytes, "tmp_dir": tmp_dir,
        }
        return self._enqueue(name, tenant, priority, deadline_s,
                             np.empty(0), False, stream)

    def _enqueue(
        self,
        name: str,
        tenant: str,
        priority: int,
        deadline_s: float | None,
        payload: np.ndarray,
        batch: bool,
        stream: dict[str, Any] | None = None,
    ) -> ServeResult[Any]:
        """Admit one validated request: rate and bulkhead quotas, then
        a queue slot (shedding strictly lower-priority work when the
        queue is full)."""
        if priority not in _PRIORITIES:
            raise ValidationError(
                f"priority must be one of {_PRIORITIES}, got {priority}"
            )
        key = self._key(tenant, name)
        if not self._started:
            self.start()
        now = self._clock()
        limit = deadline_s if deadline_s is not None \
            else self.default_deadline_s
        deadline = now + limit if limit is not None else None
        result: ServeResult[Any] = ServeResult(
            name=name, tenant=tenant, priority=priority
        )
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
            result=result, rid=rid, ctx=ctx, qspan=qspan, stream=stream,
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
                self._track(request)
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
        self.recorder.record(
            "admit", rid=rid, key=key, tenant=tenant,
            priority=priority,
        )
        if victim is not None:
            if victim.qspan is not None:
                telemetry.end_span(victim.qspan, outcome="shed")
            self.recorder.record(
                "shed", rid=victim.rid, by=rid, key=victim.key
            )
            self._finish_request(victim, "shed", "shed")
            if shed_burst:
                self.recorder.dump(
                    "shed_burst",
                    window_s=round(self._recent_sheds[-1]
                                   - self._recent_sheds[0], 3),
                    sheds=len(self._recent_sheds),
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
    ) -> StreamingStats:
        """Synchronous convenience: ``submit_stream(...).result()``."""
        return self.submit_stream(name, path_in, path_out,
                                  **kwargs).result()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while self._step():
            pass

    def _step(self) -> bool:
        """One worker step: wait for work, pop the most important
        request, serve it and release its in-flight slot.  Returns
        ``False`` once the server is stopping and the queue is empty."""
        with self._cond:
            while self._size == 0 and not self._stopping:
                self._cond.wait()
            if self._size == 0:
                return False
            req = next(self._buckets[prio] for prio in _PRIORITIES
                       if self._buckets[prio]).popleft()
            self._size -= 1
        try:
            self._dispatch(req)
        finally:
            with self._cond:
                self._tenant(req.tenant).inflight -= 1
        return True

    def _dispatch(self, req: _Request) -> None:
        """Serve one dequeued request end to end: the deadline check,
        one apply, then resolve its future."""
        now = self._clock()
        wait = now - req.enqueued
        if req.qspan is not None:
            telemetry.end_span(req.qspan, wait_s=wait)
        queue_wait = self._queue_wait.get(req.priority)
        if queue_wait is None:
            queue_wait = self._queue_wait[req.priority] = \
                self.metrics.histogram(
                    "server_queue_wait_seconds",
                    priority=str(req.priority),
                )
        queue_wait.observe(wait)
        if req.deadline is not None and now >= req.deadline:
            req.result._fail(DeadlineExceededError(
                f"deadline expired after {wait:.3f} s in the queue"
            ))
            self._finish_request(
                req, "deadline_exceeded", "deadline_exceeded"
            )
            return
        req.result.wait_s = wait
        t0 = self._clock()
        # Adopt the request's context on this worker thread: spans
        # opened while serving nest under its root, so the serve
        # renders as one connected tree.
        try:
            if req.ctx is not None:
                with telemetry.request_scope(req.ctx):
                    engine, out = self._serve(req)
            else:
                engine, out = self._serve(req)
        except Exception as exc:
            # Catch everything: an escaped exception would kill the
            # worker thread and leave every queued future unresolved.
            req.result._fail(exc)
            self._finish_request(req, type(exc).__name__, "failed")
            if not isinstance(exc, ReproError):
                # Anything outside the library's failure taxonomy is
                # a bug, not an operational condition: freeze the ring.
                self.recorder.dump(
                    "unexpected_error", rid=req.rid,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return
        elapsed = self._clock() - t0
        if req.stream is None:
            # A stream's run time scales with its file, not with
            # serving health: it must not stretch retry_after hints.
            with self._stats_lock:
                self._latency_ema = (
                    0.9 * self._latency_ema + 0.1 * elapsed
                )
        req.result.engine = engine
        req.result.attempts = 1
        req.result.service_s = elapsed
        req.result._resolve(out)
        self._finish_request(req, "ok", "served", engine=engine)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _serve(self, req: _Request) -> tuple[str, Any]:
        """One apply for ``req`` (a stream answers its
        :class:`~repro.exec.StreamingStats`), checked against the
        definitional scatter when ``self_check`` is on; returns the
        registered engine and the output."""
        reg = self.service._registration(req.key)
        with telemetry.span("serve.attempt", engine=reg.engine):
            if req.stream is not None:
                return reg.engine, self.service.apply_stream(
                    req.key, **req.stream
                )
            if req.batch:
                out = self.service.apply_batch(req.key, req.payload)
            else:
                out = self.service.apply(req.key, req.payload)
        if self.self_check:
            expected = np.empty_like(req.payload)
            expected[..., reg.p] = req.payload
            if not np.array_equal(out, expected):
                self._count("self_check_failed")
                raise ServingError(
                    f"engine {reg.engine!r} produced a wrong answer "
                    "(caught by the server self-check)"
                )
        return reg.engine, out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Server counters merged with the underlying service stats.

        The server-side fields are captured as **one consistent
        snapshot**: the queue state and every ``server.*`` counter are
        read under a single combined lock section, and a request is
        counted ``accepted`` as it enters the in-flight table and
        counted by its outcome as it leaves it, so within one
        ``stats()`` dict ``accepted == served + failed + shed +
        deadline_exceeded + dropped + inflight`` holds exactly.

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
