"""repro.telemetry — spans, metrics, SLOs and a flight recorder.

The observability layer of the reproduction, in four tiers:

* **tracer** (:class:`Tracer`) — nestable wall-clock spans with
  thread-local nesting, cross-thread hand-off (:func:`begin_span` /
  :func:`end_span` / :func:`request_scope`), pluggable sinks
  (in-memory, JSONL) and exporters (Chrome ``trace_event`` JSON, the
  rendered span tree, :func:`span_counts`).  A tracer holds spans
  only;
* **request context** (:class:`RequestContext`) — the identity one
  serving request carries across threads; while bound, module-level
  :func:`span` tags every span with the ``request_id``;
* **metrics** (:class:`MetricsRegistry`) — the one store of every
  count and gauge: labeled counters, gauges and log-bucketed mergeable
  :class:`Histogram` instruments for cross-request distributions
  (p50/p99/p999), always on, exposable over HTTP
  (:class:`MetricsHTTPServer`) and renderable as a terminal dashboard
  (:func:`render_dashboard`, ``repro top``);
* **SLO + flight recorder** (:class:`SLOMonitor`,
  :class:`FlightRecorder`) — rolling-window objectives with
  error-budget burn rate, and a bounded ring of structured events that
  dumps a post-mortem bundle on breach.

See ``docs/observability.md``.

Instrumented library code calls the *module-level* :func:`span`, which
dispatches to the process-wide active tracer.  By default there is
**no** active tracer and each call reduces to one guarded attribute
check returning a shared no-op span — the hot path stays effectively
uninstrumented until someone opts in:

>>> from repro import telemetry
>>> tracer = telemetry.Tracer()
>>> with telemetry.use_tracer(tracer):
...     with telemetry.span("phase", n=64) as sp:
...         sp.set(rows=8)
>>> [(s.name, s.attributes) for s in tracer.spans]
[('phase', {'n': 64, 'rows': 8})]

``python -m repro profile <perm>`` wires this up end to end and writes
the exportable artefacts; ``python -m repro serve-demo --concurrent``
adds the serving metrics, ``/metrics`` endpoint and flight recorder.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.context import (
    RequestContext,
    current_context,
    set_context,
    use_context,
)
from repro.telemetry.dashboard import histogram_series, render_dashboard
from repro.telemetry.export import (
    chrome_trace,
    parse_prometheus_text,
    render_span_tree,
    span_counts,
    validate_chrome_trace,
    validate_prometheus_text,
    validate_span_tree,
    write_chrome_trace,
)
from repro.telemetry.httpd import MetricsHTTPServer
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.sinks import (
    InMemorySink,
    JsonlSink,
    Sink,
    read_jsonl,
    span_event,
)
from repro.telemetry.slo import SLO, SLOMonitor
from repro.telemetry.tracer import NULL_SPAN, NullSpan, Span, Tracer

#: The process-wide active tracer; ``None`` means telemetry is off.
_ACTIVE: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The currently active tracer, or ``None`` when telemetry is off."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None):
    """Activate ``tracer`` for the duration of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attributes):
    """A span on the active tracer (shared no-op span when inactive).

    When the calling thread has a bound :class:`RequestContext`
    (:func:`use_context` / :func:`request_scope`), the span is tagged
    with its ``request_id`` automatically.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    ctx = current_context()
    if ctx is not None and "request_id" not in attributes:
        attributes["request_id"] = ctx.request_id
    return tracer.span(name, **attributes)


def current_span():
    """The calling thread's innermost open span on the active tracer.

    Returns :data:`NULL_SPAN` when telemetry is off or no span is open,
    so a site can always ``current_span().set(...)`` to tag the span it
    runs inside with what it just learned.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.current() or NULL_SPAN


def begin_span(name: str, parent=None, **attributes):
    """Start a *detached* span on the active tracer.

    Returns :data:`NULL_SPAN` when telemetry is off, so call sites can
    unconditionally hold the result and later pass it to
    :func:`end_span`.  ``parent`` may be another detached span (or
    ``None`` to nest under the calling thread's current span).
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    ctx = current_context()
    if ctx is not None and "request_id" not in attributes:
        attributes["request_id"] = ctx.request_id
    if isinstance(parent, NullSpan):
        parent = None
    return tracer.begin(name, parent=parent, **attributes)


def end_span(span_obj, **attributes):
    """Finish a span from :func:`begin_span` (no-op for the null span)."""
    tracer = _ACTIVE
    if tracer is None or isinstance(span_obj, NullSpan):
        return span_obj
    return tracer.end(span_obj, **attributes)


@contextmanager
def request_scope(ctx: RequestContext | None):
    """Activate a request's context *and* span on the calling thread.

    The worker-side half of cross-thread propagation: binds ``ctx``
    thread-locally (so :func:`span` tags ``request_id``) and adopts the
    request's root span onto this thread's stack (so spans opened here
    become its children).  A ``None`` context, inactive tracer, or
    context without a real root span each degrade gracefully to
    whatever subset applies.
    """
    tracer = _ACTIVE
    root = ctx.span if ctx is not None else None
    adoptable = (
        tracer is not None
        and isinstance(root, Span)
    )
    with use_context(ctx):
        if adoptable:
            with tracer.adopt(root):
                yield ctx
        else:
            yield ctx


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "RequestContext",
    "SLO",
    "SLOMonitor",
    "Sink",
    "Span",
    "Tracer",
    "begin_span",
    "chrome_trace",
    "current_context",
    "current_span",
    "end_span",
    "get_tracer",
    "histogram_series",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "read_jsonl",
    "render_dashboard",
    "render_span_tree",
    "request_scope",
    "set_context",
    "set_tracer",
    "span",
    "span_counts",
    "span_event",
    "use_context",
    "use_tracer",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "validate_span_tree",
    "write_chrome_trace",
]
