"""The inactive-tracer fast path must be essentially free.

The issue's budget: with no active tracer, instrumentation overhead on
a small scheduled run stays under 5%.  Comparing two noisy end-to-end
wall times flakes, so the test bounds the overhead analytically: it
measures the per-call cost of an inactive instrumentation site, counts
the sites a small run passes through (a generous upper bound), and
checks the product against 5% of the measured run time.  Both sides
are best-of-N, so one burst of host contention during a single loop
cannot decide the verdict.  The run is
the five kernels interpreted round by round, a fixed reference that
does not move when the apply path gets faster.  The serving bound's
site count is itself counted, by wrapping the instruments a served
request updates.
"""

import time

import numpy as np

from repro import telemetry
from repro.permutations.named import bit_reversal
from repro.service import PermutationServer
from repro.core.scheduled import ScheduledPermutation
from repro.exec import RoundInterpreter

#: Generous upper bound on inactive telemetry calls per run of the five
#: kernels: an apply span, three step spans, per-kernel spans and
#: counters.
_SITES_PER_APPLY = 32

#: Always-on metric updates per served in-memory request, as counted by
#: ``test_metric_sites_per_request_are_counted``: the tenant-admitted,
#: accepted, memory-hit, request, element and served counters, the
#: queue-wait, apply and end-to-end histograms, the per-round gauge,
#: and two flight-recorder appends with their event counter.
_METRIC_SITES_PER_REQUEST = 14

#: Repetitions of each probe loop; its per-site cost is the fastest.
_PROBE_REPS = 5


def test_noop_overhead_below_5_percent():
    assert telemetry.get_tracer() is None

    plan = ScheduledPermutation.plan(bit_reversal(4096), width=32)
    a = np.arange(4096, dtype=np.float32)
    reps = 10
    best_apply = min(
        _timed(lambda: RoundInterpreter().run(plan.lower(), a))
        for _ in range(reps)
    )

    calls = 10_000

    def probe():
        for _ in range(calls):
            with telemetry.span("overhead.probe", n=1) as sp:
                sp.set(done=1)

    per_site = min(_timed(probe) for _ in range(_PROBE_REPS)) / calls

    overhead = per_site * _SITES_PER_APPLY
    assert overhead < 0.05 * best_apply, (
        f"inactive telemetry would cost {overhead * 1e6:.1f} us per "
        f"apply of {best_apply * 1e6:.1f} us (> 5%)"
    )


def test_serving_metrics_overhead_below_5_percent():
    """Histograms + counters stay on the hot path; bound their cost.

    Same analytic shape as above: measure the per-update cost of the
    real instruments a serve touches, multiply by a generous per-request
    site count, compare to 5% of a small apply.
    """
    assert telemetry.get_tracer() is None

    plan = ScheduledPermutation.plan(bit_reversal(4096), width=32)
    a = np.arange(4096, dtype=np.float32)
    best_apply = min(
        _timed(lambda: RoundInterpreter().run(plan.lower(), a))
        for _ in range(10)
    )

    reg = telemetry.MetricsRegistry()
    hist = reg.histogram("probe_seconds", outcome="ok", tenant="t")
    counter = reg.counter("probe_total", event="x")
    calls = 5_000

    def probe():
        for i in range(calls):
            hist.observe(0.0001 * (1 + i % 13))
            counter.inc()

    # Each loop iteration is one histogram observe plus one counter
    # inc; halve to get a single-site cost.
    per_site = min(_timed(probe) for _ in range(_PROBE_REPS)) / calls / 2

    overhead = per_site * _METRIC_SITES_PER_REQUEST
    assert overhead < 0.05 * best_apply, (
        f"serving metrics would cost {overhead * 1e6:.1f} us per "
        f"request around an apply of {best_apply * 1e6:.1f} us (> 5%)"
    )


def test_metric_sites_per_request_are_counted(monkeypatch):
    """The site count above is a count, not a guess: wrap every update
    of the server registry's instruments and every recorder append,
    serve requests through a stalled worker, and count per request."""
    assert telemetry.get_tracer() is None
    n = 1024
    server = PermutationServer(width=8, workers=1)
    server._worker = lambda: None
    server.register("bitrev", bit_reversal(n))
    a = np.arange(n, dtype=np.float64)

    def serve():
        future = server.submit("bitrev", a)
        assert server._step()
        future.result(timeout=0)

    serve()                         # every label set now exists
    instruments = {
        id(child)
        for family in server.metrics._families.values()
        for child in family.children.values()
    }
    updates = []

    def counting(cls, method):
        real = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            if cls is telemetry.FlightRecorder or id(self) in instruments:
                updates.append(method)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    for cls, method in ((telemetry.Counter, "inc"),
                        (telemetry.Gauge, "set"),
                        (telemetry.Gauge, "inc"),
                        (telemetry.Histogram, "observe"),
                        (telemetry.FlightRecorder, "record")):
        counting(cls, method)
    requests = 10
    for _ in range(requests):
        serve()
    server.close()
    per_request, rest = divmod(len(updates), requests)
    assert rest == 0, updates
    assert per_request <= _METRIC_SITES_PER_REQUEST, (
        per_request, updates[:per_request])


def test_no_tracer_means_no_request_contexts():
    """The disabled fast path never allocates a RequestContext."""
    assert telemetry.get_tracer() is None
    before = telemetry.RequestContext.created
    with telemetry.span("probe") as sp:  # NullSpan path
        sp.set(done=1)
    assert telemetry.RequestContext.created == before
    # And the active path does allocate, so the counter is live.
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        telemetry.RequestContext(request_id=1, tenant="t", name="p",
                                 priority=1, deadline=None)
    assert telemetry.RequestContext.created == before + 1


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
