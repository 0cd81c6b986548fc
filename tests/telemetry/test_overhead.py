"""The inactive-tracer fast path must be essentially free.

The issue's budget: with no active tracer, instrumentation overhead on
a small scheduled run stays under 5%.  Comparing two noisy end-to-end
wall times flakes, so the test bounds the overhead analytically: it
measures the per-call cost of an inactive instrumentation site, counts
the sites a small run passes through (a generous upper bound), and
checks the product against 5% of the measured run time.  The run is
the five kernels interpreted round by round, a fixed reference that
does not move when the apply path gets faster.
"""

import time

import numpy as np

from repro import telemetry
from repro.core.scheduled import ScheduledPermutation
from repro.exec import RoundInterpreter
from repro.permutations.named import bit_reversal

#: Generous upper bound on inactive telemetry calls per run of the five
#: kernels: an apply span, three step spans, per-kernel spans and
#: counters.
_SITES_PER_APPLY = 32

#: Generous upper bound on always-on metric updates per served request:
#: e2e + queue-wait + first-attempt + compile histograms, the apply
#: histogram and per-round gauge, plus the event counters and recorder
#: ring appends along the way.
_METRIC_SITES_PER_REQUEST = 24


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
    start = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("overhead.probe", n=1) as sp:
            sp.set(done=1)
    per_site = (time.perf_counter() - start) / calls

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
    start = time.perf_counter()
    for i in range(calls):
        hist.observe(0.0001 * (1 + i % 13))
        counter.inc()
    # Each loop iteration is one histogram observe plus one counter
    # inc; halve to get a single-site cost.
    per_site = (time.perf_counter() - start) / calls / 2

    overhead = per_site * _METRIC_SITES_PER_REQUEST
    assert overhead < 0.05 * best_apply, (
        f"serving metrics would cost {overhead * 1e6:.1f} us per "
        f"request around an apply of {best_apply * 1e6:.1f} us (> 5%)"
    )


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
