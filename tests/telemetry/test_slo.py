"""SLO monitor: rolling window, breach edges, burn rate.

All tests drive an injected fake clock, so window rolling is exact and
nothing sleeps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _monitor(availability=0.9, latency=None, window=60.0,
             min_samples=5):
    clock = _Clock()
    slo = telemetry.SLO(
        availability=availability,
        latency_p99_s=latency,
        window_s=window,
        min_samples=min_samples,
    )
    return telemetry.SLOMonitor(slo, clock=clock), clock


def test_all_ok_is_compliant():
    mon, clock = _monitor()
    for _ in range(50):
        clock.t += 0.1
        assert mon.record(True, 0.001) is False
    status = mon.status()
    assert status["availability"] == 1.0
    assert status["burn_rate"] == 0.0
    assert status["budget_remaining"] == pytest.approx(1.0)
    assert not status["breached"]
    assert mon.breaches == 0


def test_breach_fires_exactly_on_transition():
    mon, clock = _monitor(availability=0.9, min_samples=5)
    edges = 0
    # 50/50 failures: availability 0.5 < 0.9 target.
    for i in range(20):
        clock.t += 0.1
        if mon.record(i % 2 == 0, 0.001):
            edges += 1
    assert edges == 1               # the edge, not every bad sample
    assert mon.breached
    assert mon.breaches == 1


def test_no_breach_below_min_samples():
    mon, clock = _monitor(min_samples=50)
    for _ in range(10):
        clock.t += 0.01
        assert mon.record(False, 0.001) is False
    assert not mon.breached


def test_latency_objective():
    mon, clock = _monitor(availability=0.01, latency=0.010)
    for _ in range(30):
        clock.t += 0.1
        mon.record(True, 0.200)     # always slow, never failing
    status = mon.status()
    assert status["availability"] == 1.0
    assert status["breached"]
    assert status["breach_latency"] and not status["breach_availability"]


def test_window_rolls_breach_heals():
    mon, clock = _monitor(availability=0.9, window=6.0, min_samples=5)
    for _ in range(10):
        clock.t += 0.1
        mon.record(False, 0.001)
    assert mon.breached
    # A window's worth of healthy traffic later the failures age out.
    for _ in range(100):
        clock.t += 0.1
        mon.record(True, 0.001)
    status = mon.status()
    assert status["availability"] == 1.0
    assert not status["breached"]
    assert not mon.breached
    assert mon.breaches == 1        # monotonic transition count


def test_burn_rate_scale():
    mon, clock = _monitor(availability=0.99, min_samples=1)
    # 10% errors against a 1% budget: burn rate 10x.
    for i in range(100):
        clock.t += 0.01
        mon.record(i % 10 != 0, 0.001)
    status = mon.status()
    assert status["burn_rate"] == pytest.approx(10.0, rel=0.01)
    assert status["budget_remaining"] == pytest.approx(-9.0, rel=0.01)


def test_idle_window_reports_clean():
    mon, clock = _monitor()
    mon.record(True, 0.001)
    clock.t += 10_000.0             # far past the window
    status = mon.status()
    assert status["samples"] == 0
    assert status["availability"] == 1.0
    assert status["p99_s"] == 0.0


def test_status_includes_objective():
    mon, _clock = _monitor(availability=0.95)
    status = mon.status()
    assert status["objective"]["availability"] == 0.95
    assert "breaches" in status


def test_slo_validation():
    with pytest.raises(ValueError, match="availability"):
        telemetry.SLO(availability=0.0)
    with pytest.raises(ValueError, match="window_s"):
        telemetry.SLO(window_s=-1.0)


def test_long_idle_gap_builds_one_slice(monkeypatch):
    """A week idle costs one new slice, not one per elapsed slice."""
    from repro.telemetry import slo as slo_module

    built = []

    class CountingSlice(slo_module._Slice):
        def __init__(self, start):
            super().__init__(start)
            built.append(start)

    monkeypatch.setattr(slo_module, "_Slice", CountingSlice)
    mon, clock = _monitor(availability=0.9, window=60.0, min_samples=1)
    mon.record(False, 0.001)
    assert mon.breached
    clock.t += 7 * 24 * 3600.0 + 3.0
    built.clear()
    assert mon.record(True, 0.001) is False
    assert len(built) <= slo_module._SLICES + 1
    # Now's slice, on the grid the window started on.
    assert built[-1] == pytest.approx(7 * 24 * 3600.0)
    status = mon.status()
    assert status["samples"] == 1 and not status["breached"]


def test_slice_ending_inside_the_window_survives_the_roll():
    """A slice ending one window before ``now`` or later still counts;
    one that ended earlier is dropped."""
    mon, clock = _monitor(availability=0.9, window=6.0, min_samples=1)
    mon.record(False, 0.001)                # slice [0, 1)
    clock.t = 6.5                           # horizon 0.5 < 1
    assert mon.status()["samples"] == 1
    clock.t = 7.0                           # horizon 1.0: expired
    assert mon.status()["samples"] == 0
    assert mon.record(True, 0.001) is False
    assert mon.status()["samples"] == 1


# ---------------------------------------------------------------------------
# The running window against merge-on-read
# ---------------------------------------------------------------------------


class _MergeOnReadMonitor:
    """The oracle: the monitor that keeps one histogram per slice and
    merges every live slice on each record and status read."""

    class _Slice:
        def __init__(self, start):
            self.start = start
            self.ok = 0
            self.total = 0
            self.latency = telemetry.Histogram()

    def __init__(self, slo, clock):
        self.slo = slo
        self._clock = clock
        self._slice_s = slo.window_s / 6
        self._slices = [self._Slice(clock())]
        self._breached = False
        self.breaches = 0

    def _roll(self, now):
        current = self._slices[-1]
        elapsed = (now - current.start) // self._slice_s
        if elapsed > 6:
            self._slices = [
                self._Slice(current.start + elapsed * self._slice_s)
            ]
            return
        while now - current.start >= self._slice_s:
            current = self._Slice(current.start + self._slice_s)
            self._slices.append(current)
        horizon = now - self.slo.window_s
        while len(self._slices) > 1 and (
            self._slices[0].start + self._slice_s <= horizon
        ):
            self._slices.pop(0)

    def record(self, ok, latency_s):
        self._roll(self._clock())
        sl = self._slices[-1]
        sl.total += 1
        if ok:
            sl.ok += 1
        sl.latency.observe(latency_s)
        status = self._status()
        newly = status["breached"] and not self._breached
        self._breached = status["breached"]
        if newly:
            self.breaches += 1
        return newly

    def _status(self):
        ok = sum(s.ok for s in self._slices)
        total = sum(s.total for s in self._slices)
        merged = telemetry.Histogram()
        for s in self._slices:
            merged.merge(s.latency)
        availability = ok / total if total else 1.0
        p99 = merged.quantile(0.99)
        target = self.slo.availability
        budget = 1.0 - target
        error_rate = 1.0 - availability
        burn = error_rate / budget if budget > 0 else (
            0.0 if error_rate == 0 else float("inf")
        )
        enough = total >= self.slo.min_samples
        breach_avail = enough and availability < target
        breach_latency = (
            enough
            and self.slo.latency_p99_s is not None
            and p99 > self.slo.latency_p99_s
        )
        return {
            "availability": availability,
            "p99_s": p99,
            "samples": total,
            "burn_rate": burn,
            "budget_remaining": 1.0 - burn if budget > 0 else 1.0,
            "breached": bool(breach_avail or breach_latency),
            "breach_availability": bool(breach_avail),
            "breach_latency": bool(breach_latency),
        }

    def status(self):
        self._roll(self._clock())
        out = self._status()
        out["objective"] = self.slo.describe()
        out["breaches"] = self.breaches
        return out


_WINDOWS = (6.0, 0.9, 60.0)


@st.composite
def _slo_scripts(draw):
    """An SLO plus a script of (clock step, op) pairs.  Steps are whole
    or fractional slices, exactly one window, and gaps past it (the
    long-idle restart), so samples land on slice boundaries."""
    window = draw(st.sampled_from(_WINDOWS))
    slice_s = window / 6
    slo = telemetry.SLO(
        availability=draw(st.sampled_from((0.5, 0.9, 0.99, 1.0))),
        latency_p99_s=draw(st.sampled_from((None, 0.0, 0.002, 0.25))),
        window_s=window,
        min_samples=draw(st.sampled_from((0, 1, 5, 20))),
    )
    step = st.one_of(
        st.just(0.0),
        st.integers(1, 8).map(lambda k: k * slice_s),
        st.sampled_from((slice_s / 3, slice_s / 2, window,
                         window + slice_s, 7 * slice_s, 10 * window)),
        st.floats(0.0, 2 * window, allow_nan=False),
    )
    latency = st.one_of(
        st.floats(-0.01, 2.0, allow_nan=False),
        st.sampled_from((0.0, 1e-6, 0.002, 0.25)),
    )
    op = st.one_of(
        st.tuples(st.just("record"), st.booleans(), latency),
        st.just(("status",)),
    )
    script = draw(st.lists(st.tuples(step, op), max_size=120))
    return slo, draw(st.sampled_from((0.0, 1.25))), script


@given(_slo_scripts())
@settings(deadline=None)
def test_running_window_equals_merge_on_read(case):
    """Every record() return and every status() dict equals the
    merge-on-read monitor's, through rolls, drops and restarts."""
    slo, start, script = case
    clock = _Clock()
    clock.t = start
    mon = telemetry.SLOMonitor(slo, clock=clock)
    oracle = _MergeOnReadMonitor(slo, clock)
    for dt, op in script:
        clock.t += dt
        if op[0] == "record":
            _, ok, latency = op
            assert mon.record(ok, latency) == oracle.record(ok, latency)
        else:
            assert mon.status() == oracle.status()
        assert mon.breached == oracle._breached
    assert mon.status() == oracle.status()
    assert mon.breaches == oracle.breaches


def test_record_merges_no_histogram(monkeypatch):
    """A record updates the running window; it merges no histogram,
    however many slices are live."""
    merges = []
    real_merge = telemetry.Histogram.merge

    def counting_merge(self, other):
        merges.append(other)
        return real_merge(self, other)

    monkeypatch.setattr(telemetry.Histogram, "merge", counting_merge)
    mon, clock = _monitor(availability=0.9, latency=0.010, window=6.0,
                          min_samples=1)
    for i in range(60):
        clock.t += 0.25               # six live slices after 6 s
        mon.record(i % 7 != 0, 0.001 * (1 + i % 5))
        assert merges == []
    assert mon.status()["samples"] == 25   # seven slices, 9 s to 15 s
    assert merges == []
