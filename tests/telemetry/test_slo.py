"""SLO monitor: rolling window, breach edges, burn rate.

All tests drive an injected fake clock, so window rolling is exact and
nothing sleeps.
"""

import pytest

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
