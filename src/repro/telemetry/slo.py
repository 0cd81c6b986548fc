"""Rolling-window SLO monitoring with error-budget burn rate.

An :class:`SLO` states the serving objectives — availability and a
p99 latency bound over a rolling window.  The :class:`SLOMonitor`
ingests one ``(ok, latency)`` sample per finished request and answers,
at any moment:

* **availability** over the window (successes / total);
* **p99 latency** over the window, from one running window of
  :class:`~repro.telemetry.metrics.Histogram` bucket counts.  A
  sample adds to its time slice and to the window; a slice that rolls
  out subtracts its bucket counts, which subtract exactly, so the
  window never rescans samples and a record never merges slices.
  Only the window's min/max (quantile clamps) are recomputed, from
  the few live slices, when a slice drops;
* **error-budget burn rate** — the rate unavailability is consuming
  the budget, normalised so ``1.0`` means "exactly on target": a
  99.9 % objective burning at ``10×`` exhausts a 30-day budget in
  3 days.  Burn rate is *the* paging signal recommended by the SRE
  workbook, because raw availability hides how fast things are
  getting worse;
* **breached** — whether either objective is currently violated
  (after a minimum sample count, so one slow request cannot flap the
  monitor).

:meth:`SLOMonitor.record` returns ``True`` exactly on the transition
into breach — the serving core uses that edge to trigger a flight
recorder post-mortem dump (:mod:`repro.telemetry.recorder`) without
dumping again on every subsequent bad sample.
"""

from __future__ import annotations

import math
import threading
import time

from repro.telemetry.metrics import Histogram, bucket_quantile

__all__ = ["SLO", "SLOMonitor"]

#: Number of sub-intervals the rolling window is divided into; the
#: window rolls with slice granularity.
_SLICES = 6


class SLO:
    """Serving objectives over a rolling window.

    Parameters
    ----------
    availability:
        Target success fraction, e.g. ``0.999``.
    latency_p99_s:
        Upper bound on the window's p99 latency, in seconds
        (``None`` disables the latency objective).
    window_s:
        Rolling-window length in seconds.
    min_samples:
        Breach is only declared once the window holds at least this
        many samples.
    """

    __slots__ = ("availability", "latency_p99_s", "window_s",
                 "min_samples")

    def __init__(
        self,
        availability: float = 0.99,
        latency_p99_s: float | None = 0.25,
        window_s: float = 60.0,
        min_samples: int = 20,
    ) -> None:
        if not 0.0 < availability <= 1.0:
            raise ValueError(
                f"availability target must be in (0, 1], got "
                f"{availability}"
            )
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.availability = float(availability)
        self.latency_p99_s = (
            float(latency_p99_s) if latency_p99_s is not None else None
        )
        self.window_s = float(window_s)
        self.min_samples = int(min_samples)

    def describe(self) -> dict:
        return {
            "availability": self.availability,
            "latency_p99_s": self.latency_p99_s,
            "window_s": self.window_s,
            "min_samples": self.min_samples,
        }


class _Counts:
    """Outcome counts and latency bucket counts (the
    :class:`~repro.telemetry.metrics.Histogram` bucketing) of some
    samples; guarded by the monitor's lock."""

    __slots__ = ("ok", "total", "buckets", "min", "max")

    def __init__(self) -> None:
        self.ok = 0
        self.total = 0
        self.buckets: dict[int, int] = {}
        self.min = math.inf
        self.max = 0.0

    def add(self, ok: bool, bucket: int, latency_s: float) -> None:
        self.total += 1
        if ok:
            self.ok += 1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if latency_s < self.min:
            self.min = latency_s
        if latency_s > self.max:
            self.max = latency_s

    def subtract(self, other: "_Counts") -> None:
        """Remove ``other``'s samples (a subset of these), deleting
        buckets that empty.  ``min`` / ``max`` are left to the caller,
        since an extreme cannot be subtracted."""
        self.ok -= other.ok
        self.total -= other.total
        for bucket, c in other.buckets.items():
            left = self.buckets[bucket] - c
            if left:
                self.buckets[bucket] = left
            else:
                del self.buckets[bucket]

    def quantile(self, q: float) -> float:
        return bucket_quantile(self.buckets, self.total, self.min,
                               self.max, q)


class _Slice(_Counts):
    """One sub-interval of the rolling window."""

    __slots__ = ("start",)

    def __init__(self, start: float) -> None:
        super().__init__()
        self.start = start


class SLOMonitor:
    """Ingest per-request outcomes, report objective compliance.

    Thread-safe; uses an injectable monotonic clock for deterministic
    tests.
    """

    def __init__(self, slo: SLO | None = None,
                 clock=time.monotonic) -> None:
        self.slo = slo or SLO()
        self._clock = clock
        self._lock = threading.Lock()
        self._slice_s = self.slo.window_s / _SLICES
        self._slices: list[_Slice] = [_Slice(clock())]
        #: The sum of the live slices, kept as samples arrive and
        #: slices expire.
        self._window = _Counts()
        self._breached = False
        #: Breach transitions observed (monotonic).
        self.breaches = 0

    # ------------------------------------------------------------------

    def _roll(self, now: float) -> None:
        """Advance to ``now``'s slice and drop expired ones (locked).

        After an idle gap of a whole window past the current slice's
        end, every slice has expired: the window restarts at ``now``'s
        slice, on the same grid, instead of building (and then
        dropping) one empty slice per elapsed interval.
        """
        current = self._slices[-1]
        elapsed = (now - current.start) // self._slice_s
        if elapsed > _SLICES:
            self._slices = [
                _Slice(current.start + elapsed * self._slice_s)
            ]
            self._window = _Counts()
            return
        while now - current.start >= self._slice_s:
            current = _Slice(current.start + self._slice_s)
            self._slices.append(current)
        horizon = now - self.slo.window_s
        window = self._window
        dropped = False
        while len(self._slices) > 1 and (
            self._slices[0].start + self._slice_s <= horizon
        ):
            window.subtract(self._slices.pop(0))
            dropped = True
        if dropped:
            window.min = min(s.min for s in self._slices)
            window.max = max(s.max for s in self._slices)

    def _breach_locked(self) -> tuple[bool, bool]:
        """(availability, latency) objective violated over the window.

        The p99 is estimated only when the latency objective can
        decide: never below ``min_samples``, and never while the
        window's max is within the bound (the estimate is clamped to
        the max)."""
        window, slo = self._window, self.slo
        if window.total < slo.min_samples:
            return False, False
        availability = (
            window.ok / window.total if window.total else 1.0
        )
        bound = slo.latency_p99_s
        return (
            availability < slo.availability,
            bound is not None and window.max > bound
            and window.quantile(0.99) > bound,
        )

    def record(self, ok: bool, latency_s: float) -> bool:
        """Ingest one finished request.

        Returns ``True`` exactly when this sample *transitions* the
        monitor into breach (the edge the flight recorder dumps on).
        """
        latency = float(latency_s)
        if latency < 0.0:
            latency = 0.0
        bucket = Histogram.bucket_index(latency)
        now = self._clock()
        with self._lock:
            self._roll(now)
            self._slices[-1].add(ok, bucket, latency)
            self._window.add(ok, bucket, latency)
            breached = any(self._breach_locked())
            newly = breached and not self._breached
            self._breached = breached
            if newly:
                self.breaches += 1
            return newly

    def _status_locked(self) -> dict:
        window = self._window
        total = window.total
        availability = window.ok / total if total else 1.0
        target = self.slo.availability
        budget = 1.0 - target
        error_rate = 1.0 - availability
        burn = error_rate / budget if budget > 0 else (
            0.0 if error_rate == 0 else float("inf")
        )
        breach_avail, breach_latency = self._breach_locked()
        return {
            "availability": availability,
            "p99_s": window.quantile(0.99),
            "samples": total,
            "burn_rate": burn,
            "budget_remaining": (
                1.0 - burn if budget > 0 else 1.0
            ),
            "breached": breach_avail or breach_latency,
            "breach_availability": breach_avail,
            "breach_latency": breach_latency,
        }

    def status(self) -> dict:
        """Point-in-time compliance snapshot (rolls the window)."""
        now = self._clock()
        with self._lock:
            self._roll(now)
            out = self._status_locked()
        out["objective"] = self.slo.describe()
        out["breaches"] = self.breaches
        return out

    @property
    def breached(self) -> bool:
        with self._lock:
            return self._breached
