"""A standalone circuit breaker.

No serving path uses one: requests are answered from the registered
permutation and never plan or touch the disk (``docs/serving.md``).
A :class:`CircuitBreaker` protects one backend with the classic
three-state machine:

* **closed** — traffic flows; consecutive failures are counted and
  ``failure_threshold`` of them in a row trip the breaker;
* **open** — every :meth:`allow` is refused (callers skip the backend
  instead of queueing doomed work) until ``reset_timeout`` seconds
  have passed;
* **half-open** — after the timeout, up to ``half_open_probes`` probe
  calls are let through; if they all succeed the breaker closes, a
  single failure re-opens it (and restarts the timeout).

The breaker is thread-safe, uses an injectable monotonic clock so
tests can drive the timeout deterministically, and keeps a bounded
transition history so operators can observe the
``closed -> open -> half-open -> closed`` walk after the fact.  Its
counts live in a :class:`~repro.telemetry.MetricsRegistry` (the
caller's, or a private one), labeled ``breaker=<name>``:
``breaker_transitions_total`` (also labeled by the new ``state``),
``breaker_rejections_total``, and the ``breaker_state`` gauge
(0 = closed, 1 = half-open, 2 = open).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.errors import ValidationError
from repro.telemetry import MetricsRegistry

__all__ = ["CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding of each state (closed lowest so dashboards can alert
#: on "anything above zero").
_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: How many transitions the history ring keeps.
_HISTORY_LIMIT = 64


class CircuitBreaker:
    """Trip after consecutive failures, probe after a cool-down.

    Parameters
    ----------
    name:
        Telemetry label, e.g. ``"engine.scheduled"`` or ``"disk"``.
    failure_threshold:
        Consecutive failures that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before probing.
    half_open_probes:
        Successful probes required to close again.
    clock:
        Monotonic seconds; injectable for deterministic tests.
    metrics:
        The registry to count into (a private one when omitted).
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        reset_timeout: float = 0.5,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if half_open_probes < 1:
            raise ValidationError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        if reset_timeout < 0:
            raise ValidationError(
                f"reset_timeout must be >= 0, got {reset_timeout}"
            )
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._opened_at: float | None = None
        self._transitions: list[tuple[float, str, str]] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rejections = self.metrics.counter(
            "breaker_rejections_total", breaker=name
        )
        self._state_gauge = self.metrics.gauge("breaker_state",
                                               breaker=name)

    @property
    def rejections(self) -> int:
        """Calls refused while open or out of half-open probes."""
        return self._rejections.value

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _transition(self, new_state: str) -> None:
        """Record a state change (caller holds the lock)."""
        old = self._state
        self._state = new_state
        self._transitions.append((self._clock(), old, new_state))
        del self._transitions[:-_HISTORY_LIMIT]
        self.metrics.counter(
            "breaker_transitions_total", breaker=self.name,
            state=new_state,
        ).inc()
        self._state_gauge.set(_STATE_GAUGE[new_state])

    def allow(self) -> bool:
        """May a call proceed right now?

        In the open state this flips to half-open once the reset
        timeout has elapsed and then admits up to ``half_open_probes``
        concurrent probes; every refusal is counted.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                assert self._opened_at is not None
                if (
                    self._clock() - self._opened_at
                    < self.reset_timeout
                ):
                    self._rejections.inc()
                    return False
                self._transition(HALF_OPEN)
                self._probes_in_flight = 0
                self._probe_successes = 0
            # Half-open: admit a bounded number of probes.
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            self._rejections.inc()
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._transition(CLOSED)
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately.
                self._transition(OPEN)
                self._opened_at = self._clock()
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(OPEN)
                self._opened_at = self._clock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def reset(self) -> None:
        """Force-close (operator override)."""
        with self._lock:
            if self._state != CLOSED:
                self._transition(CLOSED)
            self._consecutive_failures = 0
            self._probes_in_flight = 0
            self._probe_successes = 0
            self._opened_at = None

    def retry_after(self) -> float:
        """Seconds until the breaker would next admit a probe."""
        with self._lock:
            if self._state != OPEN or self._opened_at is None:
                return 0.0
            remaining = (
                self._opened_at + self.reset_timeout - self._clock()
            )
            return max(0.0, remaining)

    def transitions(self) -> list[tuple[float, str, str]]:
        """Bounded ``(t, old, new)`` history, oldest first."""
        with self._lock:
            return list(self._transitions)

    def snapshot(self) -> dict:
        """One health()-ready dict of the breaker's current state."""
        with self._lock:
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "rejections": self._rejections.value,
                "transitions": len(self._transitions),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker({self.name!r}, {self.state})"
