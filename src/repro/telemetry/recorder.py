"""The failure flight recorder: a bounded ring of recent structured
events that can dump a post-mortem bundle the moment something goes
wrong.

Latency histograms say *that* the p99 blew up; the flight recorder
says *what the last two thousand requests were doing when it did*.
:meth:`FlightRecorder.record` appends one small structured event
(admission, shed, retry, breaker transition, delivery, failure) to a
fixed-capacity ring buffer — O(1), lock-guarded, allocation-light —
so it can stay on permanently, even at load.

On a trigger (SLO breach, shed burst, unexpected error) the serving
core calls :meth:`FlightRecorder.dump`, which freezes the ring plus
every registered *snapshot provider* (breaker states, queue depth,
SLO status, active spans) into a JSON-safe **post-mortem bundle**, and
— when a dump directory is configured — writes it to
``postmortem-<seq>-<reason>.json``.  Dumps are rate-limited per
reason so a flapping trigger cannot fill the disk.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import _jsonable

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded ring buffer of structured events + post-mortem dumps.

    Parameters
    ----------
    capacity:
        Events retained (oldest evicted first).
    dump_dir:
        Directory post-mortem bundles are written to (created on
        demand); ``None`` keeps bundles in memory only
        (:attr:`last_bundle`).
    min_dump_interval_s:
        Minimum seconds between two dumps for the *same* reason.
    clock:
        Monotonic seconds; injectable for deterministic tests.
    metrics:
        The registry its ``recorder_events_total`` /
        ``recorder_dumps_total`` counters live in (a private one when
        omitted).
    """

    def __init__(
        self,
        capacity: int = 2048,
        dump_dir: str | Path | None = None,
        min_dump_interval_s: float = 1.0,
        clock=time.monotonic,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.min_dump_interval_s = float(min_dump_interval_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=self.capacity)
        self._providers: dict[str, object] = {}
        self._last_dump: dict[str, float] = {}
        self._seq = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._recorded = self.metrics.counter("recorder_events_total")
        self._dumps = self.metrics.counter("recorder_dumps_total")
        #: The most recent bundle, for in-process inspection.
        self.last_bundle: dict | None = None
        #: Paths of bundles written to ``dump_dir``.
        self.dump_paths: list[Path] = []

    @property
    def recorded(self) -> int:
        """Total events ever recorded (the ring may have evicted some)."""
        return self._recorded.value

    @property
    def dumps(self) -> int:
        """Bundles produced (rate-limited dumps do not count)."""
        return self._dumps.value

    # ------------------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one structured event to the ring."""
        event = {"t": self._clock(), "kind": kind}
        for key, value in fields.items():
            event[key] = _jsonable(value)
        with self._lock:
            self._events.append(event)
        self._recorded.inc()

    def add_provider(self, name: str, fn) -> None:
        """Register a zero-arg callable snapshotted into every dump."""
        with self._lock:
            self._providers[name] = fn

    def events(self) -> list[dict]:
        """The current ring contents, oldest first."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------

    def dump(self, reason: str, force: bool = False,
             **context) -> dict | None:
        """Produce (and persist) a post-mortem bundle.

        Returns the bundle, or ``None`` when a dump for this reason
        happened less than ``min_dump_interval_s`` ago (unless
        ``force``).  Provider failures are captured in the bundle
        instead of propagating — a post-mortem must never take the
        server down with it.
        """
        now = self._clock()
        with self._lock:
            last = self._last_dump.get(reason)
            if (not force and last is not None
                    and now - last < self.min_dump_interval_s):
                return None
            self._last_dump[reason] = now
            events = list(self._events)
            providers = dict(self._providers)
            self._seq += 1
            seq = self._seq
        snapshots: dict[str, object] = {}
        for name, fn in providers.items():
            try:
                snapshots[name] = fn()
            except Exception as exc:  # pragma: no cover - defensive
                snapshots[name] = {
                    "error": f"{type(exc).__name__}: {exc}"
                }
        bundle = {
            "bundle": "repro-flight-recorder",
            "seq": seq,
            "reason": reason,
            "t": now,
            "context": {k: _jsonable(v) for k, v in context.items()},
            "events": events,
            "snapshots": snapshots,
        }
        path = None
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"postmortem-{seq:04d}-{reason}.json"
            try:
                path.write_text(
                    json.dumps(bundle, indent=1, default=repr) + "\n",
                    encoding="utf-8",
                )
            except OSError:
                path = None   # a sick disk must not fail the caller
        self._dumps.inc()
        with self._lock:
            self.last_bundle = bundle
            if path is not None:
                self.dump_paths.append(path)
        if path is not None:
            bundle["path"] = str(path)
        return bundle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FlightRecorder({len(self._events)}/{self.capacity} "
                f"events, {self.dumps} dump(s))")
