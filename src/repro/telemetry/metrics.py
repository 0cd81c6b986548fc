"""Labeled metric instruments: counters, gauges and log-bucketed
histograms, collected in a :class:`MetricsRegistry`.

The tracer (:mod:`repro.telemetry.tracer`) answers *what did this run
do*; the registry answers *what is the distribution over many
requests*.  Its workhorse is :class:`Histogram` — a log-bucketed,
mergeable latency histogram with quantile estimation — because serving
percentiles (p50/p99/p999) are exactly the numbers an SLO is written
against and a plain counter cannot produce them.

Design points:

* **log buckets** — bucket ``i`` covers ``(base·g^(i-1), base·g^i]``
  with growth ``g = 2^(1/4)`` (about 19 % relative resolution over
  the whole range), stored sparsely in a dict so an instrument that
  only ever sees millisecond latencies pays for millisecond buckets
  only;
* **mergeable** — two histograms with the same bucketing merge by
  adding bucket counts; rolling-window monitors
  (:mod:`repro.telemetry.slo`) exploit this by keeping one small
  histogram per time slice and merging on read;
* **labels** — ``registry.counter("server_requests_total",
  tenant="a", outcome="ok")`` returns a per-label-set child
  instrument, cached so the hot path is one lock-free dict lookup
  (hot call sites go further and keep the returned handle);
* **one store** — the registry is the only place the library keeps a
  count or gauge: the planner, caches, service, server and flight
  recorder of one stack all count into the planner's registry,
  and their ``stats()`` are views over it;
* **names checked up front** — a metric or label name outside the
  Prometheus grammar, or a negative counter increment, raises
  :class:`ValueError` instead of producing exposition the
  :func:`~repro.telemetry.validate_prometheus_text` parser rejects;
* **thread-safe** — every instrument guards its state with a lock;
  serving workers record concurrently;
* **Prometheus text exposition** — :meth:`MetricsRegistry.prometheus_text`
  renders the conventional format (histograms as cumulative ``_bucket``
  samples with ``le`` labels plus ``_sum``/``_count``), served by the
  ``/metrics`` endpoint (:mod:`repro.telemetry.httpd`).
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
]

#: Smallest distinguishable value (1 microsecond when observing
#: seconds); everything at or below lands in bucket 0.
_BASE = 1e-6
#: Bucket growth factor: 4 buckets per octave, ~19 % resolution.
_GROWTH = 2.0 ** 0.25
_LOG_GROWTH = math.log(_GROWTH)

#: Default percentile set reported by :meth:`Histogram.percentiles`.
_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
              ("p999", 0.999))


class Histogram:
    """Log-bucketed, mergeable histogram with quantile estimation.

    Values are non-negative floats (canonically seconds).  Buckets are
    sparse: index ``i >= 1`` covers ``(base·g^(i-1), base·g^i]`` and
    index ``0`` covers ``[0, base]``.
    """

    __slots__ = ("_lock", "buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    @staticmethod
    def bucket_index(value: float) -> int:
        """The sparse bucket index covering ``value``."""
        if value <= _BASE:
            return 0
        return max(1, math.ceil(math.log(value / _BASE) / _LOG_GROWTH))

    @staticmethod
    def bucket_upper(index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        return _BASE * _GROWTH ** index if index > 0 else _BASE

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to zero)."""
        v = float(value)
        if v < 0.0:
            v = 0.0
        idx = self.bucket_index(v)
        with self._lock:
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s samples into this histogram; returns self."""
        with other._lock:
            buckets = dict(other.buckets)
            count, total = other.count, other.total
            lo, hi = other.min, other.max
        with self._lock:
            for idx, c in buckets.items():
                self.buckets[idx] = self.buckets.get(idx, 0) + c
            self.count += count
            self.total += total
            if lo < self.min:
                self.min = lo
            if hi > self.max:
                self.max = hi
        return self

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear within the hit bucket).

        Returns ``0.0`` for an empty histogram.  Estimates are clamped
        to the observed ``[min, max]`` so outlier-free data never
        reports a quantile beyond what was seen.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cum = 0.0
            for idx in sorted(self.buckets):
                c = self.buckets[idx]
                if cum + c >= target:
                    lo = 0.0 if idx == 0 else self.bucket_upper(idx - 1)
                    hi = self.bucket_upper(idx)
                    frac = (target - cum) / c
                    est = lo + frac * (hi - lo)
                    return min(max(est, self.min), self.max)
                cum += c
            return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> dict[str, float]:
        """The standard quantile set as ``{"p50": ..., ...}``."""
        return {name: self.quantile(q) for name, q in _QUANTILES}

    def snapshot(self) -> dict:
        """A JSON-safe point-in-time summary."""
        with self._lock:
            count, total = self.count, self.total
            lo = self.min if self.count else 0.0
            hi = self.max
        out = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
        }
        out.update(self.percentiles())
        return out

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs for exposition."""
        with self._lock:
            items = sorted(self.buckets.items())
        out: list[tuple[float, int]] = []
        cum = 0
        for idx, c in items:
            cum += c
            out.append((self.bucket_upper(idx), cum))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, mean={self.mean:.6f})"


class Counter:
    """Monotonically increasing total (an ``int`` while every
    increment is one, so event counts read back exactly)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def inc(self, n: float = 1) -> float:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self.value += n
            return self.value


class Gauge:
    """Last-write-wins measurement; :meth:`inc` moves it by a signed
    delta (resident bytes grow and shrink)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, delta: float) -> float:
        with self._lock:
            self.value += delta
            return self.value


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: The exposition grammar (Prometheus text format 0.0.4).
_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class _Family:
    """All children of one metric name (one per label set)."""

    __slots__ = ("name", "kind", "children")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Named, labeled instruments with Prometheus exposition.

    The same ``(name, labels)`` pair always resolves to the same
    instrument object, so hot paths can either look up per call (one
    dict hit) or cache the returned handle.  Names (with the prefix)
    and label names must fit the Prometheus grammar; anything else
    raises :class:`ValueError` when first registered.
    """

    def __init__(self, prefix: str = "repro_") -> None:
        self.prefix = prefix
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        # (kind, name, labels in call order) -> instrument: the
        # lock-free fast path for repeat lookups.
        self._handles: dict[tuple, object] = {}

    def _instrument(self, kind: str, name: str,
                    labels: dict[str, str]):
        fast = (kind, name, tuple(labels.items()))
        child = self._handles.get(fast)
        if child is not None:
            return child
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                if not _METRIC_NAME_RE.match(self.prefix + name):
                    raise ValueError(
                        f"metric name {self.prefix + name!r} is "
                        "outside the Prometheus grammar "
                        "[a-zA-Z_:][a-zA-Z0-9_:]*"
                    )
                family = self._families[name] = _Family(name, kind)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}"
                )
            child = family.children.get(key)
            if child is None:
                for label, _value in key:
                    if (not _LABEL_NAME_RE.match(label)
                            or label.startswith("__")):
                        raise ValueError(
                            f"label name {label!r} of metric {name!r} "
                            "is outside the Prometheus grammar "
                            "[a-zA-Z_][a-zA-Z0-9_]* (or reserved)"
                        )
                child = family.children[key] = _KINDS[kind]()
            self._handles[fast] = child
            return child

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument("histogram", name, labels)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Nested JSON-safe snapshot: name -> [{labels, ...state}]."""
        with self._lock:
            families = {
                name: (f.kind, dict(f.children))
                for name, f in self._families.items()
            }
        out: dict[str, list[dict]] = {}
        for name in sorted(families):
            kind, children = families[name]
            rows = []
            for key in sorted(children):
                child = children[key]
                row: dict = {"labels": dict(key), "kind": kind}
                if kind == "histogram":
                    row.update(child.snapshot())
                else:
                    row["value"] = child.value
                rows.append(row)
            out[name] = rows
        return out

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            families = {
                name: (f.kind, dict(f.children))
                for name, f in self._families.items()
            }
        lines: list[str] = []
        for name in sorted(families):
            kind, children = families[name]
            metric = self.prefix + name
            lines.append(f"# TYPE {metric} {kind}")
            for key in sorted(children):
                child = children[key]
                label_str = ",".join(
                    f'{k}="{_escape(v)}"' for k, v in key
                )
                if kind == "histogram":
                    cum = child.cumulative_buckets()
                    for upper, count in cum:
                        le = ((label_str + ",") if label_str else "")
                        lines.append(
                            f'{metric}_bucket{{{le}le="{upper:.9g}"}}'
                            f" {count}"
                        )
                    le = ((label_str + ",") if label_str else "")
                    lines.append(
                        f'{metric}_bucket{{{le}le="+Inf"}} '
                        f"{child.count}"
                    )
                    braces = f"{{{label_str}}}" if label_str else ""
                    lines.append(
                        f"{metric}_sum{braces} {child.total:.9g}"
                    )
                    lines.append(
                        f"{metric}_count{braces} {child.count}"
                    )
                else:
                    braces = f"{{{label_str}}}" if label_str else ""
                    lines.append(
                        f"{metric}{braces} {child.value:.9g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def quantile_from_buckets(
    buckets: list[tuple[float, float]], q: float
) -> float:
    """Estimate a quantile from cumulative ``(le, count)`` pairs.

    The standard Prometheus-side histogram_quantile interpolation,
    used by the ``repro top`` dashboard when it only has a scraped
    ``/metrics`` exposition to work from.  ``buckets`` must be sorted
    by ``le``; the ``+Inf`` bucket may be ``math.inf``.
    """
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    prev_le, prev_count = 0.0, 0.0
    for le, count in buckets:
        if count >= target:
            if math.isinf(le):
                return prev_le
            if count == prev_count:
                return le
            frac = (target - prev_count) / (count - prev_count)
            return prev_le + frac * (le - prev_le)
        prev_le, prev_count = le, count
    return prev_le
