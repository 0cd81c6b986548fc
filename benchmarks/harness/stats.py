"""The one timing helper every harness measurement goes through."""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

#: Candidate tail percentiles, highest first.  A summary reports the
#: highest one that leaves at least ``TAIL_MIN_BEYOND`` samples above
#: it, so a tail is never read off a handful of points.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles, the highest supported tail percentile and n.

    ``tail_pct`` / ``tail`` are ``None`` when fewer than
    ``2 * TAIL_MIN_BEYOND`` samples exist (not even the median has ten
    samples beyond it).
    """
    xs = np.asarray(samples, dtype=np.float64)
    n = int(xs.size)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    q1, median, q3 = np.percentile(xs, [25.0, 50.0, 75.0])
    tail_pct = next(
        (p for p in TAIL_PERCENTILES
         if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND),
        None,
    )
    tail = (
        float(np.percentile(xs, tail_pct)) if tail_pct is not None
        else None
    )
    return {"n": n, "median": float(median), "q1": float(q1),
            "q3": float(q3), "tail_pct": tail_pct, "tail": tail}


def percentile(samples: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64),
                               pct))


def timed(
    fn: Callable[[], Any],
    tracer: Any = None,
    name: str = "",
    **attributes: Any,
) -> tuple[Any, float]:
    """Run ``fn`` once; return ``(result, seconds)``.

    With a tracer, the call is also recorded as a span named ``name``
    (nested under the calling thread's open span, if any).
    """
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    with tracer.span(name, **attributes):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
    return out, elapsed

