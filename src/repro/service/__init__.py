"""The serving layer: a registry-of-permutations front door plus a
concurrent serving core.

:class:`PermutationService` is the user-facing face of the stack: you
*register* named permutations, optionally *warm* them up front, then
*serve* single, batched or out-of-core applies.  Every engine computes
exactly ``b[p[i]] = a[i]``, so a request is answered from the
registration's own ``p``: :meth:`~repro.planner.Planner.sealed` turns
it into one proven gather (``p⁻¹``, verified in O(n)) held in the
planner's memory tier, and no request colours, lowers, runs the pass
pipeline or touches the disk.  :meth:`PermutationService.compiled`
still returns the registered engine's compiled program — the paper's
artifact — for callers that ask for it.  Request and cache counters
live in the planner's :class:`~repro.telemetry.MetricsRegistry`, which
the service shares, so :meth:`PermutationService.stats` and a server's
``/metrics`` read the same numbers.  The service is thread-safe: its
registrations are lock-guarded and its counters are atomic, so many
callers can share one instance.

:class:`PermutationServer` (:mod:`repro.service.server`) wraps a
service in a real server core for heavy mixed traffic: a bounded
request queue with admission control and priority load shedding,
per-request deadlines and per-tenant quotas; each worker serves one
request per apply.  See ``docs/serving.md``.

::

    from repro.service import PermutationService

    svc = PermutationService(width=32)
    svc.register("shuffle", p)
    out = svc.apply("shuffle", a)    # one proven gather, no planning
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.core.theory import TABLE1_ROUNDS, total_rounds
from repro.errors import ValidationError
from repro.exec.sealed import SealedExecutor
from repro.ir.registry import get_engine
from repro.ir.sealed import SealedProgram
from repro.planner import (
    CompiledPermutation,
    Planner,
    permutation_digest,
)
from repro.util.validation import check_permutation

if TYPE_CHECKING:
    from repro.exec.streaming import StreamingStats

__all__ = [
    "PermutationServer",
    "PermutationService",
    "ServeResult",
    "TenantQuota",
]


def _default_engine(n: int, width: int) -> str:
    """Scheduled when n is a width-aligned square, padded otherwise."""
    m = math.isqrt(n) if n > 0 else 0
    if n > 0 and m * m == n and width > 0 and m % width == 0:
        return "scheduled"
    return "padded"


def _engine_rounds(engine: str) -> int | None:
    """Memory-access rounds of the engine's algorithm (Table I).

    The count does not depend on the permutation: 32 for scheduled, 3
    for d-/s-designated.  Padded runs the scheduled algorithm on the
    padded size.  ``None`` for engines Table I does not price.
    """
    algorithm = "scheduled" if engine == "padded" else engine
    if algorithm not in TABLE1_ROUNDS:
        return None
    return total_rounds(algorithm)


class _Registration:
    """One registered permutation: array, digest, engine choice, the
    engine's round count and, once it has been applied, its
    ``exec_apply_seconds`` / ``exec_seconds_per_round`` handles."""

    def __init__(
        self, name: str, p: np.ndarray, engine: str, digest: str
    ) -> None:
        self.name = name
        self.p = p
        self.engine = engine
        self.digest = digest
        self.rounds = _engine_rounds(engine)
        self.apply_seconds: telemetry.Histogram | None = None
        self.seconds_per_round: telemetry.Gauge | None = None


class PermutationService:
    """Register permutations once, serve applies many times.

    Parameters
    ----------
    width:
        Warp width :meth:`compiled` plans every registration for.
    cache_size / cache_dir:
        Forwarded to the owned :class:`~repro.planner.Planner` (unless
        an explicit ``planner`` is supplied, which takes precedence).

    The service counts into its planner's registry (:attr:`metrics`):
    ``service_requests_total``, ``service_elements_served_total`` and
    ``service_reregistrations_total``, and per apply the
    ``exec_apply_seconds`` histogram and, for in-memory applies, the
    measured-vs-model ``exec_seconds_per_round`` gauge (wall time
    divided by the registered engine's Table I round count), per
    engine.
    """

    def __init__(
        self,
        width: int = 32,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        planner: Planner | None = None,
        cache_max_bytes: int | None = None,
        disk_max_bytes: int | None = None,
    ) -> None:
        self.width = width
        self.planner = planner or Planner(
            cache_size=cache_size, cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            disk_max_bytes=disk_max_bytes,
        )
        self.metrics = self.planner.metrics
        self._requests = self.metrics.counter("service_requests_total")
        self._elements = self.metrics.counter(
            "service_elements_served_total"
        )
        self._reregistrations = self.metrics.counter(
            "service_reregistrations_total"
        )
        self._registry: dict[str, _Registration] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        p: np.ndarray,
        engine: str | None = None,
        overwrite: bool = False,
    ) -> str:
        """Register permutation ``p`` under ``name``.

        The permutation is validated and digested exactly once; the
        digest keys the sealed entry every request runs and is reused
        by :meth:`compiled`.  ``engine`` defaults to ``scheduled`` when
        ``n`` is a width-aligned perfect square and ``padded``
        otherwise; an unknown engine name is refused here.  Returns the
        plan fingerprint :meth:`compiled` caches the program under.

        Re-registering the *same* permutation (digest and engine both
        unchanged) is an idempotent no-op, so concurrent clients can
        race on registration safely.  Replacing a name with a
        *different* permutation or engine silently would repoint every
        live caller — that requires ``overwrite=True`` and is counted
        in ``reregistrations``; without it the call raises
        :class:`~repro.errors.ValidationError`.
        """
        if not name:
            raise ValidationError("registration name must be non-empty")
        # A private, read-only copy: the caller may reuse ``p``, and
        # every later seal of this name must see the digested map.
        arr = check_permutation(p).copy()
        arr.flags.writeable = False
        chosen = engine or _default_engine(int(arr.shape[0]),
                                           self.width)
        get_engine(chosen)
        digest = permutation_digest(arr)
        with self._lock:
            existing = self._registry.get(name)
            if existing is not None and (
                existing.digest != digest or existing.engine != chosen
            ):
                if not overwrite:
                    raise ValidationError(
                        f"{name!r} is already registered with a "
                        "different permutation or engine "
                        f"(engine {existing.engine!r}, digest "
                        f"{existing.digest[:12]}...); pass "
                        "overwrite=True to replace it"
                    )
                self._reregistrations.inc()
            self._registry[name] = _Registration(
                name=name, p=arr, engine=chosen, digest=digest
            )
        return self.planner.fingerprint(
            arr, engine=chosen, width=self.width, digest=digest
        )

    def unregister(self, name: str) -> bool:
        """Drop a registration; returns whether it existed."""
        with self._lock:
            return self._registry.pop(name, None) is not None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._registry)

    def _registration(self, name: str | _Registration) -> _Registration:
        """The registration of ``name``; a registration passes through
        unchanged (a server request carries the one it was admitted
        under, so serving it takes no second lookup)."""
        if isinstance(name, _Registration):
            return name
        with self._lock:
            reg = self._registry.get(name)
            if reg is not None:
                return reg
            known = ", ".join(sorted(self._registry)) or "<none>"
        raise ValidationError(
            f"no permutation registered as {name!r}; "
            f"registered: {known}"
        )

    # ------------------------------------------------------------------
    # Compilation / serving
    # ------------------------------------------------------------------

    def compiled(self, name: str) -> CompiledPermutation:
        """The registered engine's compiled program for ``name``
        (planning at most once).  No request path calls this."""
        reg = self._registration(name)
        return self.planner.compile(
            reg.p, engine=reg.engine, width=self.width,
            digest=reg.digest,
        )

    def warm(self, names: list[str] | None = None) -> int:
        """Build and verify the sealed entries of the named
        registrations (all, by default) so later applies are memory
        hits.  Returns how many were warmed."""
        targets = names if names is not None else self.names()
        with telemetry.span("service.warm", count=len(targets)):
            for name in targets:
                self._sealed(name)
        return len(targets)

    def _sealed(
        self, name: str | _Registration
    ) -> tuple[_Registration, SealedProgram]:
        reg = self._registration(name)
        return reg, self.planner.sealed(reg.p, reg.digest)

    def _observe_apply(self, reg: _Registration, elapsed: float) -> None:
        """Record executor metrics for one finished sealed apply.

        ``exec_apply_seconds`` is the wall-time distribution;
        ``exec_seconds_per_round`` divides it by the registered
        engine's round count, so a drifting measured-vs-model ratio
        (per engine) flags an executor regression the cost model did
        not predict.
        """
        # Both handles are resolved on the registration's first apply,
        # so one that is never served adds no empty series.
        apply_seconds = reg.apply_seconds
        if apply_seconds is None:
            apply_seconds = reg.apply_seconds = self.metrics.histogram(
                "exec_apply_seconds", engine=reg.engine, mode="sealed"
            )
        apply_seconds.observe(elapsed)
        if reg.rounds is not None:
            per_round = reg.seconds_per_round
            if per_round is None:
                per_round = reg.seconds_per_round = self.metrics.gauge(
                    "exec_seconds_per_round", engine=reg.engine,
                    mode="sealed",
                )
            per_round.set(elapsed / reg.rounds)

    def apply(self, name: str | _Registration, a: np.ndarray) -> np.ndarray:
        """Serve one payload through the named permutation (or the
        given registration)."""
        reg, sealed = self._sealed(name)
        t0 = time.perf_counter()
        out = SealedExecutor().run(sealed, a)
        self._observe_apply(reg, time.perf_counter() - t0)
        self._requests.inc()
        self._elements.inc(sealed.n)
        return out

    def apply_batch(
        self, name: str | _Registration, batch: np.ndarray
    ) -> np.ndarray:
        """Serve ``k`` stacked payloads through the named permutation."""
        reg, sealed = self._sealed(name)
        t0 = time.perf_counter()
        out = SealedExecutor().run_batch(sealed, batch)
        self._observe_apply(reg, time.perf_counter() - t0)
        k = int(np.asarray(batch).shape[0])
        self._requests.inc(k)
        self._elements.inc(k * sealed.n)
        return out

    def apply_stream(
        self,
        name: str | _Registration,
        path_in: str | Path,
        path_out: str | Path,
        d: int = 8,
        max_resident_bytes: int | None = None,
        tmp_dir: str | Path | None = None,
    ) -> StreamingStats:
        """Serve an on-disk payload out-of-core.

        Streams the ``.npy`` payload at ``path_in`` through the named
        permutation's proven ``d``-stripe sharding
        (:meth:`~repro.planner.Planner.sharded`, built once per
        ``(p, d)`` while the memory tier holds it) under the
        resident-bytes budget, writing the result to ``path_out``.
        ``max_resident_bytes=None`` means the executor's 256 MiB
        default; any other value, ``0`` included, is the budget as
        given.  Returns the :class:`~repro.exec.StreamingStats`; the
        run's ``stream_*`` histograms go to the stack's one registry.
        """
        from repro.exec.streaming import (
            DEFAULT_RESIDENT_BYTES,
            StreamingExecutor,
        )

        reg = self._registration(name)
        with telemetry.span(
            "service.apply_stream", plan=reg.name, d=d
        ) as sp:
            t0 = time.perf_counter()
            executor = StreamingExecutor(
                max_resident_bytes=DEFAULT_RESIDENT_BYTES
                if max_resident_bytes is None
                else max_resident_bytes,
                metrics=self.metrics,
            )
            stats = executor.run_sharded(
                self.planner.sharded(reg.p, reg.digest, d),
                path_in, path_out, tmp_dir=tmp_dir,
            )
            elapsed = time.perf_counter() - t0
            sp.set(
                tiles=stats.tiles_loaded,
                peak_resident=stats.peak_resident_total_bytes,
            )
        # A stream runs its sharding's two gather passes, not the
        # engine's rounds: it has a wall time but no per-round ratio.
        self.metrics.histogram(
            "exec_apply_seconds", engine=reg.engine, mode="stream"
        ).observe(elapsed)
        self._requests.inc()
        self._elements.inc(int(reg.p.shape[0]))
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service counters merged with the planner's cache stats."""
        with self._lock:
            registered = len(self._registry)
        merged = {
            "registered": registered,
            "requests": self._requests.value,
            "elements_served": self._elements.value,
            "reregistrations": self._reregistrations.value,
        }
        merged.update(self.planner.stats())
        return merged

    def describe(self) -> str:
        # One snapshot: a concurrent unregister cannot pull a name out
        # from under the loop.
        with self._lock:
            regs = sorted(self._registry.items())
        lines = [
            f"PermutationService: {len(regs)} registered, "
            f"width {self.width}"
        ]
        for name, reg in regs:
            lines.append(
                f"  {name:<16} n={reg.p.shape[0]:<8} "
                f"engine={reg.engine:<10} digest={reg.digest[:12]}..."
            )
        for key, value in sorted(self.planner.stats().items()):
            lines.append(f"  {key:<18} {value}")
        return "\n".join(lines)


# Imported after PermutationService so repro.service.server can import
# the class from the (partially initialised) package.
from repro.service.quotas import TenantQuota  # noqa: E402
from repro.service.server import (  # noqa: E402
    PermutationServer,
    ServeResult,
)
