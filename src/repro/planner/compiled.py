"""The :class:`Planner` (compile-once front door) and the
:class:`CompiledPermutation` handle it returns.

``Planner.compile(p)`` resolves a permutation to a compiled handle by
walking the cache tiers cheapest-first — in-memory LRU, then the
**sealed** sidecar on disk, then a cold ``Engine.plan`` — and the
handle's ``apply`` / ``apply_batch`` never plan.  On the workload the
paper targets (one permutation, many payloads) this turns every call
after the first into pure apply time, and that apply is always a
*single* proven flat gather: every handle is sealed, and one resolved
from a sealed sidecar serves ``apply`` from the sidecar alone (its
program is re-planned from the sidecar's scatter map lazily, only if
something asks for ``lower()`` / ``simulate()``).
``Planner.sealed(p, digest)`` skips the program altogether: it is how
the serving layer answers requests.  ``Planner.sharded(p, digest, d)``
factors ``p`` into ``d`` stripes for out-of-core streams, once per
``(p, d)`` while the memory tier holds it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import SemanticValidationError
from repro.exec.sealed import SealedExecutor
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine
from repro.ir.sealed import SealedProgram
from repro.passes import seal_proved
from repro.planner.cache import (
    DiskPlanCache,
    LRUPlanCache,
    planner_counters,
)
from repro.planner.fingerprint import (
    permutation_digest,
    plan_fingerprint,
    shard_fingerprint,
)
from repro.shard import ShardedProgram, shard_permutation
from repro.staticcheck.semantics import (
    SemanticCertificate,
    validate_translation,
)
from repro.telemetry import MetricsRegistry

#: What a lazy handle's loader returns: the planned engine, its
#: program, and the certificate proving it denotes ``p``.
_Loaded = tuple[Any, KernelProgram, "SemanticCertificate | None"]


class CompiledPermutation:
    """A planned, proven, fingerprinted permutation.

    Wraps the planned engine together with its lowered program and the
    proven flat index maps of
    :class:`~repro.ir.sealed.SealedProgram`; ``apply`` and
    ``apply_batch`` run the sealed gather, the other methods use the
    stored program (or the already-planned engine) — none of them ever
    re-plans.

    Handles resolved from a sealed disk sidecar are **lazy**: the
    engine and full program stay unloaded (``loader`` re-plans them
    from the sealed scatter map on first demand), while ``apply`` /
    ``apply_batch`` / ``p`` / ``n`` are served from the sealed maps
    alone.
    """

    def __init__(
        self,
        engine: Any,
        program: KernelProgram | None,
        fingerprint: str,
        sealed: SealedProgram,
        semantic_certificate: SemanticCertificate | None = None,
        loader: "Callable[[], _Loaded] | None" = None,
    ) -> None:
        if program is None and loader is None:
            raise ValueError(
                "CompiledPermutation needs a program or a loader"
            )
        self._engine = engine
        self._program = program
        self._loader = loader
        self.fingerprint = fingerprint
        #: The proof, issued when the planner compiled this handle,
        #: that its program denotes ``p`` (``None`` for handles built
        #: outside the planner).
        self.semantic_certificate = semantic_certificate
        #: The sealed (single proven gather) form that
        #: ``apply``/``apply_batch`` execute.
        self.sealed = sealed
        self._load_lock = threading.Lock()

    # -- lazy rehydration ----------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._program is not None:
            return
        with self._load_lock:
            if self._program is not None:
                return
            assert self._loader is not None
            engine, program, cert = self._loader()
            self._engine = engine
            if self.semantic_certificate is None:
                self.semantic_certificate = cert
            # Assigned last: _ensure_loaded's unlocked fast path keys
            # off _program, so it must only become visible once the
            # engine is in place.
            self._program = program

    @property
    def engine(self) -> Any:
        """The planned engine (rehydrated on first demand)."""
        self._ensure_loaded()
        return self._engine

    @property
    def program(self) -> KernelProgram:
        """The lowered program (rehydrated on first demand)."""
        self._ensure_loaded()
        assert self._program is not None
        return self._program

    @property
    def is_loaded(self) -> bool:
        """Whether the engine/program are resident (False only for
        handles resolved from a sidecar that nothing has yet asked for
        their program)."""
        return self._program is not None

    # -- cheap accessors (never force rehydration) ---------------------

    @property
    def p(self) -> np.ndarray:
        return self.sealed.scatter

    @property
    def n(self) -> int:
        return self.sealed.n

    @property
    def width(self) -> int:
        return self.sealed.width

    @property
    def engine_name(self) -> str:
        if self._engine is None:
            return self.sealed.engine
        return str(getattr(type(self._engine), "engine_name", ""))

    def predicted_rounds(self) -> int | None:
        """The program's access-round count, stamped into the sealed
        meta at sealing (so observing an apply never forces a lazy
        handle to rehydrate its program)."""
        rounds = self.sealed.meta.get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            return rounds
        return None

    def resident_bytes(self) -> int:
        """Bytes this handle pins in memory (cache accounting): the
        sealed index maps plus the program's schedule arrays, counting
        only what is actually resident."""
        program = self._program
        return self.sealed.nbytes + (
            program.nbytes if program is not None else 0
        )

    # -- execution ------------------------------------------------------

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Permute one array as a single proven flat gather."""
        return SealedExecutor().run(self.sealed, a)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute ``k`` stacked payloads in one 2-D gather."""
        return SealedExecutor().run_batch(self.sealed, batch)

    def lower(self) -> KernelProgram:
        """The lowered program (the handle's execution substrate)."""
        return self.program

    def simulate(
        self, machine: Any = None, dtype: Any = np.float32
    ) -> Any:
        """Price the program on the HMM cost model."""
        from repro.exec.simulator import SimulatorExecutor

        return SimulatorExecutor().simulate(
            self.program, machine, dtype=dtype
        )

    def describe(self) -> str:
        lines = [
            f"compiled {self.engine_name!r}: fingerprint "
            f"{self.fingerprint[:12]}...",
        ]
        if self.semantic_certificate is not None:
            lines.append("  " + self.semantic_certificate.summary())
        lines.append("  " + self.sealed.describe())
        if self._program is not None:
            lines.append(self._program.describe())
        else:
            lines.append(
                "  program: not resident (sealed handle; rehydrates "
                "on demand)"
            )
        return "\n".join(lines)


@dataclass
class _ColdPath:
    """What a cold plan needs from its :class:`Planner`: the registry
    and its counters.

    It holds no cache tier.  A sidecar handle's lazy loader keeps this
    alive rather than the planner, whose memory tier holds the handle:
    that reference cycle kept every dropped planner's sealed maps
    resident until the cyclic garbage collector ran.
    """

    metrics: MetricsRegistry
    counts: dict[str, Any]

    @contextmanager
    def phase(self, phase: str) -> Iterator[None]:
        """Observe one completed phase of a cold plan into
        ``planner_cold_phase_seconds{phase}``."""
        t0 = time.perf_counter()
        yield
        self.metrics.histogram(
            "planner_cold_phase_seconds", phase=phase
        ).observe(time.perf_counter() - t0)

    def plan(
        self,
        p: np.ndarray,
        engine: str,
        width: int,
    ) -> tuple[Any, KernelProgram, SemanticCertificate]:
        """Plan ``p`` from scratch and prove the plan with two proofs,
        on every planner (``docs/theory.md`` §8).

        1. The 32-round certificate: the plan's schedule is
           conflict-free/coalesced
           (:func:`~repro.core.io.certify_schedule`), or
           :class:`~repro.errors.CertificateError` is raised.
        2. One denotation of the lowered program, a bijection equal to
           ``p``: ``validate_translation(raw, raw, requested=p)``, the
           proof ``save_plan`` embeds.  A program that does not denote
           ``p`` raises :class:`~repro.errors.SemanticValidationError`.

        Planning itself re-checks neither the colourings nor the
        routing; a plan either proof refuses raises before the planner
        caches or writes anything.
        """
        from repro.core.io import certify_schedule

        with self.phase("plan"), telemetry.span("planner.plan",
                                                engine=engine):
            plan = get_engine(engine).plan(p, width=width)
        self.counts["cold_plans"].inc()
        with self.phase("certify"):
            certify_schedule(plan, f"compile {engine!r} plan")
        with self.phase("denote"):
            program = plan.lower()
            cert = validate_translation(
                program, program, requested=np.asarray(plan.p)
            )
        if not cert.ok:
            raise SemanticValidationError(
                f"lowered program of engine {engine!r} does not "
                f"denote the requested permutation: {cert.summary()}",
                certificate=cert,
            )
        return plan, program, cert


class Planner:
    """Compile-once / apply-many front door over the engine registry.

    Parameters
    ----------
    cache_size:
        Capacity (entry count) of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent disk tier (created on
        demand); ``None`` disables it.
    cache_max_bytes:
        Optional bound on the memory tier's resident bytes (programs,
        sealed index maps and shardings); LRU-evicted past it.
    disk_max_bytes:
        Optional bound on the disk tier's total sidecar bytes;
        LRU-evicted past it.

    Every cold compile, with or without ``cache_dir``, proves the plan
    twice before it is cached or written: the 32-round
    conflict-free/coalesced certificate, and one denotation of the raw
    program equal to ``p`` (see :meth:`_ColdPath.plan`).

    The planner creates the stack's one
    :class:`~repro.telemetry.MetricsRegistry` (:attr:`metrics`) and
    hands it to both cache tiers; a service or server built on this
    planner counts into it too.  :meth:`stats` is a view over it.
    """

    def __init__(
        self,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        cache_max_bytes: int | None = None,
        disk_max_bytes: int | None = None,
    ) -> None:
        #: The stack's registry.  Besides the cache and plan counters,
        #: every compile records ``planner_compile_seconds`` labeled by
        #: the cache tier that answered (``memory``/``sealed``/
        #: ``cold``) and the engine, so the latency cliff between
        #: tiers is measurable per request, not just countable.  A cold
        #: plan also records ``planner_cold_phase_seconds`` per phase
        #: (``plan``, ``certify``, ``denote``, ``seal``, ``store``).
        self.metrics = MetricsRegistry()
        self.memory = LRUPlanCache(
            cache_size, max_bytes=cache_max_bytes, metrics=self.metrics
        )
        self.disk = (
            DiskPlanCache(cache_dir, max_bytes=disk_max_bytes,
                          metrics=self.metrics)
            if cache_dir is not None
            else None
        )
        self._counts = planner_counters(self.metrics, (
            "cold_plans", "shard_plans", "sealed_plans",
        ))
        self._cold = _ColdPath(self.metrics, self._counts)
        self._lock = threading.Lock()
        # One lock per in-flight fingerprint: concurrent compiles of
        # the same permutation collapse to a single cold plan, the
        # rest wait and take the memory hit.
        self._inflight: dict[str, threading.Lock] = {}

    def fingerprint(
        self,
        p: np.ndarray,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
    ) -> str:
        """The content-addressed cache key ``compile`` would use."""
        if digest is None:
            digest = permutation_digest(p)
        return plan_fingerprint(digest, engine, width)

    def sealed(self, p: np.ndarray, digest: str) -> SealedProgram:
        """The proven gather that answers every request for ``p``.

        Every engine computes exactly ``b[p[i]] = a[i]``, so the gather
        is ``p⁻¹`` whatever program would be compiled.  The memory tier
        keys it by the permutation ``digest`` alone: registrations of
        one ``p`` under any engine share one entry.  A miss builds
        ``SealedProgram(scatter=p)`` and re-proves it with
        :meth:`~repro.ir.sealed.SealedProgram.verify` (range,
        bijection, mutual inversion; O(n)) — no colouring, lowering
        or disk.
        """
        with telemetry.span("planner.sealed", digest=digest[:12]) as sp:
            hit = self.memory.get(digest)
            if isinstance(hit, SealedProgram):
                sp.set(tier="memory")
                return hit
            sealed = SealedProgram("permutation", 0, p)
            sealed.verify()
            self.memory.put(digest, sealed)
            sp.set(tier="built")
        return sealed

    def sharded(self, p: np.ndarray, digest: str, d: int) -> ShardedProgram:
        """The proven ``d``-stripe sharding that streams ``p``.

        The sharding counterpart of :meth:`sealed`: the memory tier
        keys it by ``shard_fingerprint(digest, d)``, so every stream of
        one ``p`` at one ``d`` shares one entry, whose two gather maps
        (``nbytes``) count against ``cache_max_bytes``.  A miss shards
        ``p`` itself with :func:`~repro.shard.shard_permutation`, which
        checks ``p`` once and proves both maps against it (raising
        :class:`~repro.errors.ShardingError` when ``d`` does not divide
        ``n``), and counts ``shard_plans``; no sealed entry is built or
        kept for it.  Concurrent misses of one key build it once.
        """
        key = shard_fingerprint(digest, d)
        with telemetry.span(
            "planner.shard", digest=digest[:12], d=d
        ) as sp:
            hit = self.memory.get(key)
            if isinstance(hit, ShardedProgram):
                sp.set(tier="memory")
                return hit
            with self._flight(key):
                hit = self.memory.get_if_present(key)
                if isinstance(hit, ShardedProgram):
                    sp.set(tier="memory")
                    return hit
                sharded = shard_permutation(p, d)
                self._counts["shard_plans"].inc()
                self.memory.put(key, sharded)
            sp.set(tier="built")
        return sharded

    def compile(
        self,
        p: np.ndarray,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
    ) -> CompiledPermutation:
        """Resolve ``p`` to a :class:`CompiledPermutation`.

        Tier order: memory LRU, sealed disk sidecar, cold
        ``Engine.plan``.  A caller that already holds the permutation's
        digest (e.g. the service, from the registration) passes it
        via ``digest`` so the array is never re-hashed.
        """
        fp = self.fingerprint(p, engine=engine, width=width,
                              digest=digest)
        t0 = time.perf_counter()
        with telemetry.span(
            "planner.compile", engine=engine, fingerprint=fp[:12]
        ) as sp:
            compiled, tier = self._resolve(fp, p, engine, width)
            sp.set(tier=tier)
        self.metrics.histogram(
            "planner_compile_seconds", tier=tier, engine=engine
        ).observe(time.perf_counter() - t0)
        return compiled

    def _resolve(
        self,
        fp: str,
        p: np.ndarray,
        engine: str,
        width: int,
    ) -> tuple[CompiledPermutation, str]:
        """Walk the tiers for ``fp``; returns (handle, answering tier)."""
        hit = self.memory.get(fp)
        if isinstance(hit, CompiledPermutation):
            return hit, "memory"
        with self._flight(fp):
            # Another thread may have finished this exact compile
            # while we waited; its result is now a memory hit.
            hit = self.memory.get_if_present(fp)
            if isinstance(hit, CompiledPermutation):
                return hit, "memory"
            if self.disk is not None:
                sealed = self.disk.load_sealed(fp, p, engine, width)
                if sealed is not None:
                    compiled = self._from_sealed(fp, sealed, engine,
                                                 width)
                    self.memory.put(fp, compiled)
                    return compiled, "sealed"
            plan, program, cert = self._cold.plan(p, engine, width)
            with self._cold.phase("seal"):
                sealed = self._seal(plan, program, cert)
            compiled = CompiledPermutation(
                engine=plan,
                program=program,
                fingerprint=fp,
                semantic_certificate=cert,
                sealed=sealed,
            )
            self.memory.put(fp, compiled)
            if self.disk is not None:
                with self._cold.phase("store"):
                    self._store_sealed(fp, sealed)
            return compiled, "cold"

    def _seal(
        self,
        plan: Any,
        program: KernelProgram,
        cert: SemanticCertificate,
    ) -> SealedProgram:
        """Collapse a proven program to its sealed form.

        ``cert`` was proved against ``plan.p`` itself
        (:meth:`_ColdPath.plan`), so :func:`seal_proved` takes the
        pair unchecked: sealing costs one inversion pass, with no
        re-denotation and no re-hash.
        """
        sealed = seal_proved(program, np.asarray(plan.p), cert)
        sealed.certificate = cert
        self._counts["sealed_plans"].inc()
        return sealed

    def _store_sealed(
        self, fp: str, sealed: SealedProgram
    ) -> None:
        """Persist the sealed sidecar under its fingerprint."""
        assert self.disk is not None
        sealed.meta["fingerprint"] = fp
        try:
            self.disk.store_sealed(fp, sealed)
        except OSError:
            # A failed persist must not fail the compile; the sealed
            # form still serves from memory.
            telemetry.current_span().set(sealed_store_failed=True)

    def _from_sealed(
        self,
        fp: str,
        sealed: SealedProgram,
        engine: str,
        width: int,
    ) -> CompiledPermutation:
        """A lazy handle over a sealed sidecar hit.

        Applies are served from the sealed maps immediately; the
        program is re-planned from the sealed scatter map — which *is*
        the permutation — only when a caller needs it.
        """

        cold = self._cold

        def loader() -> _Loaded:
            return cold.plan(sealed.scatter, engine, width)

        return CompiledPermutation(
            engine=None,
            program=None,
            fingerprint=fp,
            semantic_certificate=sealed.certificate,
            sealed=sealed,
            loader=loader,
        )

    def _flight(self, fingerprint: str) -> threading.Lock:
        """The single-flight lock serialising cold compiles of one
        fingerprint (created on demand, kept for the planner's life —
        the population is bounded by distinct registrations)."""
        with self._lock:
            return self._inflight.setdefault(
                fingerprint, threading.Lock()
            )

    def stats(self) -> dict:
        """Merged hit/miss/eviction counters across all tiers, read
        from :attr:`metrics`."""
        merged = {key: c.value for key, c in self._counts.items()}
        merged.update(self.memory.stats())
        if self.disk is not None:
            merged.update(self.disk.stats())
        return merged

    def describe(self) -> str:
        lines = ["planner:"]
        for key, value in sorted(self.stats().items()):
            lines.append(f"  {key:<18} {value}")
        return "\n".join(lines)
