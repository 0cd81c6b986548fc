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
something asks for ``lower()`` / ``simulate()`` / ``shard()``).
``Planner.sealed(p, digest)`` skips the program altogether: it is how
the serving layer answers requests.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import telemetry
from repro.errors import SemanticValidationError
from repro.exec.sealed import SealedExecutor
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine
from repro.ir.sealed import SealedProgram
from repro.passes import PassPipeline, default_pipeline, seal_program
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
from repro.staticcheck.semantics import (
    SemanticCertificate,
    validate_translation,
)
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:
    from repro.exec.streaming import StreamingStats
    from repro.shard import ShardedProgram

#: What a lazy handle's loader returns: the planned engine, its
#: optimized program, and the translation-validation certificate.
_Loaded = tuple[Any, KernelProgram, "SemanticCertificate | None"]


class CompiledPermutation:
    """A planned, optimized, fingerprinted permutation.

    Wraps the planned engine together with its pipeline-optimized
    program and the proven flat index maps of
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
        pipeline_signature: str,
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
        self.pipeline_signature = pipeline_signature
        #: The translation-validation proof issued when the planner
        #: optimized this handle's program (``None`` for handles built
        #: outside the planner).
        self.semantic_certificate = semantic_certificate
        #: The sealed (single proven gather) form that
        #: ``apply``/``apply_batch`` execute.
        self.sealed = sealed
        self._load_lock = threading.Lock()
        # Proven shardings, memoized per stripe count.
        self._shards: dict[int, ShardedProgram] = {}
        self._shard_lock = threading.Lock()

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
        """The optimized program (rehydrated on first demand)."""
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
        """The annotate-cost pass's round prediction, from the sealed
        meta (so observing an apply never forces a lazy handle to
        rehydrate its program)."""
        rounds = self.sealed.meta.get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            return rounds
        return None

    def resident_bytes(self) -> int:
        """Bytes this handle pins in memory (cache accounting): the
        sealed index maps plus the program's schedule arrays, counting
        only what is actually resident."""
        total = self.sealed.nbytes
        program = self._program
        if program is not None:
            for op in program.ops:
                for field in op._ARRAY_FIELDS:
                    value = getattr(op, field)
                    if value is not None:
                        total += int(np.asarray(value).nbytes)
        return total

    # -- execution ------------------------------------------------------

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Permute one array as a single proven flat gather."""
        return SealedExecutor().run(self.sealed, a)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute ``k`` stacked payloads in one 2-D gather."""
        return SealedExecutor().run_batch(self.sealed, batch)

    def lower(self) -> KernelProgram:
        """The *optimized* program (the handle's execution substrate)."""
        return self.program

    def simulate(
        self, machine: Any = None, dtype: Any = np.float32
    ) -> Any:
        """Price the optimized program on the HMM cost model."""
        from repro.exec.simulator import SimulatorExecutor

        return SimulatorExecutor().simulate(
            self.program, machine, dtype=dtype
        )

    def shard(self, d: int) -> "ShardedProgram":
        """The proven ``d``-stripe sharding of this handle's program.

        Factors the stored optimized program into ``d`` row stripes
        plus a column exchange, proves the factorisation against the
        whole program's denotation, and memoizes the result per ``d``
        (sharding denotes the full program — worth amortizing exactly
        like planning is).
        """
        with self._shard_lock:
            sharded = self._shards.get(d)
        if sharded is not None:
            return sharded
        from repro.shard import shard_program

        with telemetry.span(
            "planner.shard", d=d, fingerprint=self.fingerprint[:12]
        ):
            sharded = shard_program(self.program, d)
        with self._shard_lock:
            return self._shards.setdefault(d, sharded)

    def shard_fingerprint(self, d: int) -> str:
        """Content-addressed identity of the ``d``-stripe shard plan."""
        return shard_fingerprint(self.fingerprint, d)

    def apply_stream(
        self,
        path_in: str | Path,
        path_out: str | Path,
        d: int = 8,
        max_resident_bytes: int | None = None,
        tmp_dir: str | Path | None = None,
    ) -> "StreamingStats":
        """Permute an on-disk payload out-of-core.

        Reads the ``.npy`` payload at ``path_in``, streams it through
        the proven ``d``-stripe sharding under the resident-bytes
        budget, and writes the permuted payload to ``path_out``.
        """
        from repro.exec.streaming import (
            DEFAULT_RESIDENT_BYTES,
            StreamingExecutor,
        )

        executor = StreamingExecutor(
            max_resident_bytes=max_resident_bytes
            or DEFAULT_RESIDENT_BYTES
        )
        return executor.run_sharded(
            self.shard(d), path_in, path_out, tmp_dir=tmp_dir
        )

    def describe(self) -> str:
        lines = [
            f"compiled {self.engine_name!r}: fingerprint "
            f"{self.fingerprint[:12]}...",
            f"  pipeline {self.pipeline_signature}",
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


class Planner:
    """Compile-once / apply-many front door over the engine registry.

    Parameters
    ----------
    cache_size:
        Capacity (entry count) of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent disk tier (created on
        demand); ``None`` disables it.
    pipeline:
        Pass pipeline to optimize compiled programs with (defaults to
        the process-wide :func:`~repro.passes.default_pipeline`).  The
        pipeline's signature is part of every fingerprint.
    backend:
        Default colouring backend forwarded to ``Engine.plan``.
    cache_max_bytes:
        Optional bound on the memory tier's resident bytes (programs
        plus sealed index maps); LRU-evicted past it.
    disk_max_bytes:
        Optional bound on the disk tier's total sidecar bytes;
        LRU-evicted past it.

    The planner creates the stack's one
    :class:`~repro.telemetry.MetricsRegistry` (:attr:`metrics`) and
    hands it to both cache tiers; a service or server built on this
    planner counts into it too.  :meth:`stats` is a view over it.
    """

    def __init__(
        self,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        pipeline: PassPipeline | None = None,
        backend: str = "auto",
        cache_max_bytes: int | None = None,
        disk_max_bytes: int | None = None,
    ) -> None:
        self.pipeline = pipeline or default_pipeline()
        #: The stack's registry.  Besides the cache and plan counters,
        #: every compile records ``planner_compile_seconds`` labeled by
        #: the cache tier that answered (``memory``/``sealed``/
        #: ``cold``) and the engine, so the latency cliff between
        #: tiers is measurable per request, not just countable.
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
        self.backend = backend
        self._counts = planner_counters(self.metrics, (
            "cold_plans", "shard_plans", "sealed_plans",
            "semantic_rejections",
        ))
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
        return plan_fingerprint(
            digest, engine, width, self.pipeline.signature()
        )

    def sealed(self, p: np.ndarray, digest: str) -> SealedProgram:
        """The proven gather that answers every request for ``p``.

        Every engine computes exactly ``b[p[i]] = a[i]``, so the gather
        is ``p⁻¹`` whatever program would be compiled.  The memory tier
        keys it by the permutation ``digest`` alone: registrations of
        one ``p`` under any engine share one entry.  A miss builds
        ``SealedProgram(scatter=p)`` and re-proves it with
        :meth:`~repro.ir.sealed.SealedProgram.verify` (range,
        bijection, mutual inversion; O(n)) — no colouring, lowering,
        pass pipeline or disk.
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

    def compile(
        self,
        p: np.ndarray,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
        backend: str | None = None,
    ) -> CompiledPermutation:
        """Resolve ``p`` to a :class:`CompiledPermutation`.

        Tier order: memory LRU, sealed disk sidecar, cold
        ``Engine.plan``.  A caller that already holds the permutation's
        digest (e.g. the resilience chain hopping engines) passes it
        via ``digest`` so the array is never re-hashed.
        """
        fp = self.fingerprint(p, engine=engine, width=width,
                              digest=digest)
        t0 = time.perf_counter()
        with telemetry.span(
            "planner.compile", engine=engine, fingerprint=fp[:12]
        ) as sp:
            compiled, tier = self._resolve(fp, p, engine, width,
                                           backend)
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
        backend: str | None,
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
                                                 width, backend)
                    self.memory.put(fp, compiled)
                    return compiled, "sealed"
            plan, program, cert, proven = self._cold_plan(
                p, engine, width, backend
            )
            sealed = self._seal(plan, program, cert)
            compiled = CompiledPermutation(
                engine=plan,
                program=program,
                fingerprint=fp,
                pipeline_signature=self.pipeline.signature(),
                semantic_certificate=cert,
                sealed=sealed,
            )
            if proven:
                self.memory.put(fp, compiled)
                if self.disk is not None:
                    self._store_sealed(fp, sealed)
            return compiled, "cold"

    def _cold_plan(
        self,
        p: np.ndarray,
        engine: str,
        width: int,
        backend: str | None,
    ) -> tuple[Any, KernelProgram, SemanticCertificate, bool]:
        """Plan ``p`` from scratch and optimize it under translation
        validation (:meth:`_optimize_validated`).

        A disk-backed planner persists what it plans, so it also
        certifies the plan's schedule conflict-free/coalesced
        (:func:`~repro.core.io.certify_schedule`) and refuses a
        conflicted one with :class:`~repro.errors.CertificateError`
        before anything is written.
        """
        with telemetry.span("planner.plan", engine=engine):
            plan = get_engine(engine).plan(
                p, width=width, backend=backend or self.backend,
            )
        self._counts["cold_plans"].inc()
        if self.disk is not None:
            from repro.core.io import certify_schedule

            certify_schedule(plan, f"cache {engine!r} plan")
        return (plan, *self._optimize_validated(plan))

    def _seal(
        self,
        plan: Any,
        program: KernelProgram,
        cert: SemanticCertificate,
    ) -> SealedProgram:
        """Collapse a proven program to its sealed form.

        Reuses the just-issued translation-validation certificate (the
        optimized program's, or the raw fallback's), so sealing costs
        one inversion pass, not a re-denotation.
        """
        sealed = seal_program(
            program,
            requested=np.asarray(plan.p),
            certificate=cert,
            pipeline_signature=self.pipeline.signature(),
        )
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
        backend: str | None,
    ) -> CompiledPermutation:
        """A lazy handle over a sealed sidecar hit.

        Applies are served from the sealed maps immediately; the
        program is re-planned from the sealed scatter map — which *is*
        the permutation — only when a caller needs it.
        """

        def loader() -> _Loaded:
            plan, program, cert, _proven = self._cold_plan(
                sealed.scatter, engine, width, backend
            )
            return plan, program, cert

        return CompiledPermutation(
            engine=None,
            program=None,
            fingerprint=fp,
            pipeline_signature=self.pipeline.signature(),
            semantic_certificate=sealed.certificate,
            sealed=sealed,
            loader=loader,
        )

    def compile_sharded(
        self,
        p: np.ndarray,
        d: int,
        engine: str = "scheduled",
        width: int = 32,
        digest: str | None = None,
        backend: str | None = None,
    ) -> "tuple[CompiledPermutation, ShardedProgram]":
        """Compile ``p`` and return its proven ``d``-stripe sharding.

        The handle comes from the usual cache tiers; the sharding is
        memoized on the handle, so repeated calls with the same ``d``
        pay nothing after the first.
        """
        compiled = self.compile(
            p, engine=engine, width=width, digest=digest,
            backend=backend,
        )
        fresh = d not in compiled._shards
        sharded = compiled.shard(d)
        if fresh:
            self._counts["shard_plans"].inc()
        return compiled, sharded

    def _optimize_validated(
        self, plan: Any
    ) -> tuple[KernelProgram, SemanticCertificate, bool]:
        """Optimize a plan's program under translation validation.

        Runs the pipeline in ``validate=True`` mode and certifies the
        result against the requested permutation.  On refutation the
        compile is *not* failed: the raw (unoptimized) program — which
        must itself denote the requested permutation, or
        :class:`~repro.errors.SemanticValidationError` is raised — is
        returned with its positive fallback certificate, so it is
        sealed and served like any other; ``semantic_rejections`` is
        counted, the enclosing span is tagged with the blamed pass
        (``semantic_rejected``), and the returned ``proven`` flag is
        False so callers refuse to cache the handle in memory or store
        its sidecar.
        """
        raw = plan.lower()
        requested = np.asarray(plan.p)
        signature = self.pipeline.signature()
        try:
            optimized = self.pipeline.run(raw, validate=True)
            cert = validate_translation(
                raw, optimized, requested=requested,
                pipeline_signature=signature,
            )
            if cert.ok:
                return optimized, cert, True
        except SemanticValidationError as exc:
            cert = exc.certificate
        self._counts["semantic_rejections"].inc()
        blame = getattr(cert, "blame", None) or "<pipeline>"
        telemetry.current_span().set(semantic_rejected=blame)
        # Fall back to the raw program — still proved against the
        # requested permutation, because an unproven optimization must
        # degrade to slower, never to wrong.
        fallback = validate_translation(raw, raw, requested=requested)
        if not fallback.ok:
            raise SemanticValidationError(
                f"lowered program of engine "
                f"{getattr(type(plan), 'engine_name', '?')!r} does not "
                f"denote the requested permutation: "
                f"{fallback.summary()}",
                certificate=fallback,
            )
        return raw, fallback, False

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
        lines = [f"planner: pipeline {self.pipeline.signature()}"]
        for key, value in sorted(self.stats().items()):
            lines.append(f"  {key:<18} {value}")
        return "\n".join(lines)
