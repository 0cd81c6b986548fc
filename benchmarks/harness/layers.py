"""The ``--trace`` layer probe: each layer timed from outside.

Every trace run pushes the three families, at the workload's own
size, through each layer's public entry point one call at a time, so
each run reports the same per-layer metrics priced at its own ``n``.
Each call is a span on the harness's own tracer (never installed as
the library's active tracer).

Server-side numbers come from the workload's own served requests when
it serves; otherwise a one-second closed loop over the probe's
handles stands in.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any

import numpy as np

from repro.core.distribution import distribution
from repro.core.io import load_sealed, save_plan, save_sealed
from repro.core.theory import conventional_time, scheduled_time_paper
from repro.ir.registry import get_engine
from repro.passes import default_pipeline, seal_program
from repro.planner import Planner, permutation_digest
from repro.service import PermutationServer, PermutationService
from repro.staticcheck import (
    certify_plan,
    denote_program,
    validate_translation,
)

from .stats import percentile, timed
from .workloads import (
    APPLY_BATCH_K,
    ENGINE,
    FAMILIES,
    WIDTH,
    WORKERS,
    Registration,
    Run,
    Served,
    family_permutation,
    rotations,
    scatter,
    serve_loop,
)

#: HMM latency the model metrics are priced at (the paper's l = 100).
MODEL_LATENCY = 100
#: Wall-clock budget of one repeated probe measurement, and the
#: bounds on its repetitions.
REPEAT_BUDGET_S = 0.3
MIN_REPS = 5
MAX_REPS = 200
SERVER_PROBE_S = 1.0
#: The steps of a cold compile whose sum ``planner.cold_attributed_frac``
#: divides by the measured cold compile.
ATTRIBUTED = ("planner.fingerprint_s", "coloring.plan_s", "ir.lower_s",
              "passes.pipeline_s", "staticcheck.validate_s",
              "passes.seal_s", "core.io.save_plan_s",
              "core.io.save_sealed_s")


class _Probe:
    """Times calls for one family; each call is a span named after
    its metric (without the ``_s`` suffix) and tagged with a sample
    id."""

    def __init__(self, run: Run, tracer: Any, family: str) -> None:
        self.run = run
        self.tracer = tracer
        self.family = family
        self.budget = REPEAT_BUDGET_S / (4 if run.quick else 1)
        self.m: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def _timed(self, metric: str, fn: Any) -> tuple[Any, float]:
        return timed(fn, self.tracer, metric.removesuffix("_s"),
                     family=self.family, sample=self.run.sample_id())

    def once(self, metric: str, fn: Any) -> Any:
        out, self.m[metric] = self._timed(metric, fn)
        return out

    def repeat(self, metric: str, fn: Any) -> list[Any]:
        """Time ``fn`` at least ``MIN_REPS`` and at most ``MAX_REPS``
        times, until the budget has passed; the metric is the median."""
        outs: list[Any] = []
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < MAX_REPS and (
                len(times) < MIN_REPS
                or time.perf_counter() - start < self.budget):
            out, dt = self._timed(metric, fn)
            outs.append(out)
            times.append(dt)
        self.m[metric] = float(np.median(times))
        self.samples[metric] = times
        return outs


def _planner_layers(probe: _Probe, p: np.ndarray, a: np.ndarray,
                    expected: np.ndarray, planner: Planner) -> Any:
    """One family's cold path, end to end and then step by step."""
    run, family = probe.run, probe.family
    compiled = probe.once("planner.compile_cold_s",
                          lambda: planner.compile(p, engine=ENGINE,
                                                  width=WIDTH))
    run.check(compiled.apply(a), expected)

    probe.repeat("planner.fingerprint_s", lambda: planner.fingerprint(p))
    plan = probe.once("coloring.plan_s",
                      lambda: get_engine(ENGINE).plan(p, width=WIDTH))
    raw = probe.once("ir.lower_s", plan.lower)
    opt = probe.once("passes.pipeline_s",
                     lambda: default_pipeline().run(raw, validate=True))
    cert = probe.once("staticcheck.validate_s",
                      lambda: validate_translation(raw, opt, requested=p))
    probe.once("staticcheck.certify_s", lambda: certify_plan(plan))
    probe.once("staticcheck.denote_s", lambda: denote_program(opt))
    sealed = probe.once("passes.seal_s",
                        lambda: seal_program(opt, requested=p,
                                             certificate=cert))
    sealed.certificate = cert
    files = run.workdir / "probe-files"
    files.mkdir(exist_ok=True)
    plan_path = files / f"{family}.npz"
    sealed_path = files / f"{family}.sealed.npz"
    probe.once("core.io.save_plan_s",
               lambda: save_plan(plan_path, plan, certify=True))
    probe.once("core.io.save_plan_bare_s",
               lambda: save_plan(files / f"{family}.bare.npz", plan,
                                 certify=False))
    probe.once("core.io.save_sealed_s",
               lambda: save_sealed(sealed_path, sealed))
    probe.m["core.io.plan_bytes"] = plan_path.stat().st_size
    probe.m["core.io.sealed_bytes"] = sealed_path.stat().st_size
    for loaded in probe.repeat("core.io.load_sealed_s",
                               lambda: load_sealed(sealed_path)):
        run.check(loaded.gather, sealed.gather)

    directory = planner.disk.directory
    for handle in probe.repeat(
            "planner.compile_sealed_s",
            lambda: Planner(cache_dir=directory).compile(
                p, engine=ENGINE, width=WIDTH)):
        run.check(handle.apply(a), expected)
    digest = permutation_digest(p)
    probe.repeat("planner.compile_memory_hit_s",
                 lambda: planner.compile(p, engine=ENGINE, width=WIDTH,
                                         digest=digest))
    probe.m["planner.cold_attributed_frac"] = (
        sum(probe.m[k] for k in ATTRIBUTED)
        / probe.m["planner.compile_cold_s"])
    return compiled


def _exec_layers(probe: _Probe, compiled: Any, p: np.ndarray,
                 a: np.ndarray, expected: np.ndarray) -> None:
    """Sealed single and batch applies, the numpy scatter on the same
    arrays, and the HMM model's counts for this permutation."""
    run, family = probe.run, probe.family
    for out in probe.repeat(f"exec.sealed.apply_s.{family}",
                            lambda: compiled.apply(a)):
        run.check(out, expected)
    offsets = np.arange(APPLY_BATCH_K, dtype=np.float32)[:, None]
    stacked = a + offsets
    expected_batch = expected[None, :] + offsets
    for out in probe.repeat(f"exec.sealed.batch_apply_s.{family}",
                            lambda: compiled.apply_batch(stacked)):
        run.check(out, expected_batch)
    probe.repeat(f"baseline.scatter_s.{family}", lambda: scatter(p, a))

    n = int(p.shape[0])
    apply_s = probe.m[f"exec.sealed.apply_s.{family}"]
    # Payload read + payload write + int64 gather-index read.
    probe.m[f"exec.sealed.gbps.{family}"] = (
        n * (2 * a.itemsize + 8) / apply_s / 1e9)
    conventional = conventional_time(n, WIDTH, MODEL_LATENCY,
                                     distribution(p, WIDTH))
    probe.m[f"machine.conventional_time_units.{family}"] = conventional
    probe.m[f"machine.s_per_unit.{family}"] = apply_s / conventional
    rounds = compiled.predicted_rounds()
    probe.m["machine.rounds"] = -1.0 if rounds is None else float(rounds)


def _service_layer(probe: _Probe, planner: Planner, p: np.ndarray,
                   a: np.ndarray, expected: np.ndarray) -> None:
    service = PermutationService(width=WIDTH, planner=planner)
    service.register(probe.family, p, engine=ENGINE)
    for out in probe.repeat("service.apply_s",
                            lambda: service.apply(probe.family, a)):
        probe.run.check(out, expected)


def _copy_gbps(run: Run, n: int, tracer: Any) -> float:
    """Single-threaded ``np.copyto`` bandwidth on an n-element payload."""
    src = run.payload(n)
    dst = np.empty_like(src)
    probe = _Probe(run, tracer, "copy")
    probe.repeat("baseline.copy_s", lambda: np.copyto(dst, src))
    run.check(dst, src)
    return 2 * src.nbytes / probe.m["baseline.copy_s"] / 1e9


def server_layers(served: list[Served]) -> dict[str, float]:
    """Where a served request's time went, from ``ServeResult``."""
    latency = [s.latency for s in served]
    overhead = [s.latency - s.wait - s.service for s in served]
    return {
        "server.wait_p50_ms": percentile([s.wait for s in served], 50) * 1e3,
        "server.service_p50_ms": percentile([s.service for s in served],
                                            50) * 1e3,
        "server.overhead_p50_ms": percentile(overhead, 50) * 1e3,
        "server.latency_p99_ms": percentile(latency, 99) * 1e3,
        "server.coalesced_frac": float(np.mean([s.coalesced
                                                for s in served])),
        "server.attempts_per_request": float(np.mean([s.attempts
                                                      for s in served])),
    }


def _serve_probe(run: Run, planner: Planner,
                 regs: dict[str, Registration],
                 tracer: Any) -> tuple[list[Served], dict]:
    """A short served loop over the probe's resident handles."""
    server = PermutationServer(
        PermutationService(width=WIDTH, planner=planner), workers=WORKERS)
    try:
        for family, reg in regs.items():
            server.register(family, reg.p, engine=ENGINE)
        seconds = SERVER_PROBE_S / (4 if run.quick else 1)
        with tracer.span("probe.serve"):
            served, _ = serve_loop(run, server, regs,
                                   rotations(list(regs)), seconds,
                                   tracer)
        return served, server.stats()
    finally:
        server.close()


def probe(run: Run, n: int, tracer: Any,
          served: list[Served] | None,
          server_stats: dict | None) -> dict[str, float]:
    """All per-layer metrics for one workload at size ``n``.

    ``served`` / ``server_stats`` are the workload's own served
    requests and its server's ``stats()``; ``None`` when the workload
    does not serve, in which case a short served loop over the probe's
    handles provides them.
    """
    planner = Planner(cache_dir=run.workdir / "probe-cache")
    probes: list[_Probe] = []
    regs: dict[str, Registration] = {}
    for family in FAMILIES:
        p = family_permutation(family, n, run.seed)
        reg = regs[family] = Registration.build(run, p)
        a, b = reg.payloads[0], reg.expected[0]
        fp = _Probe(run, tracer, family)
        with tracer.span("probe", family=family, n=n):
            compiled = _planner_layers(fp, p, a, b, planner)
            _exec_layers(fp, compiled, p, a, b)
            _service_layer(fp, planner, p, a, b)
        probes.append(fp)

    # Keys ending in the family name stay per family; the rest are
    # family means.
    metrics: dict[str, float] = {}
    for fp in probes:
        metrics.update({k: v for k, v in fp.m.items()
                        if k.endswith("." + fp.family)})
    for key in probes[0].m:
        if not key.endswith("." + probes[0].family):
            metrics[key] = float(np.mean([fp.m[key] for fp in probes]))
    metrics["exec.sealed.apply_p95_s"] = percentile(
        [t for fp in probes
         for t in fp.samples[f"exec.sealed.apply_s.{fp.family}"]], 95)
    metrics["baseline.copy_gbps"] = _copy_gbps(run, n, tracer)
    for family in FAMILIES:
        metrics[f"exec.sealed.bw_frac.{family}"] = (
            metrics[f"exec.sealed.gbps.{family}"]
            / metrics["baseline.copy_gbps"])
    metrics["machine.scheduled_time_units"] = float(
        scheduled_time_paper(n, WIDTH, MODEL_LATENCY))

    if served is None:
        served, server_stats = _serve_probe(run, planner, regs, tracer)
    assert server_stats is not None
    metrics.update(server_layers(served))
    metrics["server.shed"] = float(server_stats.get("server.shed", 0))
    metrics["server.retries"] = float(
        server_stats.get("server.retries", 0))
    return metrics


def timed_phase_counts(counts: Counter[str]) -> dict[str, float]:
    """Planner counters over a workload's timed phases."""
    lookups = counts["memory_hits"] + counts["memory_misses"]
    return {
        "planner.cold_plans": float(counts["cold_plans"]),
        "planner.sealed_hits": float(counts["sealed_hits"]),
        "planner.memory_hit_frac": (counts["memory_hits"] / lookups
                                    if lookups else 0.0),
    }
