"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cost``        price a named permutation on a configurable HMM
                (``--engine`` adds any registered engine to the table;
                ``--roundtrip`` adds the permutation composed with its
                inverse, raw vs pipeline-optimized)
``plan``        plan a permutation with any registered engine
                (``--engine``, default ``scheduled``) and save it
                (.npz, stamped with fingerprint provenance)
``verify-plan`` reload a saved plan and re-verify it (exit 1 + one-line
                diagnostic on a corrupt/stale/unreadable file); prints
                the fingerprint provenance when stamped
``check``       run the project's static lint rules (REP101..REP107)
                over the package or given paths; exit 1 on findings.
                ``--semantics <perm-or-plan.npz>`` instead denotes a
                program op by op, proves bijectivity, and
                translation-validates the pass pipeline against it,
                printing the per-op denotation summary and the
                certificate verdict (exit 1 on any divergence)
``profile``     trace one permutation end to end: per-phase wall/model
                table, optional Chrome trace + JSONL event log
``serve-demo``  the compile-once/apply-many service: register, warm,
                serve batched applies, show hit/miss/eviction counters
                (``--concurrent`` adds the serving core; observability
                flags: ``--trace-out``, ``--metrics-port``,
                ``--postmortem-dir``, ``--slo-p99``)
``top``         terminal dashboard over a Prometheus ``/metrics``
                exposition (``--url`` scrapes a live endpoint,
                ``--demo`` runs an embedded serving workload)
``fig3``        the paper's Figure 3 pipeline example, cycle-accurately
``fig4``        the diagonal arrangement of a w x w tile
``fig6``        the 4 x 4 routing example
``demo``        a one-screen end-to-end demonstration

Every command returns its report as a string from a ``cmd_*`` function
(unit-testable) and ``main`` prints it.  ``cost`` and ``demo``
additionally accept ``--telemetry``, which runs the command under an
active tracer and appends the span counts and span tree it emitted;
``cost``, ``plan`` and ``profile`` accept ``--cache-dir``, which
resolves plans through the persistent disk cache of
:class:`repro.planner.Planner` instead of re-planning.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.figures import (
    render_diagonal_arrangement,
    render_pipeline,
    render_routing_steps,
)
from repro.analysis.tables import format_table
from repro.core import theory
from repro.core.conventional import (
    DDesignatedPermutation,
    SDesignatedPermutation,
)
from repro.core.distribution import distribution
from repro.core.io import load_plan, save_plan
from repro.core.padded import PaddedScheduledPermutation
from repro.core.scheduled import ScheduledPermutation
from repro.core.scheduler import decompose
from repro.machine.dmm import DMM
from repro.machine.params import MachineParams
from repro.machine.umm import UMM
from repro.permutations.named import PAPER_PERMUTATIONS, named_permutation

_DTYPES = {"float32": np.float32, "float64": np.float64}


def _machine(args) -> MachineParams:
    return MachineParams(
        width=args.width,
        latency=args.latency,
        num_dmms=args.dmms,
        shared_capacity=None,
    )


def _add_machine_args(sub) -> None:
    sub.add_argument("--width", type=int, default=32, help="warp/bank width w")
    sub.add_argument("--latency", type=int, default=100,
                     help="global memory latency l")
    sub.add_argument("--dmms", type=int, default=8, help="number of DMMs d")
    sub.add_argument(
        "--d", type=int, default=None, dest="shard_d", metavar="WORKERS",
        help="also price the out-of-core row-stripe sharding for this "
             "shard count (plus 1, 2, 4, 8), with the exact inter-DMM "
             "exchange charge for this permutation",
    )


def _sharded_section(p, machine, dtype, shard_d) -> str:
    """The ``--d`` addendum: a d-scaling table of the three-phase
    out-of-core model (local per-DMM rounds + inter-DMM exchange)."""
    from repro.core.selector import predict_sharded

    ds = tuple(sorted({1, 2, 4, 8, int(shard_d)}))
    times = predict_sharded(p, machine, dtype=dtype, ds=ds)
    if not times:
        return ("\nsharded model: n/a (no requested shard count "
                "divides n)")
    rows = [
        [d, t["local"], t["exchange"], t["total"]]
        for d, t in sorted(times.items())
    ]
    return "\n\n" + format_table(
        ["d", "local time", "exchange time", "total time"],
        rows,
        title="out-of-core sharding (three-phase model, exact "
              "exchange volume)",
    )


def cmd_cost(args) -> str:
    p = named_permutation(args.perm, args.n, seed=args.seed)
    machine = _machine(args)
    dtype = _DTYPES[args.dtype]
    planner = None
    if getattr(args, "cache_dir", None):
        from repro.planner import Planner

        planner = Planner(cache_dir=args.cache_dir)
    sched_name = "padded" if args.padded else "scheduled"
    if planner is not None:
        plan: object = planner.compile(
            p, engine=sched_name, width=args.width
        )
    elif args.padded:
        plan = PaddedScheduledPermutation.plan(p, width=args.width)
    else:
        plan = ScheduledPermutation.plan(p, width=args.width)
    algos: list[tuple[str, object]] = [
        ("d-designated", DDesignatedPermutation(p)),
        ("s-designated", SDesignatedPermutation(p)),
        ("scheduled", plan),
    ]
    for extra in args.engine or ():
        from repro.ir.registry import get_engine

        algos.append(
            (extra,
             planner.compile(p, engine=extra, width=args.width)
             if planner is not None
             else get_engine(extra).plan(p, width=args.width))
        )
    rows = []
    for name, algo in algos:
        trace = algo.simulate(machine, dtype=dtype)
        rows.append([name, trace.num_rounds, trace.time])
    if getattr(args, "roundtrip", False):
        rows.extend(_roundtrip_rows(plan, machine, dtype))
    if args.n % args.width == 0:
        rows.append(
            ["lower bound", "-",
             theory.lower_bound(args.n, args.width, args.latency)]
        )
        dw: object = distribution(p, args.width)
    else:
        dw = "n/a (n not a multiple of w)"
    table = format_table(
        ["algorithm", "rounds", "time units"],
        rows,
        title=(f"{args.perm} permutation, n = {args.n}, {args.dtype}, "
               f"w = {args.width}, l = {args.latency}, d = {args.dmms}; "
               f"D_w(P) = {dw}"),
    )
    if planner is not None:
        stats = planner.stats()
        table += (
            f"\n\nplan cache ({args.cache_dir}): "
            f"{stats['sealed_hits']} sealed hit(s), "
            f"{stats['sealed_misses']} miss(es), "
            f"{stats['cold_plans']} cold plan(s)"
        )
    if getattr(args, "shard_d", None):
        table += _sharded_section(p, machine, dtype, args.shard_d)
    return table


def _roundtrip_rows(plan, machine, dtype) -> list[list[object]]:
    """Price ``p`` composed with ``p^-1``, raw and pipeline-optimized.

    The composed program carries cancellable structure at the seam
    (step-3 rowwise against its inverse, then the transpose pair), so
    the optimized row shows strictly fewer rounds than the raw one —
    the pass pipeline's effect made visible in the cost table.
    """
    from repro.exec.simulator import SimulatorExecutor
    from repro.ir.program import concat_programs
    from repro.passes import default_pipeline, seal_program

    engine = getattr(plan, "engine", plan)   # unwrap CompiledPermutation
    engine = getattr(engine, "inner", engine)  # unwrap padded
    inverse = engine.inverse()
    raw = concat_programs(engine.lower(), inverse.lower(),
                          engine="roundtrip")
    optimized = default_pipeline().run(raw)
    # The terminal tier: the roundtrip's denotation collapsed to one
    # proven gather (the identity here), priced like any program.
    sealed = seal_program(optimized).as_program()
    rows: list[list[object]] = []
    for label, program in (("roundtrip raw", raw),
                           ("roundtrip optimized", optimized),
                           ("roundtrip sealed", sealed)):
        trace = SimulatorExecutor().simulate(program, machine,
                                             dtype=dtype)
        rows.append([label, trace.num_rounds, trace.time])
    return rows


def cmd_plan(args) -> str:
    from repro.ir.registry import get_engine
    from repro.planner import permutation_digest, plan_fingerprint

    p = named_permutation(args.perm, args.n, seed=args.seed)
    fingerprint = plan_fingerprint(
        permutation_digest(p), args.engine, args.width
    )
    cache_note = ""
    if getattr(args, "cache_dir", None):
        from repro.planner import Planner

        planner = Planner(cache_dir=args.cache_dir)
        compiled = planner.compile(p, engine=args.engine,
                                   width=args.width)
        plan = compiled.engine
        stats = planner.stats()
        source = ("sealed sidecar" if stats["sealed_hits"]
                  else "cold plan")
        cache_note = (
            f"\nplan cache ({args.cache_dir}): resolved via {source}"
        )
    else:
        plan = get_engine(args.engine).plan(p, width=args.width)
    provenance = {"fingerprint": fingerprint}
    shard_note = ""
    if getattr(args, "shard_d", None):
        # Prove the d-stripe sharding before stamping it: a plan file
        # only ever advertises a shard count its program was actually
        # sharded and proved at.
        from repro.errors import ShardingError
        from repro.planner import shard_fingerprint
        from repro.shard import shard_program

        try:
            sharded = shard_program(plan.lower(), args.shard_d)
        except ShardingError as exc:
            raise SystemExit(
                f"plan: sharding at d = {args.shard_d} refused: "
                + " ".join(str(exc).split())
            ) from exc
        shard_fp = shard_fingerprint(fingerprint, args.shard_d)
        provenance["shard_d"] = str(args.shard_d)
        provenance["shard_fingerprint"] = shard_fp
        shard_note = (
            f"\nsharded at d = {args.shard_d}: proven "
            f"({sharded.exchange_elements} exchange element(s)); "
            f"shard fingerprint {shard_fp[:12]}..."
        )
    save_plan(args.out, plan, provenance=provenance)
    if isinstance(plan, ScheduledPermutation):
        return (
            f"planned {args.perm} permutation of n = {args.n} "
            f"(m = {plan.m}, width = {plan.width})\n"
            f"schedule data: {plan.schedule_bytes()} bytes; shared "
            f"memory per block: {plan.shared_bytes(np.float32)} B "
            f"(float) / {plan.shared_bytes(np.float64)} B (double)\n"
            f"saved to {args.out}" + cache_note + shard_note
        )
    program = plan.lower()
    return (
        f"planned {args.perm} permutation of n = {args.n} with engine "
        f"{args.engine} ({len(program.ops)} kernel op(s), "
        f"{program.num_rounds} access rounds)\n"
        f"saved to {args.out}" + cache_note + shard_note
    )


def _provenance_line(meta: dict) -> str:
    """The ``provenance:`` line of ``verify-plan``: the fingerprint a
    planner stamped, and the pass-pipeline signature files written by
    older builds still carry."""
    parts = []
    if meta.get("fingerprint"):
        parts.append(f"fingerprint {str(meta['fingerprint'])[:12]}...")
    if meta.get("pipeline"):
        parts.append(f"pipeline {meta['pipeline']}")
    if not parts:
        return ("provenance: none recorded (file predates the planner "
                "or was saved outside it)")
    return "provenance: " + "; ".join(parts)


def _verify_sealed(path: str) -> str:
    """``verify-plan`` on a ``*.sealed.npz`` sidecar: reload (which
    re-proves checksum, range, mutual inverses, denotation digest and
    certificate consistency) and print the sealed provenance."""
    import time
    from pathlib import Path

    from repro.core.io import load_sealed
    from repro.errors import ReproError

    start = time.perf_counter()
    try:
        sealed = load_sealed(path)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        raise SystemExit(
            f"verify-plan: REJECTED: {type(exc).__name__}: {message}"
        ) from exc
    elapsed_ms = (time.perf_counter() - start) * 1e3
    file_bytes = Path(path).stat().st_size
    cert = sealed.certificate
    cert_line = (
        f"certificate: {cert.summary()}" if cert is not None
        else "certificate: none embedded"
    )
    return (
        f"sealed OK: engine = {sealed.engine}, n = {sealed.n}, "
        f"width = {sealed.width}, {sealed.nbytes} resident bytes of "
        "index maps; gather and scatter re-proven as mutual inverses "
        "and the denotation digest matches\n"
        f"{cert_line}\n"
        f"{_provenance_line(sealed.meta)}\n"
        f"file: {file_bytes} bytes on disk, loaded and re-proven in "
        f"{elapsed_ms:.1f} ms"
    )


def cmd_verify_plan(args) -> str:
    import time
    from pathlib import Path

    from repro.errors import ReproError

    if str(args.path).endswith(".sealed.npz"):
        return _verify_sealed(args.path)
    start = time.perf_counter()
    try:
        plan = load_plan(args.path)   # load_plan re-proves the plan
    except ReproError as exc:
        # One-line diagnostic + exit status 1, not a traceback.
        message = " ".join(str(exc).split())
        raise SystemExit(
            f"verify-plan: REJECTED: {type(exc).__name__}: {message}"
        ) from exc
    elapsed_ms = (time.perf_counter() - start) * 1e3
    file_bytes = Path(args.path).stat().st_size
    cert = getattr(plan, "certificate", None)
    if cert is None:
        inner = getattr(plan, "inner", None)
        cert = getattr(inner, "certificate", None)
    if cert is not None:
        cert_line = (
            f"certificate: {cert.summary()}; bound to payload "
            f"{str(cert.plan_sha)[:12]}..., equal to the one recomputed "
            "on load"
        )
    elif isinstance(plan, ScheduledPermutation) or hasattr(plan, "inner"):
        cert_line = (
            "certificate: none embedded (saved with certify=False); "
            "the 32 rounds were certified on load"
        )
    else:
        cert_line = (
            "certificate: not applicable (engine has no scheduled "
            "core); the denotation is its proof"
        )
    from repro.core.io import read_plan_provenance

    provenance = read_plan_provenance(args.path)
    prov_line = _provenance_line(provenance)
    if "shard_d" in provenance:
        shard_fp = provenance.get("shard_fingerprint", "")
        fp_part = f"; shard fingerprint {shard_fp[:12]}..." \
            if shard_fp else ""
        prov_line += (
            f"\nsharding: proven at d = {provenance['shard_d']}"
            f"{fp_part}"
        )
    footer = (
        f"{cert_line}\n"
        f"{prov_line}\n"
        f"file: {file_bytes} bytes on disk, loaded and verified in "
        f"{elapsed_ms:.1f} ms"
    )
    proved = (
        "proved on load: the rebuilt plan lowers to the stored program, "
        "which denotes the stored p"
    )
    if isinstance(plan, ScheduledPermutation):
        return (
            f"plan OK: n = {plan.n}, m = {plan.m}, width = {plan.width}, "
            f"{plan.schedule_bytes()} bytes of schedule data\n"
            f"{proved}, and all 32 rounds are conflict-free or "
            "coalesced\n"
            + footer
        )
    program = plan.lower()
    engine = type(plan).engine_name
    return (
        f"plan OK: engine = {engine}, n = {program.n}, "
        f"width = {program.width}, {len(program.ops)} kernel op(s), "
        f"{program.num_rounds} access rounds\n"
        f"{proved}\n"
        + footer
    )


def _cmd_check_semantics(args) -> str:
    """``repro check --semantics <target>``: denote, prove, validate.

    ``target`` is either a saved plan file (``.npz``) — reloaded, so
    the embedded certificates are re-verified on the way in — or a
    named permutation, planned fresh with ``--engine``.  Either way the
    program is denoted op by op, the denotation is proved bijective,
    and the pass pipeline is translation-validated against it.  Any
    divergence exits nonzero with the counterexample.
    """
    from pathlib import Path

    from repro.errors import ReproError, SemanticValidationError
    from repro.passes import aggressive_pipeline, default_pipeline
    from repro.staticcheck.semantics import (
        denote_program,
        validate_translation,
    )

    target = args.semantics
    pipeline = (
        aggressive_pipeline() if args.pipeline == "aggressive"
        else default_pipeline()
    )
    parts = []
    if target.endswith(".sealed.npz"):
        from repro.core.io import load_sealed
        from repro.staticcheck.semantics import denotation_digest

        try:
            sealed = load_sealed(target)
        except ReproError as exc:
            message = " ".join(str(exc).split())
            raise SystemExit(
                f"check --semantics: REJECTED: {type(exc).__name__}: "
                f"{message}"
            ) from exc
        parts.append(
            f"loaded sealed artifact {target} (checksum, inverses and "
            "denotation digest re-proven on load)"
        )
        if sealed.certificate is not None:
            parts.append(f"embedded {sealed.certificate.summary()}")
        parts.append("")
        # Independent re-proof: denote the one-op bridge program and
        # compare against the stored scatter, digest and all.
        denotation = denote_program(sealed.as_program())
        parts.append(denotation.describe())
        if not denotation.ok or not np.array_equal(
            denotation.index_map, sealed.scatter
        ):
            raise SystemExit("\n".join(
                parts + ["", "check --semantics: DIVERGENCE (sealed "
                         "scatter does not match its own denotation)"]
            ))
        digest = denotation_digest(sealed.scatter)
        stored = str(sealed.meta.get("denotation_sha", ""))
        if stored and stored != digest:
            raise SystemExit("\n".join(
                parts + ["", "check --semantics: DIVERGENCE (stored "
                         "denotation_sha does not match the scatter)"]
            ))
        parts.append(f"denotation digest {digest[:12]}... matches "
                     "the sealed meta")
        parts.append("")
        parts.append(
            "check --semantics OK: sealed gather == scatter^-1 == "
            "denoted permutation"
        )
        return "\n".join(parts)
    if target.endswith(".npz") or Path(target).exists():
        try:
            plan = load_plan(target)
        except ReproError as exc:
            message = " ".join(str(exc).split())
            raise SystemExit(
                f"check --semantics: REJECTED: {type(exc).__name__}: "
                f"{message}"
            ) from exc
        parts.append(f"loaded plan {target} (certificates re-verified)")
        embedded = getattr(plan, "semantic_certificate", None)
        if embedded is not None:
            parts.append(f"embedded {embedded.summary()}")
    else:
        if target not in PAPER_PERMUTATIONS:
            raise SystemExit(
                f"check --semantics: {target!r} is neither a plan file "
                f"nor a named permutation "
                f"({', '.join(sorted(PAPER_PERMUTATIONS))})"
            )
        from repro.ir.registry import get_engine

        p = named_permutation(target, args.n, seed=args.seed)
        plan = get_engine(args.engine).plan(p, width=args.width)
        parts.append(
            f"planned {target} (n = {args.n}, w = {args.width}) "
            f"with engine {args.engine!r}"
        )
    raw = plan.lower()
    parts += ["", denote_program(raw).describe(), ""]
    try:
        optimized = pipeline.run(raw, validate=True)
        cert = validate_translation(
            raw, optimized, requested=np.asarray(plan.p),
            pipeline_signature=pipeline.signature(),
        )
    except SemanticValidationError as exc:
        cert = exc.certificate
    parts.append(f"pipeline {pipeline.signature()}")
    parts.append(cert.summary() if cert is not None
                 else "no certificate produced")
    if cert is None or not cert.ok:
        raise SystemExit("\n".join(parts + ["", "check --semantics: "
                                            "DIVERGENCE"]))
    parts.append("")
    parts.append("check --semantics OK: raw == optimized == requested")
    return "\n".join(parts)


def cmd_check(args) -> str:
    from repro.errors import StaticCheckError
    from repro.staticcheck.lint import LINT_RULES, run_lint

    if getattr(args, "semantics", None):
        return _cmd_check_semantics(args)
    try:
        findings = run_lint(
            paths=args.paths or None, rules=args.rule or None
        )
    except StaticCheckError as exc:
        raise SystemExit(f"check: ERROR: {exc}") from exc
    if findings:
        lines = "\n".join(f"  {f.format()}" for f in findings)
        raise SystemExit(
            f"check: FAILED: {len(findings)} finding(s)\n{lines}"
        )
    rules = sorted(args.rule) if args.rule else sorted(LINT_RULES)
    scope = ", ".join(str(p) for p in args.paths) if args.paths else \
        "the repro package"
    return (
        f"check OK: {', '.join(rules)} clean over {scope}"
    )


def cmd_fig3(args) -> str:
    w0 = np.array([7, 5, 15, 0])
    w1 = np.array([10, 11, 12, 13])
    stream = np.concatenate([w0, w1])
    lat = args.latency
    parts = [f"Figure 3 — W0 = {w0.tolist()}, W1 = {w1.tolist()}, "
             f"w = 4, l = {lat}", ""]
    parts.append("DMM (bank conflicts):")
    parts.append(render_pipeline(DMM(4, lat).simulate([stream])))
    parts.append("")
    parts.append("UMM (address groups):")
    parts.append(render_pipeline(UMM(4, lat).simulate([stream])))
    return "\n".join(parts)


def cmd_fig4(args) -> str:
    return (
        f"Figure 4 — diagonal arrangement of a {args.width} x "
        f"{args.width} tile\n(element [i,j] at shared address "
        "i*w + (i+j) mod w; rows AND columns hit distinct banks)\n\n"
        + render_diagonal_arrangement(args.width)
    )


def cmd_fig6(args) -> str:
    p = np.array([12, 13, 8, 9, 1, 0, 3, 7, 2, 6, 5, 14, 4, 15, 11, 10])
    m = 4
    d = decompose(p)
    i = np.arange(16)
    src_row, src_col = i // m, i % m
    col1 = d.gamma1[src_row, src_col]
    row2 = d.delta[col1, src_row]
    col3 = d.gamma3[row2, col1]

    def labels(rows, cols):
        out = np.empty((m, m), dtype=object)
        dest = np.empty(16, dtype=np.int64)
        dest[rows * m + cols] = p
        for idx in range(16):
            r, c = divmod(int(dest[idx]), m)
            out[idx // m, idx % m] = f"({r},{c})"
        return out

    return "Figure 6 — routing of the paper's 4x4 example\n\n" + (
        render_routing_steps([
            ("Input", labels(src_row, src_col)),
            ("After Step 1", labels(src_row, col1)),
            ("After Step 2", labels(row2, col1)),
            ("After Step 3", labels(row2, col3)),
        ])
    )


def cmd_recommend(args) -> str:
    from repro.core.selector import predict_times

    p = named_permutation(args.perm, args.n, seed=args.seed)
    machine = _machine(args)
    dtype = _DTYPES[args.dtype]
    pred = predict_times(p, machine, dtype=dtype)
    rows = pred.as_rows()
    table = format_table(
        ["engine", "predicted time units"],
        rows,
        title=(f"{args.perm}, n = {args.n}, {args.dtype}, "
               f"w = {args.width}, l = {args.latency}, d = {args.dmms}; "
               f"D = {pred.distribution_value}"),
    )
    reason = (
        "scheduled infeasible (size/capacity)"
        if pred.scheduled is None
        else "closed-form comparison of Table I times"
    )
    return f"{table}\n\nrecommended engine: {pred.best}  ({reason})"


def cmd_report(args) -> str:
    from repro.report import run_report

    text, ok = run_report()
    if not ok:
        raise SystemExit(text)
    return text


def cmd_demo(args) -> str:
    n, width = 64 * 64, 32
    p = named_permutation("bit-reversal", n)
    plan = ScheduledPermutation.plan(p, width=width)
    a = np.random.default_rng(0).random(n).astype(np.float32)
    b = plan.apply(a)
    expected = np.empty_like(a)
    expected[p] = a
    ok = bool(np.array_equal(b, expected))
    machine = MachineParams(width=width, latency=100, num_dmms=8)
    sched = plan.simulate(machine).time
    conv = DDesignatedPermutation(p).simulate(machine).time
    return (
        f"bit-reversal of n = {n}: output correct = {ok}\n"
        f"conventional: {conv} time units (3 rounds, casual write)\n"
        f"scheduled:    {sched} time units (32 regular rounds)\n"
        f"speedup:      {conv / sched:.2f}x"
    )


def cmd_profile(args) -> str:
    import tempfile
    from pathlib import Path

    from repro import telemetry
    from repro.machine.metrics import analyze, format_metrics

    p = named_permutation(args.perm, args.n, seed=args.seed)
    machine = _machine(args)
    dtype = _DTYPES[args.dtype]
    sinks = []
    if args.events_out:
        sinks.append(telemetry.JsonlSink(args.events_out))
    from repro.ir.registry import get_engine

    engine_cls = get_engine(args.engine)
    planner = None
    if getattr(args, "cache_dir", None):
        from repro.planner import Planner

        planner = Planner(cache_dir=args.cache_dir)
    tracer = telemetry.Tracer(sinks=sinks)
    try:
        with telemetry.use_tracer(tracer):
            # Each stage runs at top level so tracer.roots() is exactly
            # the phase table: plan, save, load(+verify), apply,
            # simulate.  With --cache-dir the plan phase resolves
            # through the disk cache (planner.compile root span).
            if planner is not None:
                plan = planner.compile(
                    p, engine=args.engine, width=args.width
                ).engine
            else:
                plan = engine_cls.plan(p, width=args.width)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "profile.npz"
                save_plan(path, plan)
                plan = load_plan(path)
            a = np.random.default_rng(args.seed).random(args.n)
            a = a.astype(dtype)
            plan.apply(a)
            trace = plan.simulate(machine, dtype=dtype)
    finally:
        for sink in sinks:
            sink.close()
    metrics = analyze(trace, args.n, machine)

    rows = []
    for root in tracer.roots():
        model = root.attributes.get("model_time", "-")
        rows.append([root.name, f"{root.duration_ms:.3f}", model])
    parts = [
        format_table(
            ["phase", "wall ms", "model time units"],
            rows,
            title=(f"profile: {args.perm}, n = {args.n}, {args.dtype}, "
                   f"w = {args.width}, l = {args.latency}, "
                   f"d = {args.dmms}"),
        ),
        "",
        "span tree (wall clock):",
        _indent(telemetry.render_span_tree(tracer)),
        "",
        "span counts:",
    ]
    for name, count in telemetry.span_counts(tracer).items():
        parts.append(f"   {name} = {count}")
    parts.append("")
    parts.append("model: " + format_metrics(metrics))
    if args.trace_out:
        telemetry.write_chrome_trace(
            tracer, args.trace_out, process_name=f"repro profile {args.perm}"
        )
        parts.append(
            f"wrote Chrome trace to {args.trace_out} "
            "(load in chrome://tracing or https://ui.perfetto.dev)"
        )
    if getattr(args, "shard_d", None):
        parts.append(
            _sharded_section(p, machine, dtype, args.shard_d).lstrip("\n")
        )
    if args.events_out:
        parts.append(f"wrote JSONL event log to {args.events_out}")
    if planner is not None:
        stats = planner.stats()
        parts.append(
            f"plan cache ({args.cache_dir}): "
            f"{stats['sealed_hits']} sealed hit(s), "
            f"{stats['sealed_misses']} miss(es), "
            f"{stats['cold_plans']} cold plan(s)"
        )
    return "\n".join(parts)


def _serve_demo_concurrent(args, cache_dir: str) -> str:
    """The ``--concurrent`` serve demo: a PermutationServer under
    threaded clients, optionally with ``--chaos`` fault injection."""
    import threading
    import time as _time

    from repro import telemetry
    from repro.errors import ReproError
    from repro.resilience import SidecarChaos
    from repro.service import PermutationServer

    n = args.n
    names = ("bit-reversal", "transpose", "random")
    perms = {
        name: named_permutation(name, n, seed=args.seed)
        for name in names
    }
    parts = [
        "serve demo — concurrent serving core "
        f"(n = {n}, w = {args.width}, {args.clients} client(s) x "
        f"{args.requests} request(s), chaos = {bool(args.chaos)})",
        "",
    ]
    tracer = telemetry.Tracer() if args.trace_out else None
    slo = telemetry.SLO(latency_p99_s=args.slo_p99)
    server = PermutationServer(
        width=args.width,
        cache_dir=cache_dir,
        workers=args.workers,
        queue_capacity=max(64, 4 * args.clients),
        slo=slo,
        postmortem_dir=args.postmortem_dir,
        metrics_port=args.metrics_port,
    )
    fingerprints = {
        name: server.register(name, p) for name, p in perms.items()
    }
    service = server.service
    planner = service.planner
    # The compiled programs (the paper's artifact) go to the cache
    # directory, giving the chaos driver files to corrupt; requests
    # never read them.
    for name in perms:
        service.compiled(f"default/{name}")
    digests = {
        name: service._registration(f"default/{name}").digest
        for name in perms
    }
    server.warm()
    parts.append(f"registered, compiled + warmed {len(perms)} "
                 f"permutation(s) ({cache_dir})")
    cold_before = planner.stats()["cold_plans"]

    results = {"ok": 0, "wrong": 0, "failed": 0}
    latencies: list[float] = []
    lock = threading.Lock()
    stop = threading.Event()

    chaos = SidecarChaos(
        {name: planner.disk.sealed_path_for(fingerprints[name])
         for name in names},
        seed=args.seed,
    ) if args.chaos else None

    def chaos_driver() -> None:
        assert chaos is not None
        cycle = 0
        while not stop.is_set():
            served = server.stats().get("server.served", 0)
            if served < (cycle + 1) * 25:
                _time.sleep(0.001)
                continue
            cycle += 1
            name, _ = chaos.step()
            # Evicting the sealed entry sends the next request down the
            # miss path, past the corrupted sidecar.
            planner.memory.invalidate(digests[name])

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(args.requests):
            name = names[int(rng.integers(len(names)))]
            p = perms[name]
            a = rng.random(n).astype(np.float32)
            t0 = _time.perf_counter()
            try:
                out = server.submit(
                    name, a, deadline_s=10.0
                ).result(timeout=60.0)
            except ReproError:
                with lock:
                    results["failed"] += 1
                continue
            dt = _time.perf_counter() - t0
            expected = np.empty_like(a)
            expected[p] = a
            key = "ok" if np.array_equal(out, expected) else "wrong"
            with lock:
                results[key] += 1
                latencies.append(dt)

    driver = None
    if args.chaos:
        driver = threading.Thread(target=chaos_driver, daemon=True)
        driver.start()
    t0 = _time.perf_counter()
    # The active tracer is process-wide, so client and worker threads
    # all record into it; when --trace-out is unset this activates
    # None, i.e. exactly the untraced behaviour.
    with telemetry.use_tracer(tracer):
        clients = [
            threading.Thread(target=client, args=(args.seed + 100 + c,))
            for c in range(args.clients)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    elapsed = _time.perf_counter() - t0
    stop.set()
    if driver is not None:
        driver.join(timeout=5.0)
    stats = server.stats()
    served_cold = stats["cold_plans"] - cold_before
    health = server.health()
    scraped = None
    if args.metrics_port is not None and server.http is not None:
        import urllib.request

        scrape_url = server.http.url + "/metrics"
        scraped = urllib.request.urlopen(
            scrape_url, timeout=10.0
        ).read().decode()
        telemetry.validate_prometheus_text(scraped)
    server.close()

    total = sum(results.values())
    availability = results["ok"] / total if total else 0.0
    lat = np.array(latencies) if latencies else np.zeros(1)
    parts.append("")
    parts.append(
        f"served {total} request(s) in {elapsed:.2f} s "
        f"({total / elapsed:.0f} req/s)"
    )
    parts.append(
        f"   availability  {availability:.4f}   "
        f"wrong answers  {results['wrong']}   "
        f"failed  {results['failed']}"
    )
    parts.append(
        f"   latency p50   {np.percentile(lat, 50) * 1e3:.2f} ms   "
        f"p99  {np.percentile(lat, 99) * 1e3:.2f} ms   "
        "(client-observed)"
    )
    parts.append("")
    parts.append("server-side latency histograms (server_e2e_seconds):")
    for row in server.metrics.snapshot().get("server_e2e_seconds", []):
        label = ",".join(
            f"{k}={v}" for k, v in sorted(row["labels"].items())
        )
        parts.append(
            f"   {label:<52} count {row['count']:>5}  "
            f"p50 {row['p50'] * 1e3:7.2f} ms  "
            f"p99 {row['p99'] * 1e3:7.2f} ms"
        )
    slo_status = health["slo"]
    parts.append(
        f"SLO: availability {slo_status['availability']:.4f} "
        f"(target {slo.availability}), "
        f"p99 {slo_status['p99_s'] * 1e3:.2f} ms "
        f"(bound {slo.latency_p99_s * 1e3:.2f} ms), "
        f"burn rate {slo_status['burn_rate']:.2f}, "
        f"breached = {slo_status['breached']} "
        f"({slo_status['breaches']} transition(s))"
    )
    rec = server.recorder
    parts.append(
        f"flight recorder: {rec.recorded} event(s), "
        f"{rec.dumps} post-mortem dump(s)"
    )
    for path in rec.dump_paths:
        parts.append(f"   wrote {path}")
    if scraped is not None:
        parts.append(
            f"scraped {scrape_url}: "
            f"{len(scraped.splitlines())} exposition line(s), valid"
        )
    if tracer is not None:
        telemetry.write_chrome_trace(
            tracer, args.trace_out,
            process_name="repro serve-demo --concurrent",
        )
        parts.append(
            f"wrote Chrome trace to {args.trace_out} "
            f"({len(tracer.spans)} span(s); load in chrome://tracing "
            "or https://ui.perfetto.dev)"
        )
    parts.append("")
    parts.append(f"health: {health['status']}")
    parts.append("")
    parts.append("server stats:")
    for key in sorted(stats):
        if key.startswith("server.") or key in (
            "sealed_corrupt", "memory_invalidations", "cold_plans",
        ):
            value = stats[key]
            shown = f"{value:.4g}" if isinstance(value, float) \
                else value
            parts.append(f"   {key:<28} {shown}")
    ok = (results["wrong"] == 0 and availability >= 0.99
          and served_cold == 0)
    parts.append("")
    if chaos is not None:
        parts.append(f"sidecar faults injected = {chaos.corruptions}, "
                     f"skipped = {chaos.skipped}")
    parts.append(f"cold plans while serving = {served_cold}")
    parts.append(f"all outputs correct = {results['wrong'] == 0}, "
                 f"availability >= 99% = {availability >= 0.99}")
    if not ok:
        parts.append("SERVING DEMO FAILED")
    return "\n".join(parts)


def cmd_serve_demo(args) -> str:
    import tempfile

    from repro.service import PermutationService

    if args.concurrent:
        if args.cache_dir:
            return _serve_demo_concurrent(args, args.cache_dir)
        with tempfile.TemporaryDirectory() as tmp:
            return _serve_demo_concurrent(args, tmp)
    if args.chaos:
        raise SystemExit("--chaos requires --concurrent")

    n = args.n
    parts = [f"serve demo — compile once, apply many (n = {n}, "
             f"w = {args.width}, {args.requests} request(s) per name)",
             ""]

    def run(svc: "PermutationService", cache_dir: str) -> bool:
        rng = np.random.default_rng(args.seed)
        perms = {
            name: named_permutation(name, n, seed=args.seed)
            for name in ("bit-reversal", "transpose", "random")
        }
        parts.append("registered:")
        for name, p in perms.items():
            fp = svc.register(name, p)
            svc.compiled(name)
            parts.append(f"   {name:<14} fingerprint {fp[:16]}...")
        parts.append(f"compiled {len(perms)} program(s) into "
                     f"{cache_dir}; requests never read them")
        warmed = svc.warm()
        parts.append(f"warmed {warmed} plan(s): one proven gather per "
                     "permutation, in memory")
        parts.append("")
        ok = True
        for name, p in perms.items():
            for _ in range(args.requests):
                a = rng.random(n).astype(np.float32)
                out = svc.apply(name, a)
                expected = np.empty_like(a)
                expected[p] = a
                ok = ok and bool(np.array_equal(out, expected))
            batch = rng.random((3, n)).astype(np.float32)
            outs = svc.apply_batch(name, batch)
            expected_b = np.empty_like(batch)
            expected_b[:, p] = batch
            ok = ok and bool(np.array_equal(outs, expected_b))
        return ok

    if args.cache_dir:
        svc = PermutationService(width=args.width,
                                 cache_dir=args.cache_dir)
        ok = run(svc, args.cache_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            svc = PermutationService(width=args.width, cache_dir=tmp)
            ok = run(svc, f"{tmp} (temporary)")
    parts.append(f"all outputs correct = {ok}")
    parts.append("")
    parts.append("service stats:")
    for key, value in sorted(svc.stats().items()):
        parts.append(f"   {key:<18} {value}")
    return "\n".join(parts)


def cmd_top(args) -> str:
    """``repro top`` — dashboard over a Prometheus exposition.

    Both modes work from exposition text alone (quantiles re-derived
    from the cumulative buckets), so what this shows is exactly what
    any external Prometheus/Grafana stack would see.
    """
    import time as _time
    import urllib.request

    from repro import telemetry

    if not args.url and not args.demo:
        raise SystemExit("top: pass --url <endpoint> or --demo")
    if args.url:
        screens = []
        for i in range(max(1, args.watch)):
            if i:
                _time.sleep(args.interval)
            text = urllib.request.urlopen(
                args.url, timeout=10.0
            ).read().decode()
            telemetry.validate_prometheus_text(text)
            title = f"repro top — {args.url}"
            if args.watch > 1:
                title += f"  [{i + 1}/{args.watch}]"
            screens.append(telemetry.render_dashboard(text, title=title))
        return "\n".join(screens)

    from repro.service import PermutationServer

    rng = np.random.default_rng(args.seed)
    p = named_permutation("random", args.n, seed=args.seed)
    with PermutationServer(width=16, workers=2,
                           metrics_port=0) as server:
        server.register("random", p)
        server.warm()
        futures = [
            server.submit("random", rng.random(args.n).astype(np.float32))
            for _ in range(32)
        ]
        for f in futures:
            f.result(timeout=30.0)
        url = server.http.url + "/metrics"
        text = urllib.request.urlopen(url, timeout=10.0).read().decode()
    telemetry.validate_prometheus_text(text)
    return telemetry.render_dashboard(
        text, title=f"repro top — embedded demo ({url})"
    )


def _indent(text: str, prefix: str = "   ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def build_parser() -> argparse.ArgumentParser:
    from repro.ir.registry import engine_names

    engines = sorted(engine_names())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal offline permutation on the Hierarchical "
                    "Memory Machine (ICPP 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="price a permutation on the HMM")
    cost.add_argument("--perm", choices=sorted(PAPER_PERMUTATIONS),
                      default="bit-reversal")
    cost.add_argument("--n", type=int, default=64 * 64)
    cost.add_argument("--dtype", choices=sorted(_DTYPES), default="float32")
    cost.add_argument("--seed", type=int, default=0)
    cost.add_argument("--padded", action="store_true",
                      help="allow any n via padding")
    cost.add_argument(
        "--engine", action="append", choices=engines, metavar="ENGINE",
        help="also price this registered engine (repeatable); "
             f"one of: {', '.join(engines)}",
    )
    cost.add_argument(
        "--roundtrip", action="store_true",
        help="also price the permutation composed with its inverse, "
             "raw vs pipeline-optimized",
    )
    _add_cache_dir_flag(cost)
    _add_machine_args(cost)
    _add_telemetry_flag(cost)
    cost.set_defaults(func=cmd_cost)

    plan = sub.add_parser("plan", help="plan and save a schedule")
    plan.add_argument("--perm", choices=sorted(PAPER_PERMUTATIONS),
                      default="random")
    plan.add_argument("--n", type=int, default=64 * 64)
    plan.add_argument("--width", type=int, default=32)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--out", required=True, help="output .npz path")
    plan.add_argument(
        "--engine", choices=engines, default="scheduled",
        metavar="ENGINE",
        help="registered engine to plan with (default: scheduled); "
             f"one of: {', '.join(engines)}",
    )
    plan.add_argument(
        "--d", type=int, default=None, dest="shard_d",
        metavar="WORKERS",
        help="prove the d-stripe out-of-core sharding (refusing the "
             "save if it fails validation) and stamp the shard count "
             "and fingerprint into the plan file's provenance",
    )
    _add_cache_dir_flag(plan)
    plan.set_defaults(func=cmd_plan)

    check = sub.add_parser(
        "check", help="run the project's static lint rules"
    )
    check.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    check.add_argument(
        "--rule", action="append", metavar="REPxxx",
        help="restrict to the given rule (repeatable)",
    )
    check.add_argument(
        "--semantics", metavar="PERM_OR_PLAN",
        help="instead of linting: denote this plan file (.npz) or "
             "named permutation op by op, prove bijectivity, and "
             "translation-validate the pass pipeline against it "
             "(exit 1 on divergence)",
    )
    check.add_argument("--n", type=int, default=1024,
                       help="with --semantics <name>: permutation size")
    check.add_argument("--width", type=int, default=32,
                       help="with --semantics <name>: warp width")
    check.add_argument("--seed", type=int, default=0,
                       help="with --semantics <name>: random seed")
    check.add_argument(
        "--engine", choices=engines, default="scheduled",
        metavar="ENGINE",
        help="with --semantics <name>: engine to plan with "
             f"(one of: {', '.join(engines)})",
    )
    check.add_argument(
        "--pipeline", choices=("default", "aggressive"),
        default="default",
        help="with --semantics: pipeline to translation-validate",
    )
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify-plan", help="reload and verify a plan")
    verify.add_argument("path")
    verify.set_defaults(func=cmd_verify_plan)

    prof = sub.add_parser(
        "profile",
        help="trace one permutation end to end (plan, I/O, apply, "
             "simulate) with exportable telemetry",
    )
    prof.add_argument("perm", choices=sorted(PAPER_PERMUTATIONS))
    prof.add_argument("--n", type=int, default=64 * 64)
    prof.add_argument("--dtype", choices=sorted(_DTYPES), default="float32")
    prof.add_argument("--seed", type=int, default=0)
    _add_machine_args(prof)
    prof.add_argument(
        "--trace-out",
        help="write a Chrome trace_event JSON file "
             "(chrome://tracing / Perfetto)",
    )
    prof.add_argument(
        "--events-out",
        help="stream span events to a JSONL file",
    )
    prof.add_argument(
        "--engine", choices=engines, default="scheduled",
        metavar="ENGINE",
        help="registered engine to profile (default: scheduled); "
             f"one of: {', '.join(engines)}",
    )
    _add_cache_dir_flag(prof)
    prof.set_defaults(func=cmd_profile)

    serve = sub.add_parser(
        "serve-demo",
        help="compile-once/apply-many: register permutations in a "
             "PermutationService, warm the cache, serve applies",
    )
    serve.add_argument("--n", type=int, default=1024)
    serve.add_argument("--width", type=int, default=32)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--requests", type=int, default=4,
        help="single applies to serve per registered name "
             "(per client with --concurrent)",
    )
    serve.add_argument(
        "--concurrent", action="store_true",
        help="serve through the concurrent PermutationServer core "
             "(queue, deadlines, quotas) with threaded clients",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="with --concurrent: inject plan-file corruption and "
             "planning faults while serving",
    )
    serve.add_argument(
        "--clients", type=int, default=4,
        help="client threads for --concurrent (default: 4)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="server worker threads for --concurrent (default: 4)",
    )
    serve.add_argument(
        "--trace-out",
        help="with --concurrent: write a Chrome trace of the serve "
             "span trees to this file",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="with --concurrent: serve GET /metrics (Prometheus) and "
             "/health on 127.0.0.1:<port> during the demo "
             "(0 = ephemeral)",
    )
    serve.add_argument(
        "--postmortem-dir",
        help="with --concurrent: write flight-recorder post-mortem "
             "bundles (SLO breach, shed burst, unexpected error) here",
    )
    serve.add_argument(
        "--slo-p99", type=float, default=0.25,
        help="p99 latency objective in seconds for the built-in SLO "
             "monitor (set tiny to force a breach and a post-mortem "
             "dump; default: 0.25)",
    )
    _add_cache_dir_flag(serve)
    serve.set_defaults(func=cmd_serve_demo)

    top = sub.add_parser(
        "top",
        help="terminal dashboard over a Prometheus /metrics "
             "exposition (latency histograms, counters, gauges)",
    )
    top.add_argument(
        "--url",
        help="scrape this endpoint, e.g. "
             "http://127.0.0.1:9100/metrics",
    )
    top.add_argument(
        "--demo", action="store_true",
        help="run a small embedded serving workload and render its "
             "dashboard (no external server needed)",
    )
    top.add_argument(
        "--watch", type=int, default=1,
        help="with --url: number of scrape/render iterations",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="with --watch: seconds between scrapes",
    )
    top.add_argument("--n", type=int, default=256)
    top.add_argument("--seed", type=int, default=0)
    top.set_defaults(func=cmd_top)

    fig3 = sub.add_parser("fig3", help="Figure 3 pipeline example")
    fig3.add_argument("--latency", type=int, default=5)
    fig3.set_defaults(func=cmd_fig3)

    fig4 = sub.add_parser("fig4", help="Figure 4 diagonal arrangement")
    fig4.add_argument("--width", type=int, default=4)
    fig4.set_defaults(func=cmd_fig4)

    fig6 = sub.add_parser("fig6", help="Figure 6 routing example")
    fig6.set_defaults(func=cmd_fig6)

    demo = sub.add_parser("demo", help="one-screen demonstration")
    _add_telemetry_flag(demo)
    demo.set_defaults(func=cmd_demo)

    rep = sub.add_parser(
        "report", help="smoke-check every paper claim at reduced scale"
    )
    rep.set_defaults(func=cmd_report)

    rec = sub.add_parser(
        "recommend", help="predict engine times and pick the winner"
    )
    rec.add_argument("--perm", choices=sorted(PAPER_PERMUTATIONS),
                     default="random")
    rec.add_argument("--n", type=int, default=64 * 64)
    rec.add_argument("--dtype", choices=sorted(_DTYPES), default="float32")
    rec.add_argument("--seed", type=int, default=0)
    _add_machine_args(rec)
    rec.set_defaults(func=cmd_recommend)

    return parser


def _add_cache_dir_flag(sub) -> None:
    sub.add_argument(
        "--cache-dir",
        help="resolve plans through a persistent on-disk plan cache "
             "at this directory (content-addressed by fingerprint)",
    )


def _add_telemetry_flag(sub) -> None:
    sub.add_argument(
        "--telemetry",
        action="store_true",
        help="run under an active tracer; append span counts and "
             "the span tree to the output",
    )


def _telemetry_summary(tracer) -> str:
    from repro import telemetry

    counts = telemetry.span_counts(tracer)
    lines = [f"telemetry: {len(tracer.spans)} span(s)"]
    for name, count in counts.items():
        lines.append(f"   span {name} = {count}")
    tree = telemetry.render_span_tree(tracer)
    if tree:
        lines.append("   spans:")
        lines.append(_indent(tree))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "telemetry", False):
        from repro import telemetry

        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            out = args.func(args)
        print(out)
        print()
        print(_telemetry_summary(tracer))
    else:
        print(args.func(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
