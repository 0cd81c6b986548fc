"""One run of one workload: set up, measure, check, report."""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path
from typing import Any

from repro.telemetry import Tracer, write_chrome_trace

from .layers import probe, timed_phase_counts
from .stats import summarize
from .workloads import (
    WORKLOADS,
    HostReference,
    Phase,
    Run,
    Workload,
    end_to_end,
    unscaled,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
QUICK_SECONDS = 1.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _phase_detail(units: list[tuple[int, float]], phase: Phase,
                  ref: HostReference) -> dict:
    """Summaries of the samples as measured (not scaled), the
    reference bursts, and the e2e metrics unscaled."""
    return {
        "setup_units_s": [dt for _, dt in units],
        "primary_s": {g: summarize([dt for _, dt in xs])
                      for g, xs in phase.primary.items()},
        "secondary_s": {g: summarize([dt for _, dt in xs])
                        for g, xs in phase.secondary.items()},
        "planner": phase.planner,
        "reference": {"kind": ref.kind, "nominal_s": ref.nominal_s,
                      "bursts_s": [t for _, t in ref.bursts]},
        "unscaled": end_to_end(units, phase, unscaled),
    }


def measure(workload: Workload, run: Run, seconds: float,
            trace: bool) -> tuple[dict[str, float], dict]:
    """Metrics (the spec's e2e or per-layer set) plus a detail record."""
    units = workload.setup()
    ref = workload.ref
    if not trace:
        phase = workload.phase(seconds, None)
        return (end_to_end(units, phase, ref.factor),
                _phase_detail(units, phase, ref))
    # The traced half and the untraced half run the same loop, so
    # their ratio is the cost of the harness's own spans.
    tracer = Tracer()
    untraced = workload.phase(seconds / 2, None)
    with tracer.span("phase", workload=workload.name):
        traced = workload.phase(seconds / 2, tracer)
    server = getattr(workload, "server", None)
    metrics = probe(run, workload.n, tracer, traced.served,
                    server.stats() if server is not None else None)
    metrics.update(timed_phase_counts(untraced.planner + traced.planner))
    metrics["trace.overhead_frac"] = (
        end_to_end(units, traced, ref.factor)["latency_ms"]
        / end_to_end(units, untraced, ref.factor)["latency_ms"] - 1.0)
    write_chrome_trace(tracer, OUT_DIR / f"{workload.name}.trace.json",
                       process_name=f"harness:{workload.name}")
    return metrics, _phase_detail(units, traced, ref)


def report(spec: dict, trace: bool, metrics: dict[str, float],
           run: Run) -> dict:
    """The result object, holding exactly the spec's metric list."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    missing = sorted(set(names) - set(metrics))
    unlisted = sorted(set(metrics) - set(names))
    if missing or unlisted:
        raise RuntimeError(
            f"BENCHMARK.json and the harness disagree: not measured "
            f"{missing}, measured but not listed {unlisted}")
    return {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in listed},
    }


def _print_table(workload: str, result: dict, detail: dict) -> None:
    print(f"workload {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for kind in ("primary_s", "secondary_s"):
        for group, s in detail[kind].items():
            tail = (f"p{s['tail_pct']:g} {s['tail'] * 1e3:.4g} ms"
                    if s["tail"] is not None else "no supported tail")
            print(f"  {kind[:-2]} {group:<13} n={s['n']:<6} median "
                  f"{s['median'] * 1e3:.4g} ms, {tail}")


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="run.py", description="Run one benchmark workload once.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"timed seconds (default {spec['run_seconds']}, "
                         f"or {QUICK_SECONDS:g} with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="sizes divided by 16 and a 1 s timed phase: "
                         "a smoke run, not a measurement")
    ap.add_argument("--corrupt-one-output", action="store_true",
                    help="flip one element of the first checked output "
                         "(proves the correctness check is live)")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    return args


def main(argv: list[str]) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR,
                                     prefix=f"{args.workload}-") as tmp:
        run = Run(args.seed, Path(tmp), quick=args.quick,
                  corrupt_one_output=args.corrupt_one_output)
        workload = WORKLOADS[args.workload](run)
        try:
            metrics, detail = measure(workload, run, args.seconds,
                                      bool(args.trace))
        finally:
            workload.close()
    result = report(spec, bool(args.trace), metrics, run)
    record: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "quick": args.quick,
                              "trace": args.trace, "result": result,
                              "detail": detail}
    suffix = "layers" if args.trace else "e2e"
    (OUT_DIR / f"{args.workload}.{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    _print_table(args.workload, result, detail)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
