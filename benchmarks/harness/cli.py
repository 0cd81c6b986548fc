"""``python -m benchmarks.harness {run,repeat}``.

``run`` runs each workload once, each in a fresh process (``run.py``),
and prints its metrics.  ``repeat`` runs whole sets of runs, with a new
seed per run and workloads interleaved, and checks each end-to-end
metric against its ``BENCHMARK.json`` bound: within each set the
quartile spread, as a share of the median, must stay within the bound
(``setup_s`` excepted), and the second set's median may be worse than
the first's by at most the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .single import OUT_DIR, ROOT, load_spec
from .workloads import WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: A run that has not finished in this long has hung.
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float | None,
             trace: bool, quick: bool, corrupt: bool = False) -> dict:
    """One ``run.py`` process; returns its parsed result plus its exit
    code and the table it printed."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    if corrupt:
        cmd.append("--corrupt-one-output")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"returncode": proc.returncode, "result": result,
            "table": "\n".join(lines[:-1]), "stderr": proc.stderr}


def cmd_run(args: argparse.Namespace) -> int:
    status = 0
    results = {}
    for workload in args.workload or list(WORKLOADS):
        out = run_once(workload, args.seed, args.seconds, args.trace,
                       args.quick)
        print(out["table"])
        if out["returncode"] != 0 or out["result"] is None:
            print(out["stderr"], file=sys.stderr)
            print(f"{workload}: FAILED (exit {out['returncode']})")
            status = 1
        results[workload] = out["result"]
    OUT_DIR.mkdir(exist_ok=True)
    name = "results.layers.json" if args.trace else "results.json"
    (OUT_DIR / name).write_text(json.dumps(results, indent=1) + "\n")
    return status


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` reads than ``first``, as a share."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def cmd_repeat(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = args.workload or list(WORKLOADS)
    values: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    status = 0
    for s in range(args.sets):
        for i in range(args.runs):
            for workload in workloads:
                out = run_once(workload, 1000 * s + i, args.seconds,
                               False, args.quick)
                if out["returncode"] != 0 or out["result"] is None:
                    print(out["stderr"], file=sys.stderr)
                    print(f"{workload} set {s + 1} run {i + 1}: FAILED")
                    return 1
                detail = json.loads((OUT_DIR / f"{workload}.e2e.json")
                                    .read_text())["detail"]
                values[workload][s].append({
                    "metrics": out["result"]["metrics"],
                    "unscaled": detail["unscaled"]})
                print(f"set {s + 1} run {i + 1} {workload}: done",
                      flush=True)

    header = (f"{'workload':<12} {'metric':<17} "
              + " ".join(f"{'median' + str(s + 1):>11}"
                         for s in range(args.sets))
              + " " + " ".join(f"{'spread' + str(s + 1):>8}"
                               for s in range(args.sets))
              + f" {'shift':>7} {'bound':>6} verdict")
    print(header)
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in values[workload]]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shift = max(worse_by(metric, medians[0], m)
                        for m in medians[1:])
            ok = shift <= metric["bound"] and (
                name == "setup_s" or max(spreads) <= metric["bound"])
            status |= not ok
            rows.append({"workload": workload, "metric": name,
                         "medians": medians, "spreads": spreads,
                         "shift": shift, "bound": metric["bound"],
                         "pass": ok})
            print(f"{workload:<12} {name:<17} "
                  + " ".join(f"{m:>11.5g}" for m in medians) + " "
                  + " ".join(f"{x:>8.2%}" for x in spreads)
                  + f" {shift:>7.2%} {metric['bound']:>6.0%} "
                  + ("PASS" if ok else "FAIL"))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "repeat.json").write_text(json.dumps(
        {"sets": args.sets, "runs": args.runs, "rows": rows,
         "values": values}, indent=1) + "\n")
    return int(status)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    common.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    common.add_argument("--quick", action="store_true",
                        help="sizes / 16, 1 s per run: a smoke run")
    run_p = sub.add_parser("run", parents=[common],
                           help="each workload once, in its own process")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--trace", action="store_true",
                       help="report the per-layer metrics instead")
    rep_p = sub.add_parser("repeat", parents=[common],
                           help="sets of runs, checked against the "
                                "bounds")
    rep_p.add_argument("--sets", type=int, default=2)
    rep_p.add_argument("--runs", type=int, default=10,
                       help="runs per workload per set")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_repeat(args)
