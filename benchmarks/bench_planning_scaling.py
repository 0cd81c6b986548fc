"""Planning cost: the offline phase's wall-clock growth with n.

Unlike the model-only tables, ``planning_scaling.txt`` is a wall-clock
measurement of this host, so it lives in its own file: regenerating
the pinned tables (``bench_ablation_coloring.py`` and friends) leaves
it alone, and running this file rewrites it.
"""

import time

from repro.analysis.charts import loglog_slope
from repro.analysis.tables import format_table
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation

#: Each cell is the fastest of this many runs: one run of a few
#: milliseconds is within the host's noise of its neighbour column.
REPEATS = 5


def _best_s(run):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_planning_scaling_report(report, benchmark):
    """Offline planning cost vs n: near-linear (the compiled Euler
    split is O(E log D), the NumPy one at most O(E log E log D)), and
    inverse planning — which reuses the global colouring — is cheaper
    than a fresh plan."""

    def sweep():
        rows = []
        sizes, times = [], []
        for m in (64, 128, 256):
            n = m * m
            p = random_permutation(n, seed=m)
            plan = ScheduledPermutation.plan(p, width=32)
            t_plan = _best_s(lambda p=p: ScheduledPermutation.plan(
                p, width=32))
            t_inv = _best_s(plan.inverse)
            rows.append([m, n, round(t_plan * 1e3, 1),
                         round(t_inv * 1e3, 1),
                         round(t_inv / t_plan, 2)])
            sizes.append(float(n))
            times.append(t_plan)
        slope = loglog_slope(sizes, times)
        assert slope < 1.6          # near-linear planning
        # Inverse planning skips the global colouring: cheaper.
        assert all(r[3] < r[2] for r in rows)
        return rows, slope

    # One untimed plan at the smallest size first: the sweep's first
    # plan would otherwise also pay first-call costs (lazy imports,
    # allocator growth) and skew the fitted exponent.
    ScheduledPermutation.plan(random_permutation(64 * 64, seed=64), width=32)
    rows, slope = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "planning_scaling",
        format_table(
            ["sqrt(n)", "n", "plan ms", "inverse ms", "inv/plan"],
            rows,
            title=(f"offline planning cost (width 32, best of "
                   f"{REPEATS}); growth O(n^{slope:.2f})"),
        ),
    )
