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


def test_planning_scaling_report(report, benchmark):
    """Offline planning cost vs n: near-linear (the level-synchronous
    Euler split is at most O(E log E log D)), and inverse planning —
    which reuses the global colouring — is cheaper than a fresh plan."""

    def sweep():
        rows = []
        sizes, times = [], []
        for m in (64, 128, 256):
            n = m * m
            p = random_permutation(n, seed=m)
            t0 = time.perf_counter()
            plan = ScheduledPermutation.plan(p, width=32)
            t_plan = time.perf_counter() - t0
            t0 = time.perf_counter()
            plan.inverse()
            t_inv = time.perf_counter() - t0
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

    rows, slope = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "planning_scaling",
        format_table(
            ["sqrt(n)", "n", "plan ms", "inverse ms", "inv/plan"],
            rows,
            title=(f"offline planning cost (width 32); growth "
                   f"O(n^{slope:.2f})"),
        ),
    )
