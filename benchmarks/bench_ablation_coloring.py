"""Ablation A1: König edge colouring.

The schedule quality is identical for every proper colouring — what
differs is planning speed.  This bench times ``edge_coloring`` on the
graphs the planner actually builds (the global row multigraph of a
random permutation and a full plan) and verifies every output with
the common checker.  Degrees 24 and 96 have the odd factor 3, so they
exercise the odd (matching) step as well as the Euler splits.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.verify import verify_edge_coloring
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation


def _global_graph(m: int, seed: int) -> RegularBipartiteMultigraph:
    """The degree-m row multigraph of a random m^2 permutation."""
    p = random_permutation(m * m, seed=seed)
    i = np.arange(m * m)
    return RegularBipartiteMultigraph.from_edges(i // m, p // m, m, m)


def _path(m: int) -> str:
    """How ``edge_coloring`` colours degree ``m = 2**a * q``."""
    a = (m & -m).bit_length() - 1
    q = m >> a
    return "euler" if q == 1 else f"euler 2^{a}, odd step q={q}"


@pytest.mark.parametrize("m", [24, 32, 64, 96])
def test_bench_edge_coloring_global_graph(benchmark, m):
    graph = _global_graph(m, seed=m)
    colors = benchmark(edge_coloring, graph)
    verify_edge_coloring(graph, colors, expect_colors=m)


def test_bench_backend_in_full_plan(benchmark):
    """End-to-end planning cost, colouring included."""
    p = random_permutation(64 * 64, seed=3)
    plan = benchmark(ScheduledPermutation.plan, p, 8)
    plan.verify()


def test_coloring_report(report, benchmark):
    """``edge_coloring`` uses exactly ``m`` colours on every degree,
    power of two or not."""

    def collect():
        rows = []
        for m in (16, 24, 32, 64, 96):
            graph = _global_graph(m, seed=m)
            colors = edge_coloring(graph)
            verify_edge_coloring(graph, colors, expect_colors=m)
            rows.append([m, graph.num_edges, _path(m), int(colors.max()) + 1])
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    report(
        "ablation_coloring",
        format_table(
            ["m (degree)", "edges", "path", "colours (König)"],
            rows,
            title="A1 — König colouring of the global row multigraph "
                  "(all verified proper with exactly m colours)",
        ),
    )
