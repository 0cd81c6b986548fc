"""Shared fixtures and hypothesis strategies for the test suite.

Hypothesis profiles: the default is CI-friendly; set
``HYPOTHESIS_PROFILE=thorough`` for a deep overnight fuzz (10x the
examples) or ``HYPOTHESIS_PROFILE=quick`` for a fast smoke pass.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.machine.params import MachineParams

settings.register_profile("default", settings())
settings.register_profile(
    "thorough", settings(max_examples=1000, deadline=None)
)
settings.register_profile(
    "quick", settings(max_examples=10, deadline=None)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------


@pytest.fixture(params=["numpy", "native"])
def colouring_route(request, monkeypatch) -> str:
    """Plan on one colouring route.  ``numpy`` unloads the split kernel,
    so every plan colouring builds its graph, runs ``edge_coloring`` and
    scatters the plan arrays in NumPy; ``native`` keeps it, so a
    power-of-two degree takes the kernel's ``split_rows`` and
    ``split_global`` (skipped where the kernel could not be built)."""
    from repro.coloring import euler

    if request.param == "numpy":
        monkeypatch.setattr(euler, "_KERNEL", None)
    elif not euler.NATIVE:
        pytest.skip("no compiled kernel: NumPy is the only route")
    return request.param


@pytest.fixture
def tiny_machine() -> MachineParams:
    """A width-4 machine, small enough for hand-checked numbers."""
    return MachineParams(
        width=4, latency=5, num_dmms=2, shared_capacity=None
    )


@pytest.fixture
def single_dmm_machine() -> MachineParams:
    """One DMM — the configuration the paper's Lemmas are stated in."""
    return MachineParams(
        width=4, latency=5, num_dmms=1, shared_capacity=None
    )


@pytest.fixture
def gtx_machine() -> MachineParams:
    """The GTX-680-like configuration (width 32, 8 DMMs, 48 KB)."""
    return MachineParams.gtx680(latency=64)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def permutations_st(draw, max_n: int = 256, require_square: bool = False):
    """A random permutation as an int64 numpy array."""
    if require_square:
        m = draw(st.integers(min_value=1, max_value=16))
        n = m * m
    else:
        n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64)


@st.composite
def square_permutations_st(draw, widths=(2, 4, 8), max_mult: int = 4):
    """A permutation whose length is (k*w)**2 — valid for the scheduled
    algorithm.  Returns (p, width)."""
    width = draw(st.sampled_from(widths))
    mult = draw(st.integers(min_value=1, max_value=max_mult))
    m = width * mult
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.permutation(m * m).astype(np.int64), width


@st.composite
def regular_multigraphs_st(draw, max_nodes: int = 8, max_degree: int = 8):
    """A random regular bipartite multigraph (as a RegularBipartiteMultigraph).

    Built as a union of ``degree`` random perfect matchings — guaranteed
    regular, and parallel edges arise naturally.
    """
    from repro.coloring.multigraph import RegularBipartiteMultigraph

    nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return RegularBipartiteMultigraph(left, right, nodes, nodes)


@st.composite
def row_permutation_matrices_st(draw, widths=(2, 4), max_mult: int = 4):
    """(gamma, width): a stack of per-row permutations for RowwiseSchedule."""
    width = draw(st.sampled_from(widths))
    mult = draw(st.integers(min_value=1, max_value=max_mult))
    m = width * mult
    rows = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    gamma = np.stack([rng.permutation(m) for _ in range(rows)]).astype(np.int64)
    return gamma, width


def prove_scheduled(plan, p) -> None:
    """Check a scheduled plan of ``p`` with the two oracles and the two
    proofs: its decomposition routes ``p`` with a proper König
    colouring of the row multigraph, all 32 rounds certify, and its
    lowered program denotes ``p``."""
    from repro.coloring import RegularBipartiteMultigraph
    from repro.coloring.verify import verify_edge_coloring
    from repro.staticcheck import certify_plan, denote_program

    p = np.asarray(p, dtype=np.int64)
    plan.decomposition.route(p)
    m = plan.m
    i = np.arange(m * m, dtype=np.int64)
    graph = RegularBipartiteMultigraph.from_edges(i // m, p // m, m, m)
    verify_edge_coloring(graph, plan.decomposition.colors,
                         expect_colors=m)
    assert certify_plan(plan).ok
    den = denote_program(plan.lower())
    assert den.ok and np.array_equal(den.index_map, p)


def plan_arrays(plan) -> dict[str, np.ndarray]:
    """Every array a scheduled plan's colourings built, by name: the
    decomposition's colours and families and each step's ``s``/``t``."""
    d = plan.decomposition
    arrays = {"colors": d.colors, "gamma1": d.gamma1, "delta": d.delta,
              "gamma3": d.gamma3}
    for name, step in (("step1", plan.step1),
                       ("step2", plan.step2.rowwise),
                       ("step3", plan.step3)):
        arrays[f"{name}.s"] = step.s
        arrays[f"{name}.t"] = step.t
    return arrays


def same_arrays(got: dict, want: dict) -> bool:
    """Whether two :func:`plan_arrays` agree bit for bit, dtypes too."""
    return got.keys() == want.keys() and all(
        got[k].dtype == want[k].dtype and np.array_equal(got[k], want[k])
        for k in want
    )
