"""Verification of edge colourings.

A colouring of a ``D``-regular bipartite multigraph is *proper* when no
two edges sharing a node have the same colour.  For a ``D``-regular
graph coloured with exactly ``D`` colours this is equivalent to: every
colour class is a perfect matching — which is precisely the property
the schedulers rely on (paper Section VI: "no two edges with the same
colour share a node").

These checks are used both defensively inside the planners and as the
oracle for property-based tests of the colouring.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError


def is_proper_edge_coloring(
    graph: RegularBipartiteMultigraph, colors: np.ndarray
) -> bool:
    """Return ``True`` iff ``colors`` is a proper edge colouring.

    Vectorised: a colouring is proper iff every ``(node, colour)`` pair
    occurs at most once on each side.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (graph.num_edges,):
        return False
    if graph.num_edges == 0:
        return True
    if colors.min() < 0:
        return False
    num_colors = int(colors.max()) + 1
    for nodes in (graph.left, graph.right):
        pair = nodes * np.int64(num_colors) + colors
        # Duplicate (node, colour) detection by sort + adjacent compare:
        # much faster than hash-based np.unique on multi-million-edge
        # planner graphs.
        pair = np.sort(pair)
        if pair.shape[0] > 1 and np.any(pair[1:] == pair[:-1]):
            return False
    return True


def verify_edge_coloring(
    graph: RegularBipartiteMultigraph,
    colors: np.ndarray,
    expect_colors: int | None = None,
) -> None:
    """Raise :class:`~repro.errors.ColoringError` unless the colouring is
    proper and (optionally) uses exactly ``expect_colors`` colours.

    For ``expect_colors == graph.degree`` (the König bound) this also
    certifies that every colour class is a *perfect* matching: with
    ``E = D * L`` edges in ``D`` classes each touching every node at
    most once, each class must touch every node exactly once.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.shape != (graph.num_edges,):
        raise ColoringError(
            f"colour array has shape {colors.shape}, expected ({graph.num_edges},)"
        )
    if graph.num_edges == 0:
        return
    if colors.min() < 0:
        raise ColoringError("negative colour found")
    # With every colour >= 0, a maximum below ``expect_colors`` also
    # bounds the number of distinct colours.
    if expect_colors is not None and colors.max() >= expect_colors:
        raise ColoringError(
            f"colouring uses colours {colors.min()}..{colors.max()}, "
            f"expected at most {expect_colors}"
        )
    if not is_proper_edge_coloring(graph, colors):
        raise ColoringError("colouring is not proper: a node sees a colour twice")
