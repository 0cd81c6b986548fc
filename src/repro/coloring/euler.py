"""Edge colouring by level-synchronous Euler splitting.

A regular bipartite multigraph in which every node has even degree
splits into two regular sub-multigraphs of half the degree: pair the
incident edges of every node into two-edge *copies* of the node; the
copy graph is 2-regular, its components are even cycles, and taking
alternate edges of every cycle sends exactly one edge of each copy to
each half.  Splitting ``log2(D)`` times colours a degree-``D = 2**k``
multigraph with ``D`` colours — the constructive core of König's
theorem for the power-of-two sizes the paper uses (``sqrt(n)`` and
``sqrt(n)/w`` are powers of two throughout Section VIII).

All subgraphs of one recursion level are split together, in one pass
of NumPy scatters and gathers over the whole edge list and with no
sort after the first.  Each edge carries its colour prefix ``sub`` and
its ranks ``rl``/``rr`` among the edges of its subgraph at its left and
right node; the copies of a node are the rank pairs ``(2q, 2q+1)``.
One stable sort per side ranks the edges once; after a split each copy
has sent one edge to each half, so ``rank >> 1`` is again a rank in the
half.  Cost: one stable sort per side, then ``log2(D)`` levels of
``O(E)`` scatters and gathers plus min-label pointer doubling along
the cycles, ``O(log L)`` gathers for the longest cycle length ``L``
(at most ``O(E log D log E)`` in all).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError
from repro.util.validation import is_power_of_two

#: Fault-injection hook (see :mod:`repro.resilience.faults`).  ``None``
#: in production — the only cost on the happy path is this None check.
#: When set (by an active ``FaultPlan``), it is called as
#: ``_fault_hook("euler", graph)`` before colouring and may raise.
_fault_hook = None


def euler_split(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Split an even-degree regular bipartite multigraph into two halves.

    Returns a boolean array of length ``num_edges``; ``True`` marks the
    edges of the first half.  Both halves are ``degree/2``-regular.
    """
    if graph.degree % 2 != 0:
        raise ColoringError(
            f"Euler split requires an even degree, got {graph.degree}"
        )
    return _split_levels(
        graph.left, graph.right, graph.num_left, graph.degree, 1
    ) == 0


def euler_split_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Colour a power-of-two-degree regular bipartite multigraph.

    Euler-splits level by level until degree 1 (a perfect matching,
    one colour).  Colours are integers in ``[0, degree)``; edges in the
    ``True`` half of a split get the lower colour range.  Raises
    :class:`~repro.errors.ColoringError` when the degree is not a power
    of two (use :func:`repro.coloring.matching_coloring` instead).
    """
    with telemetry.span("coloring.euler", edges=graph.num_edges,
                        degree=graph.degree):
        if _fault_hook is not None:
            _fault_hook("euler", graph)
        if graph.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        if not is_power_of_two(graph.degree):
            raise ColoringError(
                "Euler-split colouring requires a power-of-two degree, got "
                f"{graph.degree}; use the 'matching' backend for general "
                "degrees"
            )
        levels = graph.degree.bit_length() - 1
        colors = _split_levels(
            graph.left, graph.right, graph.num_left, graph.degree, levels
        )
        return colors.astype(np.int64)


def _split_levels(
    left: np.ndarray,
    right: np.ndarray,
    num_nodes: int,
    degree: int,
    levels: int,
) -> np.ndarray:
    """Each edge's colour prefix after ``levels`` Euler splits.

    The graph is ``degree``-regular on ``num_nodes`` nodes per side and
    ``2**levels`` must divide ``degree``.  Returns ``sub`` in
    ``[0, 2**levels)``: edges with equal ``sub`` form a
    ``degree / 2**levels``-regular subgraph, and the first split's
    ``True`` half holds the lower prefixes.
    """
    num_edges = left.shape[0]
    idx = np.int32 if num_edges < 2**31 else np.int64
    sub = np.zeros(num_edges, dtype=idx)
    if num_edges == 0 or levels == 0:
        return sub
    ids = np.arange(num_edges, dtype=idx)
    rl = _ranks(left, num_nodes, degree, ids)
    rr = _ranks(right, num_nodes, degree, ids)
    left = left.astype(idx)
    right = right.astype(idx)
    # One workspace for all levels: the planner colours 2**20-edge
    # graphs, and fresh multi-MiB temporaries per level only inflate
    # the allocator's resident set.
    slot, key, sigma, pi, gathered = (
        np.empty(num_edges, dtype=idx) for _ in range(5)
    )
    upper = np.empty(num_edges, dtype=bool)
    d = degree
    for _ in range(levels):
        # The 2**k subgraphs are d-regular on num_nodes nodes per side,
        # so the key (sub*N + node)*d + rank is a permutation of
        # [0, E); the copies of a node are the key pairs (2q, 2q+1) and
        # an edge's partner at its copy sits at key ^ 1.
        for nodes, ranks, partner in ((left, rl, sigma), (right, rr, pi)):
            np.multiply(sub, num_nodes, out=key)
            key += nodes
            key *= d
            key += ranks
            np.put(slot, key, ids, mode="wrap")
            key ^= 1
            np.take(slot, key, out=partner, mode="wrap")
        # tau = sigma∘pi steps two edges along a cycle of the copy
        # graph, so its orbits are the cycles' two alternate edge
        # classes; pi maps each class onto the other.
        tau = np.take(sigma, pi, out=slot, mode="wrap")
        labels = key  # the keys are spent; reuse their buffer
        np.copyto(labels, ids)
        _orbit_minima(tau, labels, gathered, sigma)
        # The class with the larger orbit label takes the upper half.
        partner_label = np.take(labels, pi, out=gathered, mode="wrap")
        np.greater(labels, partner_label, out=upper)
        sub <<= 1
        sub |= upper
        rl >>= 1
        rr >>= 1
        d //= 2
    return sub


def _ranks(
    nodes: np.ndarray, num_nodes: int, degree: int, ids: np.ndarray
) -> np.ndarray:
    """Rank of every edge among the ``degree`` edges at its node.

    One stable sort: the ``j``-th edge of node ``u`` lands at sorted
    position ``u*degree + j``.  Node ids below ``2**16`` sort as
    ``uint16``, which NumPy sorts by radix.
    """
    narrow = np.uint16 if num_nodes <= 1 << 16 else ids.dtype
    order = np.argsort(nodes.astype(narrow), kind="stable")
    ranks = np.empty_like(ids)
    ranks[order] = ids % degree
    return ranks


def _orbit_minima(
    hop: np.ndarray,
    labels: np.ndarray,
    gathered: np.ndarray,
    spare: np.ndarray,
) -> int:
    """Overwrite ``labels`` with the minimum label of each ``hop``-orbit.

    Min-label pointer doubling: after step ``t`` an element's label is
    the minimum over its next ``2**t`` orbit elements.  ``hop`` (a
    permutation) and ``spare`` are clobbered; ``gathered`` is scratch.
    Returns the number of doubling steps taken.

    The loop stops at the first step that changes no label, which is
    exact.  Write ``M(e, k)`` for the minimum over ``e, hop(e), ...,
    hop^(k-1)(e)``.  A step with ``K = 2**(t-1)`` that changes nothing
    means ``M(e, 2K) = M(e, K)`` for every ``e``; then by induction
    ``M(e, (j+1)K) = min(M(e, K), M(hop^K(e), jK)) = min(M(e, K),
    M(hop^K(e), K)) = M(e, 2K) = M(e, K)`` for every ``j``, so ``M(e,
    K)`` is already the minimum of the whole orbit.
    """
    steps = 0
    while True:
        np.take(labels, hop, out=gathered, mode="wrap")
        steps += 1
        if not np.less(gathered, labels).any():
            return steps
        np.minimum(labels, gathered, out=labels)
        np.take(hop, hop, out=spare, mode="wrap")
        hop, spare = spare, hop
