"""Pure-Python reference colouring: repeated perfect matchings.

König's theorem is constructive through Hall's theorem: a
``D``-regular bipartite multigraph always contains a perfect matching;
remove it and the remainder is ``(D-1)``-regular, so ``D`` matchings
colour it.  This textbook construction shares nothing with
:func:`repro.coloring.edge_coloring` (no Euler split, no stacking), so
the tests use it as an independent oracle.  Two matchers drive it:
:func:`hopcroft_karp_matching`, dependency-free, and scipy's
``maximum_bipartite_matching``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

_INF = float("inf")


def hopcroft_karp_matching(
    adjacency: list[list[int]], num_right: int
) -> np.ndarray:
    """Maximum bipartite matching via Hopcroft–Karp.

    ``adjacency[u]`` lists the right-side neighbours of left node ``u``.
    Returns ``match[u]`` = matched right node or ``-1``.  Runs in
    ``O(E sqrt(V))``.
    """
    num_left = len(adjacency)
    match_left = [-1] * num_left
    match_right = [-1] * num_right
    dist = [0.0] * num_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(num_left):
            if match_left[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(num_left):
            if match_left[u] == -1:
                dfs(u)
    return np.asarray(match_left, dtype=np.int64)


def _hk_matcher(left, right, num_nodes):
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in zip(left.tolist(), right.tolist()):
        adjacency[u].append(v)
    return hopcroft_karp_matching(adjacency, num_nodes)


def _scipy_matcher(left, right, num_nodes):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    graph = csr_matrix(
        (np.ones(left.shape[0], dtype=bool), (left, right)),
        shape=(num_nodes, num_nodes),
    )
    return maximum_bipartite_matching(graph, perm_type="column")


def _coloring_by_matchings(graph, matcher) -> np.ndarray:
    """Colour ``graph`` by peeling ``degree`` perfect matchings."""
    colors = np.full(graph.num_edges, -1, dtype=np.int64)
    for color in range(graph.degree):
        rest = np.flatnonzero(colors < 0)
        match = matcher(graph.left[rest], graph.right[rest],
                        graph.num_left)
        assert np.all(match >= 0), "a regular graph has a perfect matching"
        # One edge instance per matched pair.
        chosen: dict[int, int] = {}
        for e in rest.tolist():
            u = int(graph.left[e])
            if graph.right[e] == match[u]:
                chosen.setdefault(u, e)
        colors[list(chosen.values())] = color
    return colors


def hopcroft_karp_coloring(graph) -> np.ndarray:
    """König colouring by repeated pure-Python Hopcroft–Karp."""
    return _coloring_by_matchings(graph, _hk_matcher)


def matching_coloring(graph) -> np.ndarray:
    """König colouring by repeated scipy matchings."""
    return _coloring_by_matchings(graph, _scipy_matcher)
