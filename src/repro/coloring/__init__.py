"""König edge colouring of regular bipartite multigraphs.

The scheduled permutation algorithm rests on König's theorem (paper
Theorem 6): *a regular bipartite multigraph of degree k is
k-edge-colourable*.  The colouring is used twice:

* **globally** (Section VII) — a degree-``sqrt(n)`` multigraph between
  source rows and destination rows; the colour of an element is the
  intermediate column it is routed through, and
* **per row** (Section VI) — a degree-``sqrt(n)/w`` multigraph between
  the ``w`` source banks and ``w`` destination banks of the shared
  memory; the colouring yields the conflict-free schedule arrays ``s``
  and ``t``.

Three interchangeable backends are provided:

* :func:`euler_split_coloring` — Euler splitting, all subgraphs of a
  level at once with no sort after the first, exact for power-of-two
  degrees (all sizes in the paper); ``log2 D`` levels of O(E) NumPy
  work plus O(log L) pointer-doubling steps for the longest split
  cycle ``L`` (at most O(E log D log E));
* :func:`matching_coloring` — repeated perfect-matching extraction via
  :func:`scipy.sparse.csgraph.maximum_bipartite_matching` (any degree);
* :func:`hopcroft_karp_coloring` — dependency-free pure-Python
  Hopcroft–Karp variant (any degree), used as a cross-check.

All backends return one colour per *edge instance* and are verified by
:func:`verify_edge_coloring`.
"""

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.euler import euler_split, euler_split_coloring
from repro.coloring.matching import (
    hopcroft_karp_coloring,
    hopcroft_karp_matching,
    matching_coloring,
)
from repro.coloring.birkhoff import birkhoff_decomposition
from repro.coloring.hybrid import hybrid_coloring
from repro.coloring.verify import is_proper_edge_coloring, verify_edge_coloring

BACKENDS = {
    "euler": euler_split_coloring,
    "hybrid": hybrid_coloring,
    "matching": matching_coloring,
    "hopcroft-karp": hopcroft_karp_coloring,
}


def edge_coloring(graph, backend: str = "auto"):
    """Colour a regular bipartite multigraph with ``degree`` colours.

    ``backend`` is ``"euler"``, ``"hybrid"``, ``"matching"``,
    ``"hopcroft-karp"`` or ``"auto"`` (Euler splitting when the degree
    is a power of two — always the case for the paper's sizes — else
    the hybrid split+matching backend).  Returns an ``int64`` array of
    one colour per edge.
    """
    from repro.errors import ColoringError
    from repro.util.validation import is_power_of_two

    if backend == "auto":
        backend = "euler" if is_power_of_two(graph.degree) else "hybrid"
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ColoringError(
            f"unknown colouring backend {backend!r}; expected one of "
            f"{sorted(BACKENDS)} or 'auto'"
        ) from None
    return fn(graph)


__all__ = [
    "BACKENDS",
    "RegularBipartiteMultigraph",
    "birkhoff_decomposition",
    "edge_coloring",
    "euler_split",
    "euler_split_coloring",
    "hopcroft_karp_coloring",
    "hybrid_coloring",
    "hopcroft_karp_matching",
    "is_proper_edge_coloring",
    "matching_coloring",
    "verify_edge_coloring",
]
