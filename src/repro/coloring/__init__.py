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

Any proper colouring gives the same conflict-free rounds, so there is
one: :func:`edge_coloring`, which Euler-splits level by level down to
the odd part of the degree (all of it for the paper's power-of-two
sizes) and peels perfect matchings off what remains.  It returns one
colour per *edge instance*; :func:`verify_edge_coloring` checks it.
The one exception is a graph built from a GF(2)-affine permutation,
which :func:`repro.coloring.affine.affine_colour_map` colours in closed
form.
"""

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.euler import edge_coloring, euler_split
from repro.coloring.verify import is_proper_edge_coloring, verify_edge_coloring

__all__ = [
    "RegularBipartiteMultigraph",
    "edge_coloring",
    "euler_split",
    "is_proper_edge_coloring",
    "verify_edge_coloring",
]
