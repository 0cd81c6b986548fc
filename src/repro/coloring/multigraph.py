"""Regular bipartite multigraph representation.

Edges are stored as parallel arrays ``left[e] -> right[e]`` (an *edge
list*), which keeps the identity of each edge instance — essential,
because the schedulers need a colour per **element**, and distinct
elements may induce identical ``(left, right)`` pairs (parallel edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotRegularError, SizeError


@dataclass(frozen=True)
class RegularBipartiteMultigraph:
    """A ``degree``-regular bipartite multigraph on ``L + R`` nodes.

    Parameters
    ----------
    left, right:
        Equal-length ``int64`` arrays; edge ``e`` joins left node
        ``left[e]`` to right node ``right[e]``.
    num_left, num_right:
        Number of nodes on each side.  Regularity forces
        ``num_left == num_right`` whenever there is at least one edge.
    """

    left: np.ndarray
    right: np.ndarray
    num_left: int
    num_right: int
    degree: int = field(init=False, default=0)
    #: Whether the range and regularity checks are still to run; see
    #: :meth:`deferred`.
    checks_deferred: bool = field(
        init=False, default=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._set_endpoints()
        object.__setattr__(self, "degree", self.check())

    def _set_endpoints(self) -> None:
        left = np.ascontiguousarray(np.asarray(self.left, dtype=np.int64))
        right = np.ascontiguousarray(np.asarray(self.right, dtype=np.int64))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if left.shape != right.shape or left.ndim != 1:
            raise SizeError("left and right must be equal-length 1-D arrays")
        if self.num_left < 0 or self.num_right < 0:
            raise SizeError("node counts must be non-negative")

    def check(self) -> int:
        """Verify the endpoint ranges and regularity; return the common
        degree.  Raises :class:`~repro.errors.SizeError` or
        :class:`~repro.errors.NotRegularError`."""
        left, right = self.left, self.right
        if left.size:
            if left.min() < 0 or left.max() >= self.num_left:
                raise SizeError("left endpoints out of range")
            if right.min() < 0 or right.max() >= self.num_right:
                raise SizeError("right endpoints out of range")
        if self.num_edges == 0:
            return 0
        left_deg = np.bincount(left, minlength=self.num_left)
        right_deg = np.bincount(right, minlength=self.num_right)
        low = min(int(left_deg.min()), int(right_deg.min()))
        high = max(int(left_deg.max()), int(right_deg.max()))
        if low != high:
            raise NotRegularError(
                "bipartite multigraph is not regular: degrees range "
                f"from {low} to {high}"
            )
        return high

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, left, right, num_left: int | None = None, num_right: int | None = None
    ) -> "RegularBipartiteMultigraph":
        """Build from edge endpoint arrays, inferring node counts if omitted."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if num_left is None:
            num_left = int(left.max()) + 1 if left.size else 0
        if num_right is None:
            num_right = int(right.max()) + 1 if right.size else 0
        return cls(left, right, num_left, num_right)

    @classmethod
    def deferred(
        cls, left, right, num_nodes: int, degree: int
    ) -> "RegularBipartiteMultigraph":
        """A graph claimed ``degree``-regular on ``num_nodes`` nodes a
        side, whose :meth:`check` is left to
        :func:`~repro.coloring.edge_coloring`: the compiled Euler split
        proves range and regularity as it ranks the edges (and raises
        :class:`~repro.errors.ColoringError`), and any other colouring
        path runs :meth:`check` first, so the graph is checked once."""
        graph = cls.__new__(cls)
        for name, value in (
            ("left", left), ("right", right), ("num_left", num_nodes),
            ("num_right", num_nodes), ("degree", int(degree)),
            ("checks_deferred", True),
        ):
            object.__setattr__(graph, name, value)
        graph._set_endpoints()
        return graph

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Total number of edge instances (with multiplicity)."""
        return int(self.left.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegularBipartiteMultigraph(L={self.num_left}, R={self.num_right}, "
            f"E={self.num_edges}, degree={self.degree})"
        )
