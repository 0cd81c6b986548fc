"""König edge colouring by Euler splitting.

A regular bipartite multigraph in which every node has even degree
splits into two regular sub-multigraphs of half the degree: pair the
incident edges of every node into two-edge *copies* of the node; the
copy graph is 2-regular, its components are even cycles, and taking
alternate edges of every cycle sends exactly one edge of each copy to
each half.  Splitting ``a`` times cuts a degree-``D = 2**a * q``
multigraph into ``2**a`` subgraphs of odd degree ``q``.  For the
power-of-two degrees the paper uses (``sqrt(n)`` and ``sqrt(n)/w``
throughout Section VIII) ``q = 1`` and the subgraphs are the colour
classes.

Otherwise the *odd step* stacks the ``2**a`` subgraphs into one
``q``-regular graph (node ``sub*N + node``), peels one perfect
matching off it with :func:`scipy.sparse.csgraph.maximum_bipartite_matching`
(Hall's theorem guarantees one), and colours the ``(q-1)``-regular,
even-degree remainder the same way.  scipy is imported only when the
odd step runs.

The split is defined level by level.  Each edge carries its colour
prefix ``sub`` and its ranks ``rl``/``rr`` among the edges of its
subgraph at its left and right node; the copies of a node are the rank
pairs ``(2j, 2j+1)``.  Ranks are taken once, in edge
order (the rank of ``e`` at node ``u`` is the number of smaller edges
at ``u``); after a split each copy has sent one edge to each half, so
``rank >> 1`` is again a rank in the half.  Per level the keys
``(sub*N + node)*d + rank`` of a side are a permutation of ``[0, E)``,
so one scatter of the edge ids to their keys and a gather at
``key ^ 1`` give the partners ``sigma`` (left) and ``pi`` (right).
``tau = sigma∘pi`` steps two edges along a cycle of the copy graph;
its orbits are the cycles' alternate edge classes, and ``pi`` maps each
class ``O`` onto the other.  The class holding the least edge of
``O ∪ pi(O)`` takes the lower half.

Two kernels compute that split, with identical results.  The compiled
one (``_split.c``, built on import with the system C compiler into the
package's ``__pycache__`` and loaded with :mod:`ctypes`) counts the
ranks in edge order and stores each subgraph as a block of slots in
left-key order, so ``sigma`` is ``k ^ 1``.  Per block it builds ``pi``
with one scatter and one gather and walks each cycle once: the walk's
slots are one class ``O`` and their partners ``k ^ 1`` are ``pi(O)``,
and the side holding the cycle's least edge id takes the lower half,
which is the rule above whatever slot the walk starts from.  One
sequential pass then moves the lower slots to the first half of the
block, both keys halved, and the kernel recurses on the halves depth
first, so deep levels run in cache.  Cost: ``O(E)`` per level,
``O(E log D)`` in all.  The NumPy kernel runs when no library can be
built or loaded and for ``E >= 2**31`` edges: one stable sort per side
for the ranks, then per level ``O(E)`` scatters and gathers plus
min-label pointer doubling along the cycles, ``O(log L)`` gathers for
the longest cycle length ``L`` (at most ``O(E log D log E)`` in all).
Either way, add one matching per odd factor.

The planner's two colourings have their own compiled entry points,
:func:`split_rows` (the bank colourings of a row-wise step, paper
Section VI) and :func:`split_global` (the row multigraph, Section VII).
They take the plan's arrays rather than a graph, compute the keys in
closed form, and build the schedule arrays in the call that splits:
``s`` and ``t``, or the colours, ``delta`` and ``gamma3``.  Their
colours are the ones :func:`edge_coloring` gives the same graph.  They
run when the library loaded, the edge ids fit 32 bits and the degree
is a power of two (:func:`fused_split`); otherwise the planner builds
the graph, colours it with :func:`edge_coloring` and scatters the
arrays in NumPy, the reference they are tested against.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError, NotRegularError, SchedulingError
from repro.util.arrays import smallest_index_dtype
from repro.util.native import load_library
from repro.util.validation import is_power_of_two

_SOURCE = Path(__file__).with_name("_split.c")
#: The compiled kernel numbers edges in 32 bits; larger graphs take the
#: NumPy split.
_NATIVE_MAX_EDGES = 2**31
#: The compiled kernel's nonzero return codes.
_KERNEL_ERRORS = {
    1: "the edge count is not num_nodes * degree, or 2**levels does "
       "not divide the degree",
    2: "a node id is out of range",
    3: "the multigraph is not regular",
    4: "an Euler walk did not close",
}
_KERNEL_NO_MEMORY = 5
#: The code of a row of ``gamma`` that is no permutation (``split_rows``).
_KERNEL_NOT_PERMUTATION = 6
_EDGES = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_INDEX = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_OUT = np.ctypeslib.ndpointer(flags="C_CONTIGUOUS,WRITEABLE")
#: Each symbol's ``(argtypes, restype)``; every one returns 0 or one of
#: the codes above.
_SIGNATURES = {
    # (left, right, num_edges, num_nodes, degree, levels, sub)
    "split_levels": ((
        _EDGES, _EDGES, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int32,
        np.ctypeslib.ndpointer(np.int32, ndim=1,
                               flags="C_CONTIGUOUS,WRITEABLE"),
    ), ctypes.c_int),
    # (gamma, rows, m, width, levels, itemsize, s, t)
    "split_rows": ((
        _INDEX, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int32, ctypes.c_int32, _OUT, _OUT,
    ), ctypes.c_int),
    # (p, m, levels, colours, delta, gamma3)
    "split_global": ((
        _INDEX, ctypes.c_int64, ctypes.c_int32, _OUT, _OUT, _OUT,
    ), ctypes.c_int),
}

_KERNEL = load_library(_SOURCE, _SIGNATURES)
#: Whether this process colours with the compiled kernel; decided once,
#: on import, by whether the library could be built and loaded.
NATIVE = _KERNEL is not None


def _native(num_edges: int) -> bool:
    return _KERNEL is not None and num_edges < _NATIVE_MAX_EDGES


def fused_split(num_edges: int, degree: int) -> bool:
    """Whether :func:`split_rows` and :func:`split_global` run on a
    plan colouring of ``num_edges`` edges and ``degree``: the library
    loaded, the edge ids fit 32 bits, and ``degree`` is a power of two
    (no odd step)."""
    return num_edges > 0 and _native(num_edges) and is_power_of_two(degree)


def _check_status(status: int, num_edges: int) -> None:
    if status == _KERNEL_NO_MEMORY:
        raise MemoryError(f"Euler split of {num_edges} edges")
    if status:
        raise ColoringError(
            "Euler split refused its input: "
            + _KERNEL_ERRORS.get(status, f"kernel error {status}")
        )


def split_rows(gamma: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The row-wise schedule ``(s, t)`` of the row permutations
    ``gamma`` (``(rows, m)``, integral) at ``width``, by one compiled
    call; the arrays :meth:`~repro.core.rowwise.RowwiseSchedule.plan`
    builds from :func:`edge_coloring` of the stacked bank multigraph.

    Each row is checked to be a permutation of ``0..m-1``
    (:class:`~repro.errors.SchedulingError` otherwise).  Only for a
    plan that :func:`fused_split` accepts, with ``m / width`` as the
    degree.
    """
    rows, m = gamma.shape
    degree = m // width
    dtype = smallest_index_dtype(m - 1)
    s = np.empty((rows, m), dtype=dtype)
    t = np.empty((rows, m), dtype=dtype)
    with telemetry.span("coloring.euler", edges=rows * m, degree=degree,
                        kernel="split_rows"):
        status = _KERNEL.split_rows(
            np.ascontiguousarray(gamma, dtype=np.int64), rows, m, width,
            degree.bit_length() - 1, dtype.itemsize, s, t,
        )
    if status == _KERNEL_NOT_PERMUTATION:
        raise SchedulingError(
            "every row of gamma must be a permutation of 0..m-1"
        )
    _check_status(status, rows * m)
    return s, t


def split_global(
    p: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The global colouring of ``p``'s row multigraph (``n = m²``
    elements, ``int64``) and the ``delta`` and ``gamma3`` it gives, by
    one compiled call: what :func:`edge_coloring` and
    :func:`repro.core.scheduler._from_colours` return.  Only for an
    ``n`` that :func:`fused_split` accepts with degree ``m``."""
    n = m * m
    if p.shape != (n,):
        raise ColoringError(f"p must have m² = {n} entries, got {p.shape}")
    colours = np.empty(n, dtype=np.int64)
    delta = np.empty((m, m), dtype=np.int64)
    gamma3 = np.empty((m, m), dtype=np.int64)
    with telemetry.span("coloring.euler", edges=n, degree=m,
                        kernel="split_global"):
        status = _KERNEL.split_global(
            np.ascontiguousarray(p, dtype=np.int64), m,
            m.bit_length() - 1, colours, delta, gamma3,
        )
    _check_status(status, n)
    return colours, delta, gamma3


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


def edge_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Colour a regular bipartite multigraph with ``degree`` colours.

    Returns an ``int64`` array of one colour in ``[0, degree)`` per
    edge, with no two edges at a node sharing a colour.  For a
    power-of-two degree, edges in the ``True`` half of the first split
    get the lower colour range.

    A :meth:`~RegularBipartiteMultigraph.deferred` graph is checked
    here: by the compiled split, which refuses a bad node id or an
    irregular graph with a :class:`~repro.errors.ColoringError` before
    it colours, or else by the graph's own ``check()``.
    """
    native = _native(graph.num_edges)
    # The compiled split checks the whole graph whenever it splits at
    # least once: edges present and a positive even degree.
    if graph.checks_deferred and not (
        native and graph.num_edges and graph.degree > 0
        and graph.degree % 2 == 0
    ):
        degree = graph.check()
        if degree != graph.degree:
            raise NotRegularError(
                f"the multigraph is {degree}-regular, not "
                f"{graph.degree}-regular"
            )
    with telemetry.span("coloring.euler", edges=graph.num_edges,
                        degree=graph.degree,
                        kernel="native" if native else "numpy"):
        return _color(graph.left, graph.right, graph.num_left, graph.degree)


def _color(
    left: np.ndarray, right: np.ndarray, num_nodes: int, degree: int
) -> np.ndarray:
    """König colouring of a ``degree``-regular graph (see module doc)."""
    if left.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    levels = (degree & -degree).bit_length() - 1
    sub = _split_levels(left, right, num_nodes, degree, levels).astype(
        np.int64
    )
    odd = degree >> levels
    if odd == 1:
        return sub
    # Odd step: the 2**levels subgraphs, stacked, are one odd-regular
    # graph; a perfect matching of it is one colour of every subgraph.
    left = sub * num_nodes + left
    right = sub * num_nodes + right
    num_nodes <<= levels
    matched = _perfect_matching(left, right, num_nodes)
    rest = ~matched
    local = np.zeros(left.shape[0], dtype=np.int64)
    local[rest] = 1 + _color(left[rest], right[rest], num_nodes, odd - 1)
    sub *= odd
    sub += local
    return sub


def _perfect_matching(
    left: np.ndarray, right: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Mark one edge instance per node of a perfect matching.

    Parallel edges collapse for the matching itself; any instance of a
    matched pair may carry it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    num_edges = left.shape[0]
    # bool payload: duplicate pairs sum by logical or, never overflow.
    adjacency = csr_matrix(
        (np.ones(num_edges, dtype=bool), (left, right)),
        shape=(num_nodes, num_nodes),
    )
    match = maximum_bipartite_matching(adjacency, perm_type="column")
    if np.any(match < 0):
        raise ColoringError(
            "no perfect matching found; the multigraph is not regular"
        )
    candidates = np.flatnonzero(right == match[left])
    chosen = np.empty(num_nodes, dtype=np.int64)
    chosen[left[candidates]] = candidates
    matched = np.zeros(num_edges, dtype=bool)
    matched[chosen] = True
    return matched


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
    ``True`` half holds the lower prefixes.  The compiled kernel runs
    when it loaded and the edge ids fit 32 bits, the NumPy split
    otherwise; both return the same array.
    """
    num_edges = left.shape[0]
    if not _native(num_edges):
        return _split_levels_numpy(left, right, num_nodes, degree, levels)
    if right.shape != left.shape:
        raise ColoringError("left and right must have one entry per edge")
    # The kernel's ABI: _native() keeps every edge id below 2**31.
    sub = np.zeros(num_edges, dtype=np.int32)  # staticcheck: ignore[REP103]
    if num_edges == 0 or levels == 0:
        return sub
    status = _KERNEL.split_levels(
        np.ascontiguousarray(left, dtype=np.int64),
        np.ascontiguousarray(right, dtype=np.int64),
        num_edges, num_nodes, degree, levels, sub,
    )
    _check_status(status, num_edges)
    return sub


def _split_levels_numpy(
    left: np.ndarray,
    right: np.ndarray,
    num_nodes: int,
    degree: int,
    levels: int,
) -> np.ndarray:
    """The NumPy form of :func:`_split_levels`, with the same result:
    stable-sort ranks and min-label orbit doubling."""
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
        # [0, E); the copies of a node are the key pairs (2j, 2j+1) and
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
