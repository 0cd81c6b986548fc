"""Optional L2 cache model for the global memory (extension, DESIGN A2).

The paper's Section VIII observes that the conventional algorithm beats
the (optimal) scheduled algorithm for ``n <= 256K`` and attributes it to
the GTX-680's 512 KB L2 cache: "the L2 cache decreases the overhead of
the casual memory access ... efficiently for small n".  The base model
has no cache, so this module adds one as a clearly-marked extension:

* a cache line is one address group (``width`` cells of ``cell_bytes``
  each — 32 x 4 B = 128 B, matching real CUDA line size);
* the cache is set-associative with LRU replacement;
* every stage of a global round touches one line; a *hit* costs
  ``hit_stages`` (default 1, as in the base model) and a *miss* costs
  ``miss_stages`` (default 4) — modelling the DRAM transaction overhead
  the L2 absorbs.

With the cache attached, a casual write whose working set fits in L2
costs roughly the same per touch as a coalesced one — reproducing the
paper's small-``n`` crossover.  With ``miss_stages == hit_stages == 1``
the model degenerates to the paper's exact cost model regardless of the
cache content (verified by tests).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidMachineError
from repro.machine.cost_model import _to_warps


@dataclass
class L2Cache:
    """Set-associative LRU cache over global-memory lines.

    Lines are keyed by ``(array, group)`` so distinct arrays never
    alias (each simulated array has its own address space).  The set
    index is a pure function of that key (CRC-32 of the array name plus
    the group), so a priced program costs the same in every process —
    Python's salted ``str`` hash would make it vary per run.
    """

    capacity_bytes: int = 512 * 1024
    line_bytes: int = 128
    associativity: int = 16
    hit_stages: int = 1
    miss_stages: int = 4

    num_sets: int = field(init=False)
    hits: int = field(init=False, default=0)
    misses: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise InvalidMachineError("cache capacity and line size must be > 0")
        if self.associativity <= 0:
            raise InvalidMachineError("associativity must be > 0")
        if self.hit_stages <= 0 or self.miss_stages <= 0:
            raise InvalidMachineError("hit/miss stage costs must be > 0")
        num_lines = max(1, self.capacity_bytes // self.line_bytes)
        # Clamp the way count so num_sets * ways never exceeds the line
        # budget (matters only for deliberately tiny test caches).
        self.associativity = min(self.associativity, num_lines)
        self.num_sets = max(1, num_lines // self.associativity)
        # One insertion-ordered dict per set; key -> None.  Python dicts
        # preserve insertion order, so LRU = first key, touch = delete +
        # reinsert.
        self._sets: list[dict[tuple[str, int], None]] = [
            {} for _ in range(self.num_sets)
        ]

    def reset(self) -> None:
        """Drop all cached lines and statistics."""
        for s in self._sets:
            s.clear()
        self.hits = 0
        self.misses = 0

    def touch(self, array: str, group: int) -> bool:
        """Access one line; returns ``True`` on hit.  Updates LRU state."""
        key = (array, group)
        set_index = (zlib.crc32(array.encode()) + group) % self.num_sets
        bucket = self._sets[set_index]
        if key in bucket:
            del bucket[key]       # move to MRU position
            bucket[key] = None
            self.hits += 1
            return True
        if len(bucket) >= self.associativity:
            del bucket[next(iter(bucket))]  # evict LRU
        bucket[key] = None
        self.misses += 1
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def cached_global_stages(
    addresses: np.ndarray,
    width: int,
    cache: L2Cache,
    array: str,
    element_cells: int = 1,
) -> int:
    """Stage count of a global round filtered through the L2 model.

    Warps are processed in dispatch order; within a warp each distinct
    address group is one line touch, charged ``hit_stages`` or
    ``miss_stages``.  With ``hit_stages == miss_stages == 1`` this
    equals :func:`repro.machine.cost_model.global_round_stages`.
    """
    from repro.machine.cost_model import _expand_cells

    expanded = _expand_cells(
        np.asarray(addresses, dtype=np.int64), element_cells
    )
    warps = _to_warps(expanded, width * element_cells)
    total = 0
    hit_cost = cache.hit_stages
    miss_cost = cache.miss_stages
    for row in warps:
        active = row[row >= 0]
        if active.size == 0:
            continue
        for group in np.unique(active // width).tolist():
            total += hit_cost if cache.touch(array, group) else miss_cost
    return total
