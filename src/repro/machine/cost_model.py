"""Vectorised stage counting for DMM and UMM access rounds.

This module implements the paper's cost model (Sections II–III) in
closed form:

* a warp's requests to the **shared memory** (DMM) occupy ``k``
  pipeline stages where ``k`` is the maximum number of requests landing
  in one bank (bank of address ``i`` is ``i mod w``);
* a warp's requests to the **global memory** (UMM) occupy ``k`` stages
  where ``k`` is the number of *distinct address groups* touched
  (group of address ``i`` is ``i div w``);
* a sequence of rounds totalling ``S`` stages completes in
  ``S + l - 1`` time units (Lemma 1 and the casual-access bound).

Everything here is pure NumPy over the whole round at once — O(n log w)
with tiny constants — so simulating multi-million-element kernels takes
milliseconds.  The cycle-accurate engine in
:mod:`repro.machine.pipeline` computes the same numbers by explicit
simulation; a property test pins the two together.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AccessRoundError
from repro.machine.requests import AccessRound


def element_cells_of(dtype) -> int:
    """Cells (32-bit words) per element of ``dtype``.

    The model's cell is the paper's float/int word; doubles span two
    cells (their global accesses cost two transactions per group),
    while sub-word types (the uint16 schedule arrays) still occupy one
    cell slot each — conservatively charging them full-word bandwidth.
    """
    return max(1, np.dtype(dtype).itemsize // 4)


def _to_warps(addresses: np.ndarray, width: int) -> np.ndarray:
    """Reshape a flat address stream into ``(num_warps, width)``.

    The tail warp is padded with ``-1`` (inactive).  Returns a fresh
    array only when padding is needed.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if width < 1:
        raise AccessRoundError(f"width must be >= 1, got {width}")
    n = addresses.shape[0]
    num_warps = -(-n // width) if n else 0
    if num_warps * width == n:
        return addresses.reshape(num_warps, width)
    padded = np.full(num_warps * width, -1, dtype=np.int64)
    padded[:n] = addresses
    return padded.reshape(num_warps, width)


def _expand_cells(addresses: np.ndarray, element_cells: int) -> np.ndarray:
    """Expand element addresses into cell addresses.

    The base model's cell is one 32-bit word (the paper's float/int
    payloads).  Wider elements (doubles: ``element_cells = 2``) occupy
    consecutive cells, so each access touches ``k`` cells — a warp of
    doubles spans twice the address groups, exactly why the paper's
    Table II(b) times are roughly double Table II(a)'s.  Inactive
    (``-1``) slots expand to inactive slots.
    """
    if element_cells == 1:
        return np.asarray(addresses, dtype=np.int64)
    if element_cells < 1:
        raise AccessRoundError(
            f"element_cells must be >= 1, got {element_cells}"
        )
    addresses = np.asarray(addresses, dtype=np.int64)
    offsets = np.arange(element_cells, dtype=np.int64)
    expanded = addresses[:, None] * element_cells + offsets[None, :]
    expanded[addresses < 0] = -1
    return expanded.reshape(-1)


def global_warp_stages(
    addresses: np.ndarray, width: int, element_cells: int = 1
) -> np.ndarray:
    """Stages per warp for a global (UMM) round.

    Each warp costs the number of distinct address groups among its
    active threads' cells; a warp with no active thread costs 0 (it is
    not dispatched, Section II).  With ``element_cells = k``, a warp's
    ``w`` threads touch ``w*k`` cells.
    """
    width_cells = width * element_cells
    warps = _to_warps(
        _expand_cells(addresses, element_cells), width_cells
    )
    if warps.size == 0:
        return np.zeros(0, dtype=np.int64)
    groups = np.where(warps >= 0, warps // width, np.int64(-1))
    ordered = np.sort(groups, axis=1)
    # Count the distinct non-negative values per row: the first active
    # entry starts a run, then every change of value adds one.
    first_active = (ordered[:, :1] >= 0).astype(np.int64)
    changes = (ordered[:, 1:] != ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    return (first_active.sum(axis=1) + changes.sum(axis=1)).astype(np.int64)


def shared_warp_stages(addresses: np.ndarray, width: int) -> np.ndarray:
    """Stages per warp for a shared (DMM) round.

    Each warp costs the maximum number of its active requests that land
    in one bank (``max`` multiplicity of ``address mod w``).
    """
    warps = _to_warps(addresses, width)
    num_warps = warps.shape[0]
    if num_warps == 0:
        return np.zeros(0, dtype=np.int64)
    active = warps >= 0
    warp_idx, _lane = np.nonzero(active)
    banks = warps[active] % width
    counts = np.bincount(
        warp_idx * width + banks, minlength=num_warps * width
    ).reshape(num_warps, width)
    return counts.max(axis=1).astype(np.int64)


def global_round_stages(
    addresses: np.ndarray, width: int, element_cells: int = 1
) -> int:
    """Total pipeline stages of a global round (sum over all warps).

    All warps — from every DMM — funnel through the single UMM
    (Section II: "if multiple DMMs try to access the global memory,
    they are dispatched in turn"), so stages add up across the whole
    grid.
    """
    return int(global_warp_stages(addresses, width, element_cells).sum())


def shared_round_stages(
    addresses: np.ndarray,
    width: int,
    block_size: int,
    num_dmms: int = 1,
) -> int:
    """Effective stages of a shared round executed on ``num_dmms`` DMMs.

    Blocks of ``block_size`` threads are assigned round-robin to DMMs
    (block ``b`` on DMM ``b mod d``); DMMs operate independently, so
    the round's cost is the **maximum** per-DMM stage total.
    ``block_size`` must be a multiple of the width so warps never
    straddle blocks.
    """
    if block_size % width != 0:
        raise AccessRoundError(
            f"block_size {block_size} must be a multiple of the width {width}"
        )
    per_warp = shared_warp_stages(addresses, width)
    if per_warp.size == 0:
        return 0
    warps_per_block = block_size // width
    block_of_warp = np.arange(per_warp.shape[0], dtype=np.int64) // warps_per_block
    dmm_of_warp = block_of_warp % num_dmms
    per_dmm = np.bincount(dmm_of_warp, weights=per_warp, minlength=num_dmms)
    return int(per_dmm.max())


def round_time(stages: int, latency: int) -> int:
    """Completion time of a round occupying ``stages`` pipeline stages.

    ``stages + l - 1`` time units (Lemma 1); a round nobody participates
    in costs nothing.
    """
    if stages <= 0:
        return 0
    return int(stages) + int(latency) - 1


def classify_round(rnd: AccessRound, width: int) -> str:
    """Classify a round as the paper does (Section III).

    * global round, every warp touches one group  -> ``"coalesced"``
    * shared round, every warp conflict-free      -> ``"conflict-free"``
    * anything else                               -> ``"casual"``
    """
    if rnd.space == "global":
        # Classification follows element addresses (a warp of doubles
        # reading consecutively is still "coalesced" even though it
        # needs two transactions — CUDA's terminology).
        per_warp = global_warp_stages(rnd.addresses, width)
    else:
        per_warp = shared_warp_stages(rnd.addresses, width)
    if per_warp.size == 0 or per_warp.max() <= 1:
        return "coalesced" if rnd.space == "global" else "conflict-free"
    return "casual"
