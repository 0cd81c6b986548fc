"""Deterministic fault injection.

This module manufactures two families of failure, on demand and
reproducibly:

* **plan-file corruption** — :meth:`FaultPlan.corrupt_plan_file`
  damages a saved ``.npz`` plan or sealed sidecar in one of four ways
  (single bit flip, truncation, payload-key deletion, stale format
  version), seeded so the same :class:`FaultPlan` always produces the
  same damage; :class:`SidecarChaos` replays those faults on a
  rotation of live sidecars;
* **scatter collisions** — while a :class:`FaultPlan` is *active*
  (used as a context manager), the first
  ``scatter_collisions`` shared-memory scatters have one lane's
  address overwritten with lane 0's, manufacturing a genuine
  write-write race (the payload is corrupted, the round gains a bank
  conflict).  This is the workload the race detector
  (:func:`repro.staticcheck.detect_races`, ``HMM(...,
  detect_races=True)``) and the certifier's differential tests exist
  to catch.

Production paths pay nothing for this machinery: the round
enumerator consults a module-level hook that is ``None`` unless a plan
with a collision budget is active, and activation is strictly scoped by
the context manager.

>>> from repro.resilience import FaultPlan
>>> plan = FaultPlan(seed=7, scatter_collisions=1)
>>> with plan:
...     pass  # first shared scatter in here would collide
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.io import METADATA_KEYS, SEALED_METADATA_KEYS
from repro.errors import FaultInjectionError
from repro.ir import rounds as _rounds

#: The four supported plan-file fault modes.
FILE_FAULT_MODES = ("bit-flip", "truncate", "delete-key", "stale-version")

#: Keys never corrupted in plan files: metadata (so every mode maps to
#: one error class) plus format_version (that is the stale-version
#: mode's job).
_PLAN_PROTECTED_KEYS = frozenset(METADATA_KEYS) | {"format_version"}

#: Keys never corrupted in sealed sidecar files: the metadata that
#: binds the artifact (checksum / provenance) plus sealed_version.
_SEALED_PROTECTED_KEYS = (
    frozenset(SEALED_METADATA_KEYS) | {"sealed_version"}
)


def _corruptible_keys(arrays: dict) -> list[str]:
    """Numeric payload keys eligible for bit flips / deletion: every
    non-metadata numeric array with at least one byte of payload,
    sorted for determinism."""
    protected = (
        _SEALED_PROTECTED_KEYS if "sealed_version" in arrays
        else _PLAN_PROTECTED_KEYS
    )
    return sorted(
        k for k, arr in arrays.items()
        if k not in protected
        and np.asarray(arr).dtype.kind in "iufb"
        and np.asarray(arr).size > 0
    )

#: The currently active plan (at most one; nesting is an error).
_active: "FaultPlan | None" = None


@dataclass(frozen=True)
class InjectedFileFault:
    """What :meth:`FaultPlan.corrupt_plan_file` actually did."""

    mode: str
    path: str
    key: str | None = None      #: array key flipped/deleted, if any
    detail: str = ""


class FaultPlan:
    """A seeded, deterministic recipe of faults to inject.

    Parameters
    ----------
    seed:
        Drives every random choice (which key, which bit, how much to
        truncate).  Same seed, same faults.
    scatter_collisions:
        How many shared-memory scatters get a write-write collision
        injected while the plan is active (one duplicated address per
        scatter, in a seeded block/lane).  Counter resets on every
        activation.
    """

    def __init__(
        self,
        seed: int = 0,
        scatter_collisions: int = 0,
    ) -> None:
        if scatter_collisions < 0:
            raise FaultInjectionError(
                f"scatter_collisions must be >= 0, got "
                f"{scatter_collisions}"
            )
        self.seed = int(seed)
        self.scatter_collisions = int(scatter_collisions)
        self._scatter_remaining = 0
        self._scatter_count = 0   # per-activation, drives determinism
        self._corruptions = 0   # per-plan counter -> distinct determinism

    # ------------------------------------------------------------------
    # Activation (scatter collisions)
    # ------------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        global _active
        if _active is not None:
            raise FaultInjectionError(
                "a FaultPlan is already active; fault injection does "
                "not nest"
            )
        _active = self
        self._scatter_remaining = self.scatter_collisions
        self._scatter_count = 0
        if self.scatter_collisions:
            _rounds._scatter_fault_hook = self._scatter_hook
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _rounds._scatter_fault_hook = None
        _active = None

    def _scatter_hook(
        self, array: str, addresses: np.ndarray
    ) -> np.ndarray:
        """Called by the round enumerator with each shared write
        round's ``(blocks, threads)`` address matrix; returns what the
        write actually uses."""
        del array  # all shared arrays are fair game
        self._scatter_count += 1
        if self._scatter_remaining <= 0 or addresses.shape[1] < 2:
            return addresses
        self._scatter_remaining -= 1
        rng = np.random.default_rng([self.seed, self._scatter_count])
        block = int(rng.integers(addresses.shape[0]))
        lane = int(rng.integers(1, addresses.shape[1]))
        corrupted = addresses.copy()
        corrupted[block, lane] = corrupted[block, 0]
        return corrupted

    # ------------------------------------------------------------------
    # Plan-file corruption
    # ------------------------------------------------------------------

    def corrupt_plan_file(self, path, mode: str) -> InjectedFileFault:
        """Damage the plan file or sealed sidecar at ``path`` in place.

        ``mode`` is one of :data:`FILE_FAULT_MODES`.  Deterministic:
        the damage depends only on ``seed``, the number of previous
        corruptions by this plan, and the file content.
        """
        path = Path(path)
        if mode not in FILE_FAULT_MODES:
            raise FaultInjectionError(
                f"unknown fault mode {mode!r}; expected one of "
                f"{FILE_FAULT_MODES}"
            )
        rng = np.random.default_rng([self.seed, self._corruptions])
        self._corruptions += 1
        if mode == "truncate":
            raw = path.read_bytes()
            keep = max(1, int(len(raw) * rng.uniform(0.2, 0.8)))
            path.write_bytes(raw[:keep])
            return InjectedFileFault(
                mode=mode, path=str(path),
                detail=f"kept {keep} of {len(raw)} bytes",
            )
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        if mode == "bit-flip":
            candidates = _corruptible_keys(arrays)
            if not candidates:
                raise FaultInjectionError(
                    f"{path}: no corruptible payload keys found"
                )
            key = candidates[int(rng.integers(len(candidates)))]
            arr = arrays[key]
            buf = bytearray(arr.tobytes())
            bit = int(rng.integers(8 * len(buf)))
            buf[bit // 8] ^= 1 << (bit % 8)
            arrays[key] = np.frombuffer(
                bytes(buf), dtype=arr.dtype
            ).reshape(arr.shape)
            detail = f"flipped bit {bit}"
        elif mode == "delete-key":
            candidates = _corruptible_keys(arrays)
            if not candidates:
                raise FaultInjectionError(
                    f"{path}: no deletable payload keys found"
                )
            key = candidates[int(rng.integers(len(candidates)))]
            del arrays[key]
            detail = "deleted"
        elif "sealed_version" in arrays:   # stale-version, sidecar
            key = "sealed_version"
            arrays[key] = np.int64(0)
            detail = "rewound sealed_version to 0"
        else:   # stale-version
            key = "format_version"
            arrays[key] = np.int64(1)
            detail = "rewound format_version to 1"
        np.savez_compressed(path, **arrays)
        return InjectedFileFault(mode=mode, path=str(path), key=key,
                                 detail=detail)


class SidecarChaos:
    """Damage sealed sidecars on a fixed rotation, from copies built
    once.

    ``paths`` maps a name to its sidecar.  Each ``(name, mode)`` pair's
    damaged bytes are built up front by :meth:`FaultPlan.
    corrupt_plan_file` on a copy of the pristine file, so every
    :meth:`step` writes one complete fault whatever earlier steps left
    on disk (damaging an already truncated sidecar in place fails: it
    is no longer a zip archive).  :meth:`step` cycles the names and
    the :data:`FILE_FAULT_MODES` side by side; a write that fails is
    counted in ``skipped``, one that lands in ``corruptions``.
    """

    def __init__(self, paths: dict[str, Path], seed: int = 0) -> None:
        self.paths = {name: Path(path) for name, path in paths.items()}
        fault = FaultPlan(seed=seed)
        self.damaged: dict[tuple[str, str], bytes] = {}
        with tempfile.TemporaryDirectory() as tmp:
            scratch = Path(tmp) / "sidecar.sealed.npz"
            for name, path in self.paths.items():
                pristine = path.read_bytes()
                for mode in FILE_FAULT_MODES:
                    scratch.write_bytes(pristine)
                    fault.corrupt_plan_file(scratch, mode)
                    self.damaged[name, mode] = scratch.read_bytes()
        self._names = itertools.cycle(self.paths)
        self._modes = itertools.cycle(FILE_FAULT_MODES)
        self.corruptions = 0
        self.skipped = 0

    def step(self) -> tuple[str, str]:
        """Write the next ``(name, mode)`` fault; returns the pair."""
        name, mode = next(self._names), next(self._modes)
        try:
            self.paths[name].write_bytes(self.damaged[name, mode])
        except OSError:
            self.skipped += 1
        else:
            self.corruptions += 1
        return name, mode


def active_fault_plan() -> FaultPlan | None:
    """The currently active :class:`FaultPlan`, if any (for tests)."""
    return _active
