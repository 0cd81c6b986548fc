"""Deterministic fault injection.

Real deployments of an offline-planned permutation service see three
families of failure, and this module can manufacture all of them, on
demand and reproducibly:

* **plan-file corruption** — :meth:`FaultPlan.corrupt_plan_file`
  damages a saved ``.npz`` plan in one of four ways (single bit flip,
  truncation, payload-key deletion, stale format version), seeded so
  the same :class:`FaultPlan` always produces the same damage;
* **transient planning faults** — while a :class:`FaultPlan` is
  *active* (used as a context manager), the first ``N`` colouring
  calls raise :class:`~repro.errors.ColoringError`, modelling flaky
  solvers / OOM-killed workers during offline planning;
* **capacity walls** — any colouring of a multigraph whose degree
  reaches ``capacity_threshold`` raises
  :class:`~repro.errors.SharedMemoryCapacityError`.  The global
  three-step decomposition colours a degree-``sqrt(n)`` multigraph, so
  this reproduces the paper's 48 KB shared-memory wall (Table II(b):
  ``sqrt(n) = 4096`` doubles are infeasible) at any chosen ``sqrt(n)``;
* **scatter collisions** — while active, the first
  ``scatter_collisions`` shared-memory scatters have one lane's
  address overwritten with lane 0's, manufacturing a genuine
  write-write race (the payload is corrupted, the round gains a bank
  conflict).  This is the workload the race detector
  (:func:`repro.staticcheck.detect_races`, ``HMM(...,
  detect_races=True)``) and the certifier's differential tests exist
  to catch.

Production paths pay nothing for this machinery: the colouring modules
consult a module-level hook that is ``None`` unless a plan is active,
and activation is strictly scoped by the context manager.

>>> from repro.resilience import FaultPlan
>>> plan = FaultPlan(seed=7, transient_coloring_failures=1)
>>> with plan:
...     pass  # first colouring in here would raise ColoringError
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.coloring import euler as _euler
from repro.coloring import matching as _matching
from repro.errors import (
    ColoringError,
    FaultInjectionError,
    SharedMemoryCapacityError,
)
from repro.ir import rounds as _rounds

#: The four supported plan-file fault modes.
FILE_FAULT_MODES = ("bit-flip", "truncate", "delete-key", "stale-version")

#: Version-2 payload keys eligible for bit flips / deletion
#: (format_version is excluded so every mode maps to exactly one error
#: class).  Version-3 files derive their candidates from the generic
#: ``op{i}.*`` key groups instead — see :func:`_corruptible_keys`.
_CORRUPTIBLE_KEYS = (
    "p", "colors", "gamma1", "delta", "gamma3",
    "s1", "t1", "s2", "t2", "s3", "t3",
)

#: Keys never corrupted in v3 files: metadata (so every mode maps to
#: one error class) plus format_version (that is the stale-version
#: mode's job).
_V3_PROTECTED_KEYS = frozenset(
    ("format_version", "checksum", "library_version", "certificate")
)

#: Keys never corrupted in sealed sidecar files: the metadata that
#: binds the artifact (checksum / provenance) plus sealed_version.
_SEALED_PROTECTED_KEYS = frozenset(
    ("sealed_version", "checksum", "library_version",
     "semantic_certificate", "plan_sha", "fingerprint", "pipeline")
)


def _corruptible_keys(arrays: dict) -> list[str]:
    """Numeric payload keys eligible for bit flips / deletion.

    Version-2 files use the fixed scheduled-plan key list; version-3
    files (generic kernel programs) take every non-metadata numeric
    array with at least one byte of payload, sorted for determinism.
    """
    if "sealed_version" in arrays:
        protected = _SEALED_PROTECTED_KEYS
    else:
        protected = _V3_PROTECTED_KEYS
        if int(arrays.get("format_version", 0)) < 3:
            return [k for k in _CORRUPTIBLE_KEYS if k in arrays]
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
    transient_coloring_failures:
        How many colouring calls fail with
        :class:`~repro.errors.ColoringError` while the plan is active.
        Counters reset on every activation, so one plan can be reused
        across runs.
    coloring_sites:
        Restrict transient failures to the named hook sites
        (``"euler"``, ``"matching"``); ``None`` hits all of them.
    capacity_threshold:
        When set, any colouring of a multigraph with ``degree >=
        capacity_threshold`` raises
        :class:`~repro.errors.SharedMemoryCapacityError` — a
        *persistent* fault (no retry can help), unlike the transient
        counter.  Degree equals ``sqrt(n)`` for the global colouring.
    scatter_collisions:
        How many shared-memory scatters get a write-write collision
        injected while the plan is active (one duplicated address per
        scatter, in a seeded block/lane).  Counter resets on every
        activation.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_coloring_failures: int = 0,
        coloring_sites: tuple[str, ...] | None = None,
        capacity_threshold: int | None = None,
        scatter_collisions: int = 0,
    ) -> None:
        if transient_coloring_failures < 0:
            raise FaultInjectionError(
                "transient_coloring_failures must be >= 0, got "
                f"{transient_coloring_failures}"
            )
        if scatter_collisions < 0:
            raise FaultInjectionError(
                f"scatter_collisions must be >= 0, got "
                f"{scatter_collisions}"
            )
        self.seed = int(seed)
        self.transient_coloring_failures = int(transient_coloring_failures)
        self.coloring_sites = (
            tuple(coloring_sites) if coloring_sites is not None else None
        )
        self.capacity_threshold = capacity_threshold
        self.scatter_collisions = int(scatter_collisions)
        self._remaining = 0
        self._scatter_remaining = 0
        self._scatter_count = 0   # per-activation, drives determinism
        self._corruptions = 0   # per-plan counter -> distinct determinism

    # ------------------------------------------------------------------
    # Activation (transient + capacity faults)
    # ------------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        global _active
        if _active is not None:
            raise FaultInjectionError(
                "a FaultPlan is already active; fault injection does "
                "not nest"
            )
        _active = self
        self._remaining = self.transient_coloring_failures
        self._scatter_remaining = self.scatter_collisions
        self._scatter_count = 0
        _euler._fault_hook = self._hook
        _matching._fault_hook = self._hook
        if self.scatter_collisions:
            _rounds._scatter_fault_hook = self._scatter_hook
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _euler._fault_hook = None
        _matching._fault_hook = None
        _rounds._scatter_fault_hook = None
        _active = None

    def _hook(self, site: str, graph) -> None:
        """Called by the colouring backends before any real work."""
        if (
            self.capacity_threshold is not None
            and graph.degree >= self.capacity_threshold
        ):
            raise SharedMemoryCapacityError(
                f"[injected] colouring degree {graph.degree} >= "
                f"capacity threshold {self.capacity_threshold} "
                "(simulated shared-memory wall)"
            )
        if self._remaining > 0 and (
            self.coloring_sites is None or site in self.coloring_sites
        ):
            self._remaining -= 1
            raise ColoringError(
                f"[injected] transient colouring fault at site "
                f"{site!r} ({self._remaining} more to come)"
            )

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


def active_fault_plan() -> FaultPlan | None:
    """The currently active :class:`FaultPlan`, if any (for tests)."""
    return _active
