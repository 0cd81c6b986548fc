"""The plan-cache tiers: in-memory LRU and on-disk sealed sidecars.

Every key is content-addressed — a
:func:`~repro.planner.fingerprint.plan_fingerprint` or a
:func:`~repro.planner.fingerprint.permutation_digest` — so a hit is
definitionally the right entry: there is no staleness to reason about,
only presence.

The memory tier holds live :class:`CompiledPermutation` handles, keyed
by fingerprint, the :class:`SealedProgram` every served request runs,
keyed by the permutation digest alone, and the :class:`ShardedProgram`
every stream runs, keyed by :func:`shard_fingerprint` of that digest.
It is bounded two ways: by entry count (``capacity``) and by
**resident bytes** (``max_bytes``), so a handful of ``n = 2^26``
entries cannot pin unbounded memory while a crowd of tiny ones still
fills the count bound.

The disk tier holds one artifact per fingerprint: the **sealed
sidecar** ``<fingerprint>.sealed.npz`` of :mod:`repro.core.io` — the
compiled program's proven flat gather, delta-encoded, checksummed and
re-proved on every load.  The program itself is never stored: the
sidecar's scatter map *is* the permutation, so a handle that needs its
program re-plans from it.  A tampered sidecar fails ``load_sealed``
exactly like any corrupted artifact, is *counted and deleted* (treated
as a miss, then overwritten by the fresh re-plan), and is never
served.  The directory itself is bounded by ``max_bytes`` with LRU
eviction; foreign files are ignored, never deleted or accounted.

Every cache event is a counter in the stack's
:class:`~repro.telemetry.MetricsRegistry` (the planner passes its own;
a standalone cache makes a private one), named after its ``stats()``
key: ``memory_hits`` is ``planner_memory_hits_total``,
``sealed_corrupt`` is ``planner_sealed_corrupt_total``.  Resident bytes
are the ``planner_memory_bytes`` / ``planner_disk_bytes`` gauges.
``stats()`` is a view over those instruments.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError
from repro.telemetry import Counter, MetricsRegistry

if TYPE_CHECKING:
    from typing import TypeAlias

    from repro.ir.sealed import SealedProgram
    from repro.planner.compiled import CompiledPermutation
    from repro.shard import ShardedProgram

    #: What the memory tier holds: compiled handles by fingerprint,
    #: sealed programs by permutation digest, shardings by shard
    #: fingerprint.
    _Entry: TypeAlias = CompiledPermutation | SealedProgram | ShardedProgram

#: Disk-cache entries are ``<fingerprint>.sealed.npz`` with a
#: content-addressed SHA-256 hex fingerprint; anything else in the
#: directory is foreign and left alone.
_FINGERPRINT_RE = re.compile(r"\A[0-9a-f]{64}\Z")
_SUFFIX = ".sealed.npz"


def planner_counters(
    metrics: MetricsRegistry, keys: tuple[str, ...]
) -> dict[str, Counter]:
    """One ``planner_<key>_total`` counter handle per ``stats()`` key."""
    return {key: metrics.counter(f"planner_{key}_total") for key in keys}


def _entry_bytes(entry: object) -> int:
    """Resident bytes an entry pins in the memory tier: a compiled
    handle's ``resident_bytes()``, a sealed or sharded program's
    ``nbytes``."""
    sizer = getattr(entry, "resident_bytes", None)
    if callable(sizer):
        return int(sizer())
    return int(getattr(entry, "nbytes", 0))


class LRUPlanCache:
    """Bounded in-memory cache of compiled permutations and sealed
    programs.

    Bounded by entry count (``capacity``) and, optionally, by the
    resident bytes of the held programs and sealed indices
    (``max_bytes``) — whichever bound is exceeded evicts in LRU order,
    though the most recent entry is always admitted (a single handle
    larger than ``max_bytes`` occupies the cache alone rather than
    being refused).

    Thread-safe: lookups, insertions and the byte accounting are
    guarded by one lock, so concurrent server workers never corrupt the
    recency order.  Hits, misses, evictions and invalidations count
    into ``metrics``.
    """

    def __init__(
        self,
        capacity: int = 64,
        max_bytes: int | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValidationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"cache max_bytes must be >= 1, got {max_bytes}"
            )
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._nbytes: dict[str, int] = {}
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counts = planner_counters(self.metrics, (
            "memory_hits", "memory_misses", "memory_evictions",
            "memory_invalidations",
        ))
        self._bytes = self.metrics.gauge("planner_memory_bytes")

    @property
    def bytes(self) -> int:
        """Resident bytes (the ``planner_memory_bytes`` gauge)."""
        return self._bytes.value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> _Entry | None:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._counts["memory_misses"].inc()
            else:
                self._entries.move_to_end(fingerprint)
                self._counts["memory_hits"].inc()
        return entry

    def _over_budget(self) -> bool:
        # Caller holds the lock.
        if len(self._entries) > self.capacity:
            return True
        return (
            self.max_bytes is not None
            and self._bytes.value > self.max_bytes
            and len(self._entries) > 1
        )

    def put(self, fingerprint: str, entry: _Entry) -> None:
        size = _entry_bytes(entry)
        with self._lock:
            self._bytes.inc(size - self._nbytes.get(fingerprint, 0))
            self._entries[fingerprint] = entry
            self._nbytes[fingerprint] = size
            self._entries.move_to_end(fingerprint)
            while self._over_budget():
                victim, _ = self._entries.popitem(last=False)
                self._bytes.inc(-self._nbytes.pop(victim, 0))
                self._counts["memory_evictions"].inc()

    def get_if_present(self, fingerprint: str) -> _Entry | None:
        """Like :meth:`get`, but absence is not counted as a miss —
        the accessor the planner's single-flight recheck uses so a
        cold compile does not book two misses."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self._counts["memory_hits"].inc()
        return entry

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry (e.g. after its disk file was found bad or an
        operator forces a re-plan); returns whether it was resident."""
        with self._lock:
            present = self._entries.pop(fingerprint, None) is not None
            if present:
                self._bytes.inc(-self._nbytes.pop(fingerprint, 0))
                self._counts["memory_invalidations"].inc()
        return present

    def stats(self) -> dict:
        with self._lock:
            out = {key: c.value for key, c in self._counts.items()}
            out.update(
                memory_entries=len(self._entries),
                memory_capacity=self.capacity,
                memory_bytes=self._bytes.value,
                memory_max_bytes=self.max_bytes,
            )
            return out


class DiskPlanCache:
    """On-disk cache of sealed sidecars: one ``<fingerprint>.sealed.npz``
    per entry, bounded by total bytes.

    Entries are :func:`repro.core.io.save_sealed` files, written
    atomically.  Loading reuses :func:`repro.core.io.load_sealed`, so
    every proof (checksum, delta decode, denotation digest,
    mutual-inverse, embedded certificate) guards the cache, and the
    loaded sidecar must also answer the request: its scatter map is
    the requested ``p`` and its engine and width (checksummed payload
    keys) are the requested ones.  An entry that fails any of this is
    invalidated on the spot — deleted, counted
    (``planner_sealed_corrupt_total``), treated as a miss — and the
    caller re-plans and rewrites it.  ``max_bytes`` bounds the summed
    size of the entries with LRU eviction.  Foreign files in the
    directory (including plan files of older builds) are ignored,
    never deleted or accounted.
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"disk cache max_bytes must be >= 1, got {max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._sizes: OrderedDict[str, int] = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counts = planner_counters(self.metrics, (
            "disk_evictions", "sealed_hits", "sealed_misses",
            "sealed_corrupt", "sealed_stores",
        ))
        self._bytes = self.metrics.gauge("planner_disk_bytes")
        self._scan()

    @property
    def bytes(self) -> int:
        """Accounted file bytes (the ``planner_disk_bytes`` gauge)."""
        return self._bytes.value

    def sealed_path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}{_SUFFIX}"

    # -- byte accounting / eviction ------------------------------------

    def _scan(self) -> None:
        """Seed the byte accounting from entries already on disk,
        oldest-modified first (their LRU order as far as a fresh
        process can know it)."""
        found: dict[str, float] = {}
        for path in self.directory.glob(f"*{_SUFFIX}"):
            fp = path.name[: -len(_SUFFIX)]
            if not _FINGERPRINT_RE.match(fp):
                continue
            try:
                found[fp] = path.stat().st_mtime
            except OSError:
                continue
        with self._lock:
            for fp in sorted(found, key=found.__getitem__):
                self._account_locked(fp)

    def _account_locked(self, fingerprint: str) -> None:
        # Caller holds the lock.
        try:
            size = self.sealed_path_for(fingerprint).stat().st_size
        except OSError:
            size = 0
        self._bytes.inc(size - self._sizes.pop(fingerprint, 0))
        if size > 0:
            self._sizes[fingerprint] = size

    def _touch(self, fingerprint: str) -> None:
        with self._lock:
            if fingerprint in self._sizes:
                self._sizes.move_to_end(fingerprint)

    def _account(self, fingerprint: str) -> None:
        """Re-stat one entry and evict LRU entries over ``max_bytes``.

        The just-touched entry is newest in LRU order, so it is only
        evicted when it alone exceeds the bound and nothing older is
        left to shed first.
        """
        victims: list[str] = []
        with self._lock:
            self._account_locked(fingerprint)
            while (
                self.max_bytes is not None
                and self._bytes.value > self.max_bytes
                and len(self._sizes) > 1
            ):
                victim, size = self._sizes.popitem(last=False)
                self._bytes.inc(-size)
                self._counts["disk_evictions"].inc()
                victims.append(victim)
        for victim in victims:
            self.sealed_path_for(victim).unlink(missing_ok=True)

    # -- sealed sidecars -----------------------------------------------

    def load_sealed(
        self, fingerprint: str, p: np.ndarray, engine: str, width: int
    ) -> "SealedProgram | None":
        """The entry for a request of ``p`` on ``engine`` at ``width``,
        re-proved, or ``None``.

        A sidecar that fails any proof on load, or that encodes another
        permutation, engine or width (one copied over another
        fingerprint's name), is deleted and counted corrupt; the caller
        re-plans.  Engines without a warp width seal width 0.
        """
        from repro.core.io import load_sealed
        from repro.errors import PlanIntegrityError

        path = self.sealed_path_for(fingerprint)
        if not path.exists():
            self._counts["sealed_misses"].inc()
            return None
        try:
            sealed: SealedProgram | None = load_sealed(path)
        except PlanIntegrityError:
            sealed = None
        if sealed is None or not (
            sealed.engine == engine
            and sealed.width in (0, width)
            and np.array_equal(sealed.scatter, p)
        ):
            path.unlink(missing_ok=True)
            self._account(fingerprint)
            self._counts["sealed_corrupt"].inc()
            self._counts["sealed_misses"].inc()
            return None
        self._touch(fingerprint)
        self._counts["sealed_hits"].inc()
        return sealed

    def store_sealed(
        self, fingerprint: str, sealed: "SealedProgram"
    ) -> Path:
        """Persist a sealed sidecar under its fingerprint.

        :func:`~repro.core.io.save_sealed` writes atomically, so a
        concurrent reader (or a writer crash) can observe the old entry
        or the new one but never a truncated file that the corruption
        path would have to heal on every later load.
        """
        from repro.core.io import save_sealed

        path = self.sealed_path_for(fingerprint)
        save_sealed(path, sealed)
        self._counts["sealed_stores"].inc()
        self._account(fingerprint)
        return path

    def stats(self) -> dict:
        with self._lock:
            out = {key: c.value for key, c in self._counts.items()}
            out.update(
                disk_bytes=self._bytes.value,
                disk_max_bytes=self.max_bytes,
                disk_entries=len(self._sizes),
                disk_directory=str(self.directory),
            )
            return out
