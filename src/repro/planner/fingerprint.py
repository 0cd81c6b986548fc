"""Content-addressed identities for permutations and plans.

Planning is expensive (the König colouring is the whole offline
phase); applying is cheap.  To amortize planning across calls the
planner needs a *name* for "this exact permutation, planned by this
engine at this width" that is stable across processes and machines.
Two SHA-256 digests provide it:

``permutation_digest(p)``
    Identity of the permutation itself: length plus the canonical
    little-endian ``int64`` bytes of the array.  Computed once per
    registration and reused for every compile of it (the service does
    not re-hash).

``plan_fingerprint(digest, engine, width)``
    Identity of a *compiled* plan: the permutation digest scoped by
    engine name and planning width.  Changing any ingredient — or the
    ``plan-v2`` tag, when what a compile produces changes — yields a
    new fingerprint, so stale cache entries are never served, merely
    orphaned.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ValidationError


def permutation_digest(p: np.ndarray) -> str:
    """SHA-256 hex digest of a permutation array (canonical form)."""
    arr = np.ascontiguousarray(np.asarray(p, dtype=np.int64))
    if arr.ndim != 1:
        raise ValidationError(
            f"permutation must be 1-D, got shape {arr.shape}"
        )
    digest = hashlib.sha256()
    digest.update(b"perm-v1")
    digest.update(str(arr.shape[0]).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def plan_fingerprint(digest: str, engine: str, width: int) -> str:
    """SHA-256 hex digest naming one compiled plan.

    ``digest`` is a :func:`permutation_digest`.
    """
    h = hashlib.sha256()
    for part in ("plan-v2", digest, engine, str(int(width))):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def shard_fingerprint(fingerprint: str, d: int) -> str:
    """SHA-256 hex digest naming one ``d``-stripe sharding.

    Scopes a content address — a :func:`plan_fingerprint` (plan-file
    provenance) or a :func:`permutation_digest` (the planner's memory
    tier) — by the shard count, so one map sharded at different ``d``
    gets distinct identities (the stripe boundaries — and hence the
    exchange — differ).
    """
    if d < 1:
        raise ValidationError(f"shard count d must be >= 1, got {d}")
    h = hashlib.sha256()
    for part in ("shard-v1", fingerprint, str(int(d))):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()
