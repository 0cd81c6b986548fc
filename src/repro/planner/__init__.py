"""Compile-once / apply-many: fingerprints, plan caches, the Planner.

The paper's central asymmetry — an expensive offline König-colouring
*plan* phase versus a cheap three-step *apply* phase — only pays off
when one plan serves many applications.  This package is the
amortization layer:

* :func:`permutation_digest` / :func:`plan_fingerprint` — stable
  content-addressed identities (see :mod:`repro.planner.fingerprint`).
* :class:`LRUPlanCache` / :class:`DiskPlanCache` — the two cache
  tiers; the disk tier stores one sealed sidecar per fingerprint,
  re-proved on every load.
* :class:`Planner` — ``compile(p)`` walks memory → sealed sidecar →
  cold plan and returns a :class:`CompiledPermutation` whose ``apply`` /
  ``apply_batch`` never re-plan; ``sealed(p, digest)`` is the serving
  path, one gather built from ``p`` itself and never planned.

Typical use::

    from repro.planner import Planner

    planner = Planner(cache_dir="~/.cache/repro-plans")
    compiled = planner.compile(p, engine="scheduled", width=32)
    for payload in stream:
        out = compiled.apply(payload)      # no planning, ever
"""

from __future__ import annotations

from repro.planner.cache import DiskPlanCache, LRUPlanCache
from repro.planner.compiled import CompiledPermutation, Planner
from repro.planner.fingerprint import (
    permutation_digest,
    plan_fingerprint,
    shard_fingerprint,
)

__all__ = [
    "CompiledPermutation",
    "DiskPlanCache",
    "LRUPlanCache",
    "Planner",
    "permutation_digest",
    "plan_fingerprint",
    "shard_fingerprint",
]
