"""No request path plans or touches the plan cache.

Every engine computes ``b[p[i]] = a[i]``, so the service answers every
request from the registration's own ``p``.  This pins that down: with
the Euler colouring and every registered engine's ``plan`` patched to
raise (any planning, closed-form affine colouring included, would
fail) and every file of the cache directory bit-flipped (any read would
be refused and counted), registration, warming and every kind of
request still answer exactly, nothing is planned, and the directory is
untouched.
"""

import numpy as np

from repro.coloring import euler
from repro.ir.registry import engine_names, get_engine
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.planner import Planner
from repro.resilience import FaultPlan
from repro.service import PermutationServer

_N, _WIDTH = 1024, 32

FAMILIES = {
    "bit-reversal": bit_reversal(_N),
    "transpose": transpose_permutation(_N),
    "random": random_permutation(_N, seed=5),
}

#: Disk-tier counters: any request that read or wrote the cache would
#: move one of them.
_DISK_COUNTERS = ("sealed_hits", "sealed_misses", "sealed_corrupt",
                  "sealed_stores", "disk_evictions")


def _expected(p, a):
    out = np.empty_like(a)
    if a.ndim == 2:
        out[:, p] = a
    else:
        out[p] = a
    return out


def _poisoned_cache(directory):
    """A cache directory holding every family's sealed sidecar under
    the fingerprints the server would use, each bit-flipped."""
    planner = Planner(cache_dir=directory)
    for p in FAMILIES.values():
        planner.compile(p, engine="scheduled", width=_WIDTH)
    faults = FaultPlan(seed=2)
    files = sorted(directory.iterdir())
    assert len(files) == len(FAMILIES)
    for path in files:
        faults.corrupt_plan_file(path, "bit-flip")
    return {path.name: path.read_bytes() for path in files}


def _refuse(*_args, **_kwargs):
    raise AssertionError("a request path planned")


def test_request_paths_never_plan_or_touch_disk(tmp_path, monkeypatch):
    cache = tmp_path / "plans"
    before = _poisoned_cache(cache)
    rng = np.random.default_rng(0)
    server = PermutationServer(width=_WIDTH, cache_dir=cache, workers=2)
    service = server.service
    try:
        with monkeypatch.context() as patched:
            patched.setattr(euler, "_color", _refuse)
            for engine in engine_names():
                patched.setattr(get_engine(engine), "plan", _refuse)
            for name, p in FAMILIES.items():
                server.register(name, p)
            assert server.warm() == len(FAMILIES)
            for name, p in FAMILIES.items():
                a = rng.random(_N).astype(np.float32)
                batch = rng.random((3, _N)).astype(np.float32)
                out = server.submit(name, a).result(timeout=30.0)
                assert np.array_equal(out, _expected(p, a))
                out = server.submit(name, batch,
                                    batch=True).result(timeout=30.0)
                assert np.array_equal(out, _expected(p, batch))
                key = f"default/{name}"
                assert np.array_equal(service.apply(key, a),
                                      _expected(p, a))
                assert np.array_equal(service.apply_batch(key, batch),
                                      _expected(p, batch))
                src = tmp_path / f"{name}.in.npy"
                np.save(src, a)
                for run in ("server", "service"):
                    dst = tmp_path / f"{name}.{run}.npy"
                    if run == "server":
                        server.submit_stream(
                            name, src, dst, d=4, tmp_dir=tmp_path,
                        ).result(timeout=60.0)
                    else:
                        service.apply_stream(key, src, dst, d=4,
                                             tmp_dir=tmp_path)
                    assert np.array_equal(np.load(dst),
                                          _expected(p, a))
        stats = server.stats()
    finally:
        server.close()
    assert stats["cold_plans"] == 0
    for counter in _DISK_COUNTERS:
        assert stats[counter] == 0, counter
    after = {path.name: path.read_bytes() for path in cache.iterdir()}
    assert after == before
