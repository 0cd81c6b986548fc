"""Tests for the L2 cache extension."""

import numpy as np
import pytest

from repro.errors import InvalidMachineError
from repro.machine.cache import L2Cache, cached_global_stages
from repro.machine.cost_model import global_round_stages
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.requests import AccessRound


class TestL2Cache:
    def test_hit_after_insert(self):
        cache = L2Cache(capacity_bytes=1024, line_bytes=128, associativity=2)
        assert cache.touch("a", 0) is False   # cold miss
        assert cache.touch("a", 0) is True    # now resident

    def test_arrays_do_not_alias(self):
        cache = L2Cache()
        cache.touch("a", 7)
        assert cache.touch("b", 7) is False

    def test_lru_eviction(self):
        cache = L2Cache(capacity_bytes=256, line_bytes=128, associativity=2)
        # One set of 2 lines (256/128 = 2 lines / 2-way = 1 set).
        cache.touch("a", 0)
        cache.touch("a", 1)
        cache.touch("a", 2)          # evicts group 0 (LRU)
        assert cache.touch("a", 1) is True
        assert cache.touch("a", 0) is False

    def test_touch_refreshes_lru(self):
        cache = L2Cache(capacity_bytes=256, line_bytes=128, associativity=2)
        cache.touch("a", 0)
        cache.touch("a", 1)
        cache.touch("a", 0)          # refresh 0; now 1 is LRU
        cache.touch("a", 2)          # evicts 1
        assert cache.touch("a", 0) is True
        assert cache.touch("a", 1) is False

    def test_reset(self):
        cache = L2Cache()
        cache.touch("a", 0)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.touch("a", 0) is False

    def test_hit_rate(self):
        cache = L2Cache()
        assert cache.hit_rate == 0.0
        cache.touch("a", 0)
        cache.touch("a", 0)
        assert cache.hit_rate == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_bytes": 0},
            {"line_bytes": 0},
            {"associativity": 0},
            {"hit_stages": 0},
            {"miss_stages": 0},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidMachineError):
            L2Cache(**kwargs)


class TestCachedStages:
    def test_unit_costs_match_base_model(self):
        """With hit == miss == 1 the cache model IS the paper's model."""
        cache = L2Cache(hit_stages=1, miss_stages=1)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 4096, 256).astype(np.int64)
        assert cached_global_stages(addrs, 4, cache, "b") == \
            global_round_stages(addrs, 4)

    def test_misses_cost_more(self):
        cache = L2Cache(miss_stages=4, capacity_bytes=128, line_bytes=128)
        addrs = np.arange(16) * 4   # 16 distinct groups, width 4
        cold = cached_global_stages(addrs, 4, cache, "b")
        assert cold == 16 * 4       # all misses

    def test_resident_working_set_is_cheap(self):
        cache = L2Cache(miss_stages=4, capacity_bytes=64 * 128)
        addrs = np.arange(16) * 4
        cached_global_stages(addrs, 4, cache, "b")       # warm up
        warm = cached_global_stages(addrs, 4, cache, "b")
        assert warm == 16                                 # all hits

    def test_hmm_integration(self):
        """The crossover mechanism: small working set -> casual writes
        almost as cheap as the base model; huge working set -> 4x."""
        params = MachineParams(width=4, latency=5, num_dmms=1,
                               shared_capacity=None)
        small = HMM(params, L2Cache(capacity_bytes=1 << 20, miss_stages=4))
        addrs = np.arange(64) * 4
        rnd = AccessRound("global", "write", addrs, "b")
        first = small.run_round(rnd)
        second = small.run_round(rnd)
        assert first.stages == 64 * 4
        assert second.stages == 64      # resident now

    def test_reset_via_hmm(self):
        params = MachineParams(width=4, latency=5, shared_capacity=None)
        hmm = HMM(params, L2Cache())
        rnd = AccessRound("global", "read", np.arange(8), "a")
        hmm.run_round(rnd)
        assert hmm.l2_cache is not None and hmm.l2_cache.misses > 0
        hmm.reset_cache()
        assert hmm.l2_cache.misses == 0


_PRICE_SCRIPT = """
from repro.core.scheduled import ScheduledPermutation
from repro.machine.cache import L2Cache
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.permutations.named import random_permutation

params = MachineParams(width=32, latency=100, num_dmms=8,
                       shared_capacity=None)
plan = ScheduledPermutation.plan(random_permutation(96 * 96, seed=11),
                                 width=32)
cache = L2Cache(capacity_bytes=64 * 1024, miss_stages=4)
print(plan.simulate(HMM(params, cache)).time)
"""


def test_l2_pricing_independent_of_hash_seed():
    """The set index must not depend on Python's per-process string
    hash salt: the same program prices identically under any
    ``PYTHONHASHSEED``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    times = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", _PRICE_SCRIPT], env=env,
            capture_output=True, text=True, check=True,
        )
        times.append(int(out.stdout.strip()))
    assert times[0] == times[1]
