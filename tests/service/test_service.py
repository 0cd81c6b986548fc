"""PermutationService tests: registration, warming, serving from the
registered permutation, stats."""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ir.registry import engine_names
from repro.service import PermutationService, _default_engine
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
)

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestDefaultEngine:
    def test_width_aligned_square_is_scheduled(self):
        assert _default_engine(1024, 32) == "scheduled"
        assert _default_engine(64, 4) == "scheduled"

    def test_everything_else_is_padded(self):
        assert _default_engine(1000, 32) == "padded"    # not square
        assert _default_engine(36, 32) == "padded"      # 6 % 32 != 0
        assert _default_engine(0, 32) == "padded"


class TestRegistration:
    def test_register_returns_fingerprint(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        fp = svc.register("bitrev", bit_reversal(_N))
        assert len(fp) == 64
        assert svc.names() == ["bitrev"]

    def test_fingerprint_matches_planner(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        fp = svc.register("bitrev", p)
        assert fp == svc.planner.fingerprint(
            p, engine="scheduled", width=_WIDTH
        )

    def test_caller_mutating_p_after_register_changes_nothing(self):
        """The service keeps a private copy: swapping two entries of the
        caller's array afterwards must not change what the digest
        answers."""
        svc = PermutationService(width=_WIDTH)
        p = random_permutation(_N, seed=11)
        original = p.copy()
        svc.register("r", p)
        p[0], p[1] = p[1], p[0]
        a = np.arange(_N, dtype=np.float64)
        np.testing.assert_array_equal(svc.apply("r", a),
                                      _expected(original, a))
        assert p.flags.writeable

    def test_invalid_permutation_rejected(self):
        svc = PermutationService()
        with pytest.raises(ValidationError):
            svc.register("bad", np.array([0, 0, 1]))

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            PermutationService().register("", bit_reversal(64))

    def test_unknown_name_lists_registered(self):
        """A hit returns before the registered names are listed; a
        miss, before or after hits, still lists them all, sorted, or
        ``<none>``."""
        svc = PermutationService()
        a = np.arange(64.0)
        with pytest.raises(ValidationError, match="registered: <none>$"):
            svc.apply("nope", a)
        for name in ("b", "a", "c"):
            svc.register(name, bit_reversal(64), engine="padded")
        assert np.array_equal(svc.apply("a", a),
                              _expected(bit_reversal(64), a))
        with pytest.raises(ValidationError,
                           match=r"'nope'; registered: a, b, c$"):
            svc.apply("nope", a)
        svc.unregister("b")
        with pytest.raises(ValidationError, match="registered: a, c$"):
            svc.compiled("b")
        svc.unregister("a")
        svc.unregister("c")
        with pytest.raises(ValidationError, match="registered: <none>$"):
            svc.apply("a", a)

    def test_engine_auto_choice(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("square", bit_reversal(_N))
        svc.register("odd", random_permutation(1000, seed=0))
        assert svc._registry["square"].engine == "scheduled"
        assert svc._registry["odd"].engine == "padded"

    def test_same_registration_is_idempotent(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        fp = svc.register("perm", p)
        assert svc.register("perm", p) == fp      # no error, no count
        assert svc.stats()["reregistrations"] == 0

    def test_different_permutation_requires_overwrite(self):
        svc = PermutationService(width=_WIDTH)
        svc.register("perm", bit_reversal(_N))
        other = random_permutation(_N, seed=1)
        with pytest.raises(ValidationError, match="overwrite=True"):
            svc.register("perm", other)
        svc.register("perm", other, overwrite=True)
        assert svc.stats()["reregistrations"] == 1
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("perm", a),
                              _expected(other, a))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            PermutationService().register(
                "p", bit_reversal(64), engine="no-such-engine"
            )

    def test_engine_change_requires_overwrite(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        svc.register("perm", p, engine="scheduled")
        with pytest.raises(ValidationError, match="overwrite=True"):
            svc.register("perm", p, engine="padded")
        svc.register("perm", p, engine="padded", overwrite=True)
        assert svc._registry["perm"].engine == "padded"

    def test_unregister(self):
        svc = PermutationService(width=_WIDTH)
        svc.register("perm", bit_reversal(_N))
        assert svc.unregister("perm")
        assert not svc.unregister("perm")
        assert svc.names() == []


class TestServing:
    def test_apply_and_batch_correct(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("bitrev", a), _expected(p, a))
        batch = np.stack([a, a + 1, a + 2])
        out = svc.apply_batch("bitrev", batch)
        assert np.array_equal(out[1], _expected(p, a + 1))

    def test_warm_then_serve_never_replans(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("bitrev", bit_reversal(_N))
        svc.register("rand", random_permutation(_N, seed=1))
        assert svc.warm() == 2
        plans_after_warm = svc.planner.stats()["cold_plans"]
        a = np.arange(_N, dtype=np.float32)
        for _ in range(5):
            svc.apply("bitrev", a)
            svc.apply("rand", a)
        assert svc.planner.stats()["cold_plans"] == plans_after_warm

    def test_warm_subset(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("a", bit_reversal(_N))
        svc.register("b", random_permutation(_N, seed=2))
        assert svc.warm(["a"]) == 1
        stats = svc.planner.stats()
        assert stats["memory_entries"] == 1     # a's sealed gather
        assert stats["cold_plans"] == 0

    def test_stats_and_describe(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        a = np.arange(_N, dtype=np.float32)
        svc.apply("bitrev", a)
        svc.apply_batch("bitrev", np.stack([a, a]))
        stats = svc.stats()
        assert stats["registered"] == 1
        assert stats["requests"] == 3
        assert stats["elements_served"] == 3 * _N
        assert stats["cold_plans"] == 0
        text = svc.describe()
        assert "bitrev" in text and "scheduled" in text

    def test_describe_reads_one_snapshot(self):
        svc = PermutationService(width=_WIDTH)
        svc.register("keep", bit_reversal(64), engine="padded")
        svc.register("gone", random_permutation(64, seed=0),
                     engine="padded")
        names = svc.names

        def names_then_unregister():
            listed = names()
            svc.unregister("gone")     # a concurrent unregister
            return listed

        svc.names = names_then_unregister
        assert "keep" in svc.describe()

    def test_same_permutation_shares_one_sealed_entry(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        svc.register("a", p, engine="scheduled")
        svc.register("b", p, engine="d-designated")
        assert svc.warm() == 2
        assert svc.planner.stats()["memory_entries"] == 1
        first = svc.planner.sealed(p, svc._registry["a"].digest)
        assert svc.planner.sealed(p, svc._registry["b"].digest) is first
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("a", a), _expected(p, a))
        assert np.array_equal(svc.apply("b", a), _expected(p, a))

    def test_cache_max_bytes_evicts_sealed_entries(self):
        entry = 2 * 8 * _N              # int64 scatter + gather
        svc = PermutationService(width=_WIDTH,
                                 cache_max_bytes=3 * entry)
        perms = {f"r{seed}": random_permutation(_N, seed=seed)
                 for seed in range(5)}
        for name, p in perms.items():
            svc.register(name, p)
        svc.warm()
        stats = svc.planner.stats()
        assert stats["memory_entries"] == 3
        assert stats["memory_bytes"] == 3 * entry
        assert stats["memory_evictions"] == 2
        # An evicted entry is rebuilt from p on demand.
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("r0", a),
                              _expected(perms["r0"], a))
        assert svc.planner.stats()["cold_plans"] == 0

    def test_concurrent_applies_count_exactly(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        svc.warm()
        a = np.arange(_N, dtype=np.float32)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    out = svc.apply("bitrev", a)
                    assert np.array_equal(out, _expected(p, a))
            except Exception as exc:   # pragma: no cover - failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Locked counters: no lost increments under contention.
        assert svc.stats()["requests"] == 8 * 50
        assert svc.stats()["elements_served"] == 8 * 50 * _N

    def test_concurrent_registration_races_are_safe(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        outcomes = []

        def racer():
            outcomes.append(svc.register("perm", p))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(outcomes)) == 1          # all the same fp
        assert svc.stats()["reregistrations"] == 0

    def test_shared_disk_cache_across_services(self, tmp_path):
        p = bit_reversal(_N)
        first = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        first.register("bitrev", p)
        first.compiled("bitrev")
        second = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        second.register("bitrev", p)
        second.compiled("bitrev")
        assert second.stats()["sealed_hits"] == 1
        assert second.stats()["cold_plans"] == 0


#: Engines whose round count Table I gives, independent of ``p``.
_PRICED = {"scheduled": 32, "padded": 32, "d-designated": 3,
           "s-designated": 3}


@pytest.mark.parametrize("engine", engine_names())
def test_round_count_matches_compiled_prediction(engine):
    svc = PermutationService(width=_WIDTH)
    svc.register("p", random_permutation(_N, seed=3), engine=engine)
    rounds = svc._registry["p"].rounds
    assert rounds == _PRICED.get(engine)
    if rounds is not None:
        assert svc.compiled("p").predicted_rounds() == rounds


def test_padded_round_count_at_unaligned_size():
    svc = PermutationService(width=_WIDTH)
    svc.register("odd", random_permutation(1000, seed=4))
    assert svc._registry["odd"].engine == "padded"
    assert svc.compiled("odd").predicted_rounds() == \
        svc._registry["odd"].rounds == 32
