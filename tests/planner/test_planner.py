"""Planner and cache-tier tests: LRU behaviour, disk persistence,
corruption handling, and the CompiledPermutation contract."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.planner import (
    CompiledPermutation,
    DiskPlanCache,
    LRUPlanCache,
    Planner,
)
from repro.permutations.named import bit_reversal, random_permutation
from repro.resilience import FaultPlan

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestLRUPlanCache:
    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            LRUPlanCache(0)

    def test_hit_miss_counting(self):
        cache = LRUPlanCache(2)
        assert cache.get("a") is None
        cache.put("a", object())
        assert cache.get("a") is not None
        assert cache.stats()["memory_hits"] == 1
        assert cache.stats()["memory_misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUPlanCache(2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"   # refresh a; b is now oldest
        cache.put("c", "C")
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["memory_evictions"] == 1


class TestPlanner:
    def test_cold_then_memory_hit(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        cold = planner.compile(p, width=_WIDTH)
        warm = planner.compile(p, width=_WIDTH)
        assert warm is cold
        stats = planner.stats()
        assert stats["cold_plans"] == 1
        assert stats["memory_hits"] == 1
        assert stats["sealed_stores"] == 1

    def test_caller_mutating_p_does_not_change_answers(self):
        # The handle answers through the gather proved at compile time,
        # so editing the caller's array afterwards cannot re-point it.
        p = random_permutation(_N, seed=3)
        original = p.copy()
        compiled = Planner().compile(p, width=_WIDTH)
        p[0], p[1] = p[1], p[0]
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(original, a))
        batch = np.stack([a, a[::-1]])
        assert np.array_equal(compiled.apply_batch(batch),
                              np.stack([_expected(original, a),
                                        _expected(original, a[::-1])]))
        assert not compiled.p.flags.writeable

    def test_sealed_hit_across_planners(self, tmp_path):
        p = bit_reversal(_N)
        Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        stats = fresh.stats()
        assert stats["sealed_hits"] == 1
        assert stats["cold_plans"] == 0
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The sealed sidecar answered; the program was never planned.
        assert not compiled.is_loaded

    def test_sealed_handle_replans_program_from_scatter(self, tmp_path):
        p = bit_reversal(_N)
        cold = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        assert compiled.program.num_rounds == cold.program.num_rounds
        assert np.array_equal(compiled.engine.p, p)
        stats = fresh.stats()
        assert stats["sealed_hits"] == 1
        assert stats["cold_plans"] == 1
        # The re-plan is certified like any disk-backed cold plan.
        assert compiled.engine.certificate.ok
        # Re-planning writes nothing: the sidecar is the only file.
        assert [f.name for f in tmp_path.iterdir()] == [
            f"{compiled.fingerprint}.sealed.npz"
        ]

    def test_dropped_sidecar_planner_freed_without_gc(self, tmp_path):
        # A sidecar handle's loader must not reach back to its planner:
        # planner -> memory tier -> handle -> loader -> planner was a
        # cycle that kept the sealed maps resident until a gc pass.
        p = bit_reversal(_N)
        Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        gc.collect()
        gc.disable()
        try:
            planner = Planner(cache_dir=tmp_path)
            compiled = planner.compile(p, width=_WIDTH)
            assert planner.stats()["sealed_hits"] == 1
            refs = (weakref.ref(planner), weakref.ref(compiled),
                    weakref.ref(compiled.sealed))
            del planner, compiled
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_memory_only_planner(self):
        planner = Planner()
        p = bit_reversal(_N)
        planner.compile(p, width=_WIDTH)
        assert planner.compile(p, width=_WIDTH) is not None
        assert "sealed_hits" not in planner.stats()

    def test_corrupt_entry_replanned_and_overwritten(self, tmp_path):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        cold = first.compile(p, width=_WIDTH)
        path = first.disk.sealed_path_for(cold.fingerprint)
        FaultPlan(seed=0).corrupt_plan_file(path, "bit-flip")
        tampered = Planner(cache_dir=tmp_path)
        compiled = tampered.compile(p, width=_WIDTH)
        stats = tampered.stats()
        assert stats["sealed_corrupt"] == 1
        assert stats["cold_plans"] == 1
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The fresh re-plan overwrote the tampered entry in place, so
        # the next planner takes the sealed tier.
        healed = Planner(cache_dir=tmp_path)
        healed.compile(p, width=_WIDTH)
        assert healed.stats()["sealed_hits"] == 1

    def test_stripped_rechecksummed_sidecar_replanned(self, tmp_path):
        # A payload key deleted and the checksum recomputed: the load
        # fails as corruption (not a raw KeyError), so the disk tier
        # deletes the sidecar, counts it and re-plans.
        from repro.core.io import SEALED_METADATA_KEYS, plan_checksum

        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        cold = first.compile(p, width=_WIDTH)
        path = first.disk.sealed_path_for(cold.fingerprint)
        with np.load(path) as data:
            arrays = {
                k: np.asarray(data[k]) for k in data.files
                if k != "denotation_sha"
            }
        arrays["checksum"] = np.str_(plan_checksum({
            k: v for k, v in arrays.items()
            if k not in SEALED_METADATA_KEYS
        }))
        np.savez_compressed(path, **arrays)
        tampered = Planner(cache_dir=tmp_path)
        compiled = tampered.compile(p, width=_WIDTH)
        stats = tampered.stats()
        assert stats["sealed_corrupt"] == 1
        assert stats["cold_plans"] == 1
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        healed = Planner(cache_dir=tmp_path)
        healed.compile(p, width=_WIDTH)
        assert healed.stats()["sealed_hits"] == 1

    @pytest.mark.parametrize("source", [
        (random_permutation(_N, seed=3), "scheduled"),   # another p
        (bit_reversal(_N), "padded"),                    # another engine
    ])
    def test_sidecar_under_foreign_fingerprint_refused(self, tmp_path,
                                                       source):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        other = first.compile(source[0], engine=source[1],
                              width=_WIDTH).fingerprint
        fp = first.fingerprint(p, width=_WIDTH)
        # The other entry's (intact, fully proven) sidecar copied over
        # p's name.
        first.disk.sealed_path_for(fp).write_bytes(
            first.disk.sealed_path_for(other).read_bytes()
        )
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        assert compiled.sealed.engine == "scheduled"
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        stats = fresh.stats()
        assert stats["sealed_corrupt"] == 1
        assert stats["sealed_hits"] == 0
        assert stats["cold_plans"] == 1
        # The re-plan rewrote p's entry with p's own sidecar.
        healed = Planner(cache_dir=tmp_path)
        assert np.array_equal(healed.compile(p, width=_WIDTH).p, p)
        assert healed.stats()["sealed_hits"] == 1

    def test_failed_sidecar_write_does_not_fail_compile(
        self, tmp_path, monkeypatch
    ):
        import repro.core.io

        def refuse(path, sealed):
            raise OSError("disk full")

        monkeypatch.setattr(repro.core.io, "save_sealed", refuse)
        p = bit_reversal(_N)
        planner = Planner(cache_dir=tmp_path)
        compiled = planner.compile(p, width=_WIDTH)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        stats = planner.stats()
        assert stats["sealed_stores"] == 0
        assert stats["disk_entries"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_conflicted_cold_plan_refused_unwritten(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        import repro.staticcheck.certifier as certifier
        from repro.errors import CertificateError

        real = certifier.certify_plan
        clash = certifier.Counterexample(
            kernel="step1", round_index=0, space="shared", kind="read",
            array="a", warp=0, lanes=(0, 1), addresses=(0, 32),
            block=0, bank=0,
        )

        def conflicted(plan):
            return dataclasses.replace(real(plan), counterexample=clash)

        monkeypatch.setattr(certifier, "certify_plan", conflicted)
        p = bit_reversal(_N)
        with pytest.raises(CertificateError, match="not conflict-free"):
            Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        assert list(tmp_path.iterdir()) == []
        # A memory-only planner certifies too, and caches nothing.
        memory = Planner()
        with pytest.raises(CertificateError, match="not conflict-free"):
            memory.compile(p, width=_WIDTH)
        assert memory.stats()["memory_entries"] == 0

    def test_lru_eviction_bounds_memory(self):
        planner = Planner(cache_size=2)
        for seed in range(3):
            planner.compile(random_permutation(64, seed=seed), width=4)
        stats = planner.stats()
        assert stats["memory_entries"] == 2
        assert stats["memory_evictions"] == 1

    def test_engine_hops_get_distinct_fingerprints(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        sched = planner.compile(p, engine="scheduled", width=_WIDTH)
        padded = planner.compile(p, engine="padded", width=_WIDTH)
        assert sched.fingerprint != padded.fingerprint

    def test_telemetry_counters_emitted(self, tmp_path):
        p = bit_reversal(_N)
        planner = Planner(cache_dir=tmp_path)
        planner.compile(p, width=_WIDTH)
        planner.compile(p, width=_WIDTH)
        stats = planner.stats()
        assert stats["cold_plans"] == 1
        assert stats["memory_hits"] == 1
        assert stats["sealed_stores"] == 1
        # The same counts are the registry's series.
        text = planner.metrics.prometheus_text()
        assert "repro_planner_cold_plans_total 1" in text
        assert "repro_planner_memory_hits_total 1" in text
        assert "repro_planner_sealed_stores_total 1" in text
        assert "planner_disk_hits_total" not in text
        assert 'tier="disk"' not in text


    @staticmethod
    def _phase_counts(planner):
        rows = planner.metrics.snapshot().get("planner_cold_phase_seconds",
                                              [])
        return {r["labels"]["phase"]: r["count"] for r in rows}

    def test_cold_phases_observed_once(self, tmp_path):
        p = bit_reversal(_N)
        planner = Planner(cache_dir=tmp_path)
        planner.compile(p, width=_WIDTH)
        phases = ("plan", "certify", "denote", "seal", "store")
        assert self._phase_counts(planner) == dict.fromkeys(phases, 1)
        planner.compile(p, width=_WIDTH)            # memory hit
        assert self._phase_counts(planner) == dict.fromkeys(phases, 1)
        assert "repro_planner_cold_phase_seconds_count" in (
            planner.metrics.prometheus_text()
        )
        fresh = Planner(cache_dir=tmp_path)
        fresh.compile(p, width=_WIDTH)              # sidecar hit
        assert fresh.stats()["sealed_hits"] == 1
        assert self._phase_counts(fresh) == {}

    def test_memory_only_cold_phases(self):
        planner = Planner()
        planner.compile(bit_reversal(_N), width=_WIDTH)
        assert self._phase_counts(planner) == dict.fromkeys(
            ("plan", "certify", "denote", "seal"), 1
        )


class TestCompiledPermutation:
    def test_handle_contract(self, tmp_path):
        p = bit_reversal(_N)
        compiled = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        assert isinstance(compiled, CompiledPermutation)
        assert compiled.n == _N
        assert compiled.engine_name == "scheduled"
        assert np.array_equal(compiled.p, p)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        batch = np.stack([a, a + 1])
        out = compiled.apply_batch(batch)
        assert np.array_equal(out[0], _expected(p, a))
        assert compiled.simulate().time >= 0
        assert compiled.fingerprint[:4] in compiled.describe()

    def test_lower_returns_the_lowered_program(self, tmp_path):
        p = bit_reversal(_N)
        compiled = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        program = compiled.lower()
        assert [op.kind for op in program.ops] == [
            op.kind for op in compiled.engine.lower().ops
        ]
        assert compiled.predicted_rounds() == program.num_rounds == 32


class TestDiskPlanCache:
    def test_miss_on_absent(self, tmp_path):
        cache = DiskPlanCache(tmp_path)
        p = bit_reversal(_N)
        assert cache.load_sealed("0" * 64, p, "scheduled", _WIDTH) is None
        assert cache.stats()["sealed_misses"] == 1

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a plan")
        cache = DiskPlanCache(tmp_path)
        p = bit_reversal(_N)
        assert cache.load_sealed("0" * 64, p, "scheduled", _WIDTH) is None
        assert (tmp_path / "notes.txt").exists()

    def test_store_is_atomic_no_temp_residue(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        compiled = planner.compile(bit_reversal(_N), engine="scheduled",
                                   width=_WIDTH)
        # One file per entry: the sealed sidecar, and no temp file.
        files = [f.name for f in tmp_path.iterdir()]
        assert files == [f"{compiled.fingerprint}.sealed.npz"]

    def test_concurrent_stores_never_leave_torn_files(self, tmp_path):
        import threading

        cache = DiskPlanCache(tmp_path)
        p = bit_reversal(_N)
        compiled = Planner().compile(p, engine="scheduled",
                                     width=_WIDTH)
        fp = compiled.fingerprint

        def writer():
            for _ in range(5):
                cache.store_sealed(fp, compiled.sealed)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every interleaving leaves one complete, loadable entry.
        assert cache.load_sealed(fp, p, "scheduled", _WIDTH) is not None
        assert cache.stats()["sealed_corrupt"] == 0
        leftovers = [f for f in tmp_path.iterdir()
                     if f.name.startswith(".")]
        assert leftovers == []


class TestLRUInvalidate:
    def test_invalidate_drops_entry_and_counts(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        compiled = planner.compile(p, engine="scheduled",
                                   width=_WIDTH)
        assert planner.memory.invalidate(compiled.fingerprint)
        assert not planner.memory.invalidate(compiled.fingerprint)
        assert planner.stats()["memory_invalidations"] == 1
        # The next compile resolves from disk (sealed sidecar first),
        # not a stale handle.
        again = planner.compile(p, engine="scheduled", width=_WIDTH)
        assert again.fingerprint == compiled.fingerprint
        assert planner.stats()["sealed_hits"] == 1

    def test_get_if_present_never_counts_miss(self):
        cache = LRUPlanCache(4)
        before = cache.stats()["memory_misses"]
        assert cache.get_if_present("0" * 64) is None
        assert cache.stats()["memory_misses"] == before


def _swap_after_lowering(monkeypatch, engine_cls):
    """Make ``engine_cls.lower()`` append a two-element swap: a lowering
    that no longer denotes the planned permutation."""
    from repro.ir.ops import CasualWrite

    real = engine_cls.lower

    def mutant(self):
        program = real(self)
        q = np.arange(program.n, dtype=np.int64)
        q[0], q[1] = q[1], q[0]
        return dataclasses.replace(
            program,
            ops=(*program.ops, CasualWrite(label="swap", p=q)),
        )

    monkeypatch.setattr(engine_cls, "lower", mutant)


class TestLoweringMutantRefused:
    """A lowering that does not denote ``p`` is refused at compile: no
    handle, no memory entry, no file.  (The engine has no 32-round
    schedule, so the denotation, not the certifier, refuses it.)"""

    @pytest.mark.parametrize("disk", [False, True])
    def test_refused_and_nothing_written(self, tmp_path, monkeypatch,
                                         disk):
        from repro.errors import SemanticValidationError
        from repro.ir.registry import get_engine

        _swap_after_lowering(monkeypatch, get_engine("d-designated"))
        p = random_permutation(_N, seed=9)
        planner = Planner(cache_dir=tmp_path if disk else None)
        with pytest.raises(SemanticValidationError) as info:
            planner.compile(p, engine="d-designated", width=_WIDTH)
        cert = info.value.certificate
        assert cert is not None and not cert.ok
        assert cert.matches_requested is False
        assert cert.counterexample is not None
        assert len(planner.memory) == 0
        assert list(tmp_path.iterdir()) == []
        assert planner.stats()["sealed_plans"] == 0

    def test_healthy_compile_is_cached_and_certified(self, tmp_path):
        p = random_permutation(_N, seed=9)
        planner = Planner(cache_dir=tmp_path)
        compiled = planner.compile(p, engine="scheduled",
                                   width=_WIDTH)
        assert compiled.fingerprint in planner.memory
        cert = compiled.semantic_certificate
        assert cert is not None and cert.ok
        assert cert.matches_requested is True
        assert cert.pipeline is None
        assert "semantics certified" in compiled.describe()


def _count_denotations(monkeypatch):
    """Count every ``denote_program`` call, through each module that
    holds a reference to it."""
    import repro.passes.seal
    import repro.staticcheck.semantics as semantics

    calls = []
    original = semantics.denote_program

    def counting(program):
        calls.append(program)
        return original(program)

    monkeypatch.setattr(semantics, "denote_program", counting)
    monkeypatch.setattr(repro.passes.seal, "denote_program", counting)
    return calls


class TestOneDenotationPerProgram:
    """A cold compile denotes its lowered program exactly once, and
    that denotation is the certificate ``save_plan`` would issue."""

    @pytest.mark.parametrize("disk", [False, True])
    def test_cold_compile_denotes_once(self, tmp_path, monkeypatch, disk):
        from repro.staticcheck.semantics import validate_translation

        p = random_permutation(_N, seed=9)
        calls = _count_denotations(monkeypatch)
        planner = Planner(cache_dir=tmp_path if disk else None)
        compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
        assert planner.stats()["cold_plans"] == 1
        assert len(list(tmp_path.iterdir())) == (1 if disk else 0)
        (raw,) = calls
        assert compiled.lower() is raw
        cert = compiled.semantic_certificate
        assert cert.ok and cert.matches_requested is True
        # A memory hit denotes nothing.
        planner.compile(p, engine="scheduled", width=_WIDTH)
        assert len(calls) == 1
        assert cert.to_json() == validate_translation(
            raw, raw, requested=p
        ).to_json()


def _count_digests(monkeypatch):
    """Count every ``denotation_digest`` call, through each module that
    holds a reference to it (``core.io`` imports it at call time)."""
    import repro.passes.seal
    import repro.staticcheck.semantics as semantics

    calls = []
    original = semantics.denotation_digest

    def counting(index_map):
        calls.append(index_map)
        return original(index_map)

    monkeypatch.setattr(semantics, "denotation_digest", counting)
    monkeypatch.setattr(repro.passes.seal, "denotation_digest", counting)
    return calls


class TestOneDigestPerMap:
    """A cold compile hashes its n-element map once: the proof's
    digest serves the seal and the sidecar too."""

    @pytest.mark.parametrize("disk", [False, True])
    def test_cold_compile_hashes_the_map_once(
        self, tmp_path, monkeypatch, disk
    ):
        from repro.staticcheck.semantics import denotation_digest

        p = random_permutation(_N, seed=9)
        calls = _count_digests(monkeypatch)
        planner = Planner(cache_dir=tmp_path if disk else None)
        compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
        assert len(calls) == 1
        cert = compiled.semantic_certificate
        digest = denotation_digest(p)
        assert cert.denotation_sha == cert.requested_sha == digest
        assert compiled.sealed.meta["denotation_sha"] == digest
        if disk:
            # The sidecar carries the proof's digest, and the loader's
            # own re-hash accepts it.
            fresh = Planner(cache_dir=tmp_path)
            hit = fresh.compile(p, engine="scheduled", width=_WIDTH)
            assert fresh.stats()["sealed_hits"] == 1
            assert np.array_equal(hit.p, p)
