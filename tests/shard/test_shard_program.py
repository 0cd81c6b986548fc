"""Tests for the row-stripe sharding layer (:mod:`repro.shard`).

The acceptance bar: the three-phase factorization is *proven*
semantics-preserving (via :mod:`repro.staticcheck.semantics`) for
every registered engine on several permutation families, and a
tampered exchange is *refused* with a concrete counterexample.
"""

import numpy as np
import pytest

from repro.errors import ShardingError, ShardRefutedError
from repro.ir.registry import engine_names, get_engine
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.shard import ExchangeSegment, ShardedProgram, shard_program
from repro.staticcheck.semantics import denote_program

WIDTH = 32
N = 1024
FAMILIES = {
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
    "random": lambda n: random_permutation(n, seed=7),
}


def _program(engine: str, p: np.ndarray):
    return get_engine(engine).plan(p, width=WIDTH).lower()


class TestProvenAcrossEnginesAndFamilies:
    @pytest.mark.parametrize("engine", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sharding_proven_for_engine_and_family(self, engine, family):
        p = FAMILIES[family](N)
        program = _program(engine, p)
        sharded = shard_program(program, 4)
        assert isinstance(sharded, ShardedProgram)
        assert sharded.proven
        assert sharded.certificate is not None
        assert sharded.certificate.ok
        assert sharded.d == 4 and sharded.n == program.n

    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_composition_equals_destination_map(self, d):
        p = bit_reversal(N)
        program = _program("d-designated", p)
        sharded = shard_program(program, d)
        # post ∘ exchange ∘ pre == p, as scatter maps.
        composed = sharded.post[sharded.exchange[sharded.pre]]
        assert np.array_equal(
            composed, denote_program(program).index_map
        )

    def test_pre_and_post_are_stripe_local(self):
        p = random_permutation(N, seed=3)
        sharded = shard_program(_program("s-designated", p), 8)
        s = sharded.stripe
        for phase in (sharded.pre, sharded.post):
            assert np.array_equal(
                np.arange(N) // s, phase // s
            ), "phase moved an element across its stripe"

    def test_exchange_segments_are_contiguous_blocks(self):
        p = random_permutation(N, seed=9)
        sharded = shard_program(_program("d-designated", p), 4)
        covered = np.zeros(N, dtype=bool)
        for seg in sharded.segments:
            assert isinstance(seg, ExchangeSegment)
            assert seg.length > 0
            src = np.arange(seg.src_start, seg.src_start + seg.length)
            dst = np.arange(seg.dst_start, seg.dst_start + seg.length)
            assert np.array_equal(sharded.exchange[src], dst)
            covered[src] = True
        assert covered.all()
        crossing = sum(
            seg.length for seg in sharded.segments if seg.crosses
        )
        assert crossing == sharded.exchange_elements


class TestRefusal:
    def test_broken_shuffle_refused_with_counterexample(self):
        p = bit_reversal(N)
        sharded = shard_program(_program("d-designated", p), 4)
        broken_exchange = sharded.exchange.copy()
        broken_exchange[[0, 1]] = broken_exchange[[1, 0]]
        broken = sharded.with_exchange(broken_exchange)
        assert broken.certificate is None and not broken.proven
        cert = broken.verify()
        assert not cert.ok
        assert cert.counterexample is not None
        assert cert.counterexample.stage == "optimized-vs-raw"
        # The refusal error carries the refuting certificate for
        # callers that escalate (planner, report self-check).
        err = ShardRefutedError("refused", certificate=cert)
        assert err.certificate is cert

    def test_invalid_d_rejected(self, monkeypatch):
        program = _program("d-designated", bit_reversal(N))
        with pytest.raises(ShardingError):
            shard_program(program, 0)

        def no_denotation(_program):
            raise AssertionError("an indivisible d must not be denoted")

        # 3 does not divide n: refused before the O(n) denotation.
        monkeypatch.setattr("repro.shard.program.denote_program",
                            no_denotation)
        with pytest.raises(ShardingError, match="divide"):
            shard_program(program, 3)

    def test_odd_n_indivisible(self):
        p = random_permutation(30, seed=1)
        program = get_engine("cpu-naive").plan(p, width=WIDTH).lower()
        with pytest.raises(ShardingError):
            shard_program(program, 4)
        assert shard_program(program, 2).proven


class TestShardedProgramApi:
    def test_as_program_metadata_and_digest_stability(self):
        p = transpose_permutation(N)
        program = _program("scheduled", p)
        a = shard_program(program, 4)
        b = shard_program(program, 4)
        assert a.digest() == b.digest()
        assert a.digest() != shard_program(program, 2).digest()
        composite = a.as_program()
        assert composite.engine.startswith("sharded[4]:")
        assert composite.meta is not None
        assert composite.meta["shard_d"] == 4
        assert (composite.meta["exchange_elements"]
                == a.exchange_elements)

    def test_stripe_programs_and_local_gather(self):
        p = random_permutation(N, seed=11)
        sharded = shard_program(_program("d-designated", p), 4)
        for phase in ("pre", "post"):
            stripes = sharded.stripe_programs(phase)
            assert len(stripes) == 4
            scatter = (sharded.pre if phase == "pre"
                       else sharded.post)
            for k, prog in enumerate(stripes):
                assert prog.n == sharded.stripe
                lo = k * sharded.stripe
                gather = sharded.local_gather(phase, k)
                local = scatter[lo:lo + sharded.stripe] - lo
                # gather is the inverse of the local scatter.
                assert np.array_equal(
                    local[gather], np.arange(sharded.stripe)
                )

    def test_model_time_decreases_with_d(self):
        from repro.machine.params import MachineParams

        p = bit_reversal(N)
        program = _program("d-designated", p)
        params = MachineParams(width=WIDTH)
        totals = [
            shard_program(program, d).model_time(params)["total"]
            for d in (1, 2, 4)
        ]
        assert all(t > 0 for t in totals)

    def test_describe_mentions_shape(self):
        sharded = shard_program(
            _program("d-designated", bit_reversal(N)), 2
        )
        text = sharded.describe()
        assert "d = 2" in text or "d=2" in text
