"""Tests for the row-stripe sharding layer (:mod:`repro.shard`).

The acceptance bar: for every registered engine on several permutation
families, the two stored gathers compose to exactly the inverse of the
program's denoted permutation; ``gather_pre`` never leaves its stripe;
``gather_post`` reads each output stripe only from the exchange
segments that end in it; and a tampered map is refused by the same
proof :func:`shard_program` runs, at the first wrong output position.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import (
    NotAPermutationError,
    ShardingError,
    ShardRefutedError,
)
from repro.ir.registry import engine_names, get_engine
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.shard import (
    ExchangeSegment,
    ShardedProgram,
    prove_sharding,
    shard_permutation,
    shard_program,
)
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


def _streamed(sharded: ShardedProgram, a: np.ndarray) -> np.ndarray:
    """The two gather passes a stream runs, in memory."""
    return a[sharded.gather_pre][sharded.gather_post]


class TestProvenAcrossEnginesAndFamilies:
    @pytest.mark.parametrize("engine", sorted(engine_names()))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_two_gathers_compose_to_the_inverse(self, engine, family):
        p = FAMILIES[family](N)
        program = _program(engine, p)
        sharded = shard_program(program, 4)
        assert isinstance(sharded, ShardedProgram)
        assert sharded.d == 4 and sharded.n == program.n
        assert np.array_equal(
            sharded.gather_pre[sharded.gather_post], np.argsort(p)
        )

    @pytest.mark.parametrize("d", (1, 2, 4, 8))
    def test_streamed_payload_equals_denoted_scatter(self, d):
        p = random_permutation(N, seed=4)
        program = _program("d-designated", p)
        sharded = shard_program(program, d)
        a = np.arange(N, dtype=np.float64) * 3.0 - 1.0
        expected = np.empty_like(a)
        expected[denote_program(program).index_map] = a
        assert np.array_equal(_streamed(sharded, a), expected)

    def test_maps_are_read_only_uint32(self):
        sharded = shard_program(_program("d-designated", bit_reversal(N)), 4)
        for gather in (sharded.gather_pre, sharded.gather_post):
            assert gather.dtype == np.uint32
            assert not gather.flags.writeable
            with pytest.raises(ValueError):
                gather[0] = 0

    def test_deterministic(self):
        program = _program("scheduled", transpose_permutation(N))
        a, b = shard_program(program, 4), shard_program(program, 4)
        assert np.array_equal(a.gather_pre, b.gather_pre)
        assert np.array_equal(a.gather_post, b.gather_post)
        assert a.segments == b.segments


class TestStripeStructure:
    @pytest.mark.parametrize("d", (2, 4, 8))
    def test_gather_pre_is_stripe_local(self, d):
        p = random_permutation(N, seed=3)
        sharded = shard_program(_program("s-designated", p), d)
        s = sharded.stripe
        assert np.array_equal(
            np.arange(N) // s, sharded.gather_pre // s
        ), "gather_pre read an element from another stripe"

    def test_gather_pre_groups_each_stripe_by_destination(self):
        p = random_permutation(N, seed=5)
        sharded = shard_program(_program("d-designated", p), 4)
        s = sharded.stripe
        dest = p[sharded.gather_pre] // s
        for k in range(sharded.d):
            block = dest[k * s:(k + 1) * s]
            assert np.all(np.diff(block) >= 0)

    @pytest.mark.parametrize("d", (2, 4, 8))
    def test_gather_post_reads_only_segments_ending_in_its_stripe(self, d):
        p = random_permutation(N, seed=9)
        sharded = shard_program(_program("d-designated", p), d)
        s = sharded.stripe
        for j in range(d):
            allowed = np.zeros(N, dtype=bool)
            for seg in sharded.segments:
                if seg.dst_stripe == j:
                    allowed[seg.src_start:seg.src_start + seg.length] = True
            reads = sharded.gather_post[j * s:(j + 1) * s]
            assert allowed[reads].all(), (
                f"output stripe {j} reads outside its exchange segments"
            )
            # ... and reads every element those segments carry.
            assert int(allowed.sum()) == s

    def test_segments_tile_mid_exactly_once(self):
        p = random_permutation(N, seed=11)
        sharded = shard_program(_program("d-designated", p), 4)
        s = sharded.stripe
        covered = np.zeros(N, dtype=np.int64)
        for seg in sharded.segments:
            assert isinstance(seg, ExchangeSegment)
            assert seg.length > 0
            assert seg.src_start // s == seg.src_stripe
            assert (seg.src_start + seg.length - 1) // s == seg.src_stripe
            assert seg.dst_start // s == seg.dst_stripe
            covered[seg.src_start:seg.src_start + seg.length] += 1
        assert np.all(covered == 1)
        crossing = int(np.count_nonzero(np.arange(N) // s != p // s))
        assert sharded.exchange_elements == crossing


class TestShardPermutation:
    """The planner's path: shard ``p`` itself, checked once, with no
    program and no denotation."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_equals_the_program_sharding(self, family):
        p = FAMILIES[family](N)
        direct = shard_permutation(p, 4)
        via = shard_program(_program("d-designated", p), 4)
        assert np.array_equal(direct.gather_pre, via.gather_pre)
        assert np.array_equal(direct.gather_post, via.gather_post)
        assert direct.segments == via.segments
        assert not direct.gather_pre.flags.writeable

    def test_checks_p_once_and_denotes_nothing(self, monkeypatch):
        from repro.shard import program as module

        checked = []
        real_check = module.check_permutation

        def check(p):
            checked.append(p)
            return real_check(p)

        def no_denotation(_program):
            raise AssertionError("sharding p must not denote a program")

        monkeypatch.setattr(module, "check_permutation", check)
        monkeypatch.setattr(module, "denote_program", no_denotation)
        shard_permutation(bit_reversal(N), 4)
        assert len(checked) == 1

    @pytest.mark.parametrize("case", ("repeat", "range"))
    def test_non_permutation_refused(self, case):
        p = np.arange(N, dtype=np.int64)
        p[1] = 0 if case == "repeat" else N
        with pytest.raises(NotAPermutationError):
            shard_permutation(p, 4)

    def test_invalid_d_refused(self):
        for d in (0, 3):
            with pytest.raises(ShardingError):
                shard_permutation(bit_reversal(N), d)


class TestRefusal:
    @pytest.fixture
    def built(self):
        p = random_permutation(N, seed=13)
        return p, shard_program(_program("d-designated", p), 4)

    def test_swapped_gather_post_refused_at_first_output(self, built):
        p, sharded = built
        broken = sharded.gather_post.copy()
        broken[[5, 700]] = broken[[700, 5]]
        with pytest.raises(ShardRefutedError) as excinfo:
            prove_sharding(replace(sharded, gather_post=broken), p)
        assert excinfo.value.position == 5

    def test_swapped_gather_pre_refused_at_first_output(self, built):
        p, sharded = built
        broken = sharded.gather_pre.copy()
        broken[[10, 20]] = broken[[20, 10]]
        with pytest.raises(ShardRefutedError) as excinfo:
            prove_sharding(replace(sharded, gather_pre=broken), p)
        # The two outputs that read mid positions 10 and 20 go wrong.
        readers = np.flatnonzero(np.isin(sharded.gather_post, (10, 20)))
        assert excinfo.value.position == int(readers.min())

    @pytest.mark.parametrize("name", ("gather_pre", "gather_post"))
    def test_out_of_range_read_refused(self, built, name):
        p, sharded = built
        broken = getattr(sharded, name).copy()
        broken[17] = N
        with pytest.raises(ShardRefutedError, match="outside") as excinfo:
            prove_sharding(replace(sharded, **{name: broken}), p)
        assert excinfo.value.position == 17

    def test_wrong_length_refused(self, built):
        p, sharded = built
        with pytest.raises(ShardRefutedError, match="shape"):
            prove_sharding(
                replace(sharded, gather_post=sharded.gather_post[:-1]), p
            )
        with pytest.raises(ShardRefutedError, match="shape"):
            prove_sharding(sharded, p[:-1])

    def test_shard_program_runs_the_proof(self, monkeypatch):
        program = _program("d-designated", bit_reversal(N))
        calls = []

        def refuse(sharded, p):
            calls.append(sharded)
            raise ShardRefutedError("seeded refusal", position=0)

        monkeypatch.setattr("repro.shard.program.prove_sharding", refuse)
        with pytest.raises(ShardRefutedError, match="seeded"):
            shard_program(program, 4)
        assert len(calls) == 1 and calls[0].d == 4

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
        sharded = shard_program(program, 2)
        assert np.array_equal(
            sharded.gather_pre[sharded.gather_post], np.argsort(p)
        )


class TestShardedProgramApi:
    def test_nbytes_counts_the_two_maps(self):
        sharded = shard_program(_program("d-designated", bit_reversal(N)), 4)
        assert sharded.nbytes == 2 * 4 * N

    def test_describe_mentions_shape(self):
        sharded = shard_program(
            _program("d-designated", bit_reversal(N)), 2
        )
        text = sharded.describe()
        assert "d=2" in text
        assert "segments" in text
