"""PermutationServer stream tests: a stream is one queue entry served
by ``PermutationService.apply_stream``, so admission, shedding, the
deadline at dequeue, failure and shutdown are the ordinary request
paths — real workers where the data must actually move, stalled
workers where the queue must be observed synchronously."""

import typing

import numpy as np
import pytest

from repro import telemetry
from repro.errors import (
    DeadlineExceededError,
    ResidentBudgetError,
    ServiceOverloadError,
    ServingError,
    ValidationError,
)
from repro.exec.streaming import StreamingStats
from repro.permutations.named import bit_reversal
from repro.service import PermutationServer
from repro.service.server import HIGH, LOW, ServeResult

_N, _WIDTH = 4096, 32


def _payload(path, n=_N):
    a = np.arange(n, dtype=np.float64) * 2.0 + 0.5
    np.save(path, a)
    return a


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def _stall_workers(server):
    server._worker = lambda: None
    return server


@pytest.fixture
def stream_server():
    srv = PermutationServer(width=_WIDTH, workers=2)
    srv.register("bitrev", bit_reversal(_N))
    yield srv
    srv.close()


class TestStreamCorrectness:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_streamed_output_matches_scatter(self, tmp_path, workers):
        srv = PermutationServer(width=_WIDTH, workers=workers)
        try:
            p = bit_reversal(_N)
            srv.register("bitrev", p)
            src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
            a = _payload(src)
            stats = srv.apply_stream(
                "bitrev", src, dst, d=4,
                max_resident_bytes=64 * 1024, tmp_dir=tmp_path,
            )
            assert isinstance(stats, StreamingStats)
            assert stats.d == 4
            assert np.array_equal(np.load(dst), _expected(p, a))
        finally:
            srv.close()

    def test_result_metadata_and_counters(self, stream_server, tmp_path):
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        _payload(src)
        res = stream_server.submit_stream(
            "bitrev", src, dst, d=2, max_resident_bytes=64 * 1024,
        )
        stats = res.result(timeout=30.0)
        assert stats.peak_resident_total_bytes <= 64 * 1024
        assert res.engine
        assert res.attempts == 1 and not res.coalesced
        assert res.service_s >= stats.seconds > 0.0
        snap = stream_server.stats()
        assert snap["server.accepted"] == snap["server.served"] == 1
        assert snap["server.inflight"] == 0
        assert not [k for k in snap if k.startswith("server.stream.")]

    def test_normal_traffic_still_served_alongside_stream(
        self, stream_server, tmp_path
    ):
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        a32 = np.arange(_N, dtype=np.float32)
        _payload(src)
        stream_res = stream_server.submit_stream(
            "bitrev", src, dst, d=4, max_resident_bytes=64 * 1024,
        )
        normal = stream_server.submit("bitrev", a32, priority=HIGH)
        assert np.array_equal(
            normal.result(timeout=30.0),
            _expected(bit_reversal(_N), a32),
        )
        stream_res.result(timeout=30.0)


class TestStreamValidation:
    def test_unknown_name(self, stream_server, tmp_path):
        _payload(tmp_path / "in.npy")
        with pytest.raises(ValidationError, match="registered"):
            stream_server.submit_stream(
                "nope", tmp_path / "in.npy", tmp_path / "out.npy"
            )

    def test_missing_input_file(self, stream_server, tmp_path):
        with pytest.raises(ValidationError, match="exist"):
            stream_server.submit_stream(
                "bitrev", tmp_path / "missing.npy", tmp_path / "o.npy"
            )

    def test_bad_d(self, stream_server, tmp_path):
        _payload(tmp_path / "in.npy")
        with pytest.raises(ValidationError):
            stream_server.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy", d=0
            )

    def test_d_not_dividing_n_refused_before_queueing(
        self, stream_server, tmp_path
    ):
        _payload(tmp_path / "in.npy")
        with pytest.raises(ValidationError, match="divide"):
            stream_server.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy", d=3
            )
        snap = stream_server.stats()
        assert snap.get("server.accepted", 0) == 0
        assert snap.get("server.failed", 0) == 0
        assert snap["server.queue_depth"] == 0

    def test_bad_priority(self, stream_server, tmp_path):
        _payload(tmp_path / "in.npy")
        with pytest.raises(ValidationError):
            stream_server.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy",
                priority="urgent",
            )


class TestStreamAdmission:
    def test_stream_takes_one_slot_and_one_inflight(self, tmp_path):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=1,
        ))
        try:
            srv.register("bitrev", bit_reversal(_N), tenant="acme")
            _payload(tmp_path / "in.npy")
            res = srv.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy",
                d=8, tenant="acme",
            )
            assert not res.done()
            assert srv.stats()["server.queue_depth"] == 1
            assert srv._tenant("acme").inflight == 1
            # The one slot is taken: an equal-priority request is
            # refused, not queued behind the stream.
            with pytest.raises(ServiceOverloadError, match="full"):
                srv.submit("bitrev", np.zeros(_N), tenant="acme")
        finally:
            srv.close(drain=False)

    def test_high_request_sheds_a_queued_low_stream(self, tmp_path):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=1,
        ))
        try:
            srv.register("bitrev", bit_reversal(_N))
            _payload(tmp_path / "in.npy")
            stream = srv.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy",
                d=2, priority=LOW,
            )
            srv.submit("bitrev", np.zeros(_N), priority=HIGH)
            with pytest.raises(ServiceOverloadError, match="shed"):
                stream.result(timeout=0)
            snap = srv.stats()
            assert snap["server.shed"] == 1
            assert snap["server.queue_depth"] == 1
            assert not (tmp_path / "o.npy").exists()
        finally:
            srv.close(drain=False)


class TestStreamFailure:
    def test_budget_failure_fails_stream_not_server(
        self, stream_server, tmp_path
    ):
        src = tmp_path / "in.npy"
        _payload(src)
        res = stream_server.submit_stream(
            "bitrev", src, tmp_path / "o.npy", d=2,
            max_resident_bytes=16,   # cannot hold one element
        )
        with pytest.raises(ResidentBudgetError):
            res.result(timeout=30.0)
        # The server remains healthy for ordinary traffic.
        a32 = np.arange(_N, dtype=np.float32)
        out = stream_server.submit("bitrev", a32).result(timeout=30.0)
        assert np.array_equal(out, _expected(bit_reversal(_N), a32))

    def test_zero_budget_is_refused_not_replaced(
        self, stream_server, tmp_path
    ):
        src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
        _payload(src)
        with pytest.raises(ResidentBudgetError):
            stream_server.apply_stream(
                "bitrev", src, dst, d=2, max_resident_bytes=0
            )
        assert not dst.exists()

    def test_close_cancels_queued_stream(self, tmp_path):
        srv = _stall_workers(PermutationServer(width=_WIDTH, workers=1))
        srv.register("bitrev", bit_reversal(_N))
        _payload(tmp_path / "in.npy")
        res = srv.submit_stream(
            "bitrev", tmp_path / "in.npy", tmp_path / "o.npy", d=2,
        )
        srv.close(drain=False)
        with pytest.raises(ServingError, match="closed"):
            res.result(timeout=5.0)

    def test_expired_stream_fails_at_dequeue(self, tmp_path, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
        ))
        try:
            srv.register("bitrev", bit_reversal(_N))
            _payload(tmp_path / "in.npy")
            res = srv.submit_stream(
                "bitrev", tmp_path / "in.npy", tmp_path / "o.npy",
                d=2, deadline_s=0.5,
            )
            fake_clock.advance(1.0)
            assert srv._step()
            with pytest.raises(DeadlineExceededError):
                res.result(timeout=0)
            assert srv.stats()["server.deadline_exceeded"] == 1
            assert not (tmp_path / "o.npy").exists()
        finally:
            srv.close(drain=False)


class TestStreamObservability:
    def test_slow_stream_neither_breaches_the_slo_nor_dumps(
        self, tmp_path, fake_clock
    ):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
            slo=telemetry.SLO(latency_p99_s=0.25, min_samples=5),
        ))
        try:
            p = bit_reversal(_N)
            srv.register("bitrev", p)
            a = np.arange(_N, dtype=np.float32)
            src, dst = tmp_path / "in.npy", tmp_path / "out.npy"
            _payload(src)
            singles = [srv.submit("bitrev", a) for _ in range(10)]
            stream = srv.submit_stream("bitrev", src, dst, d=2)
            for _ in singles:
                assert srv._step()
            # The stream ends 1 s after admission, four times the p99
            # target.
            fake_clock.advance(1.0)
            assert srv._step()
            for res in singles:
                assert np.array_equal(res.result(timeout=0),
                                      _expected(p, a))
            assert isinstance(stream.result(timeout=0), StreamingStats)
            assert srv.health()["slo"]["breached"] is False
            assert srv.recorder.dumps == 0
            rows = srv.metrics.snapshot()
            e2e = sum(r["count"] for r in rows["server_e2e_seconds"])
            assert e2e == len(singles)
            (streamed,) = [r for r in rows["exec_apply_seconds"]
                           if r["labels"]["mode"] == "stream"]
            assert streamed["count"] == 1
            assert srv.stats()["server.served"] == len(singles) + 1
        finally:
            srv.close(drain=False)

    def test_slow_stream_leaves_retry_after_unchanged(
        self, tmp_path, fake_clock
    ):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
        ))
        service = srv.service
        apply, apply_stream = service.apply, service.apply_stream

        def timed(call, seconds):
            def run(*args, **kwargs):
                out = call(*args, **kwargs)
                fake_clock.advance(seconds)
                return out
            return run

        service.apply = timed(apply, 0.01)
        service.apply_stream = timed(apply_stream, 0.7)
        try:
            srv.register("bitrev", bit_reversal(_N))
            src = tmp_path / "in.npy"
            _payload(src)
            a = np.arange(_N, dtype=np.float32)
            for _ in range(5):
                srv.submit("bitrev", a)
                assert srv._step()
            before = srv._retry_after()
            stream = srv.submit_stream("bitrev", src,
                                       tmp_path / "o.npy", d=2)
            assert srv._step()
            assert isinstance(stream.result(timeout=0), StreamingStats)
            assert stream.service_s == pytest.approx(0.7)
            assert srv._retry_after() == before
            assert srv.stats()["server.served"] == 6
        finally:
            srv.close(drain=False)


def test_futures_are_typed_by_their_value():
    hints = typing.get_type_hints
    assert hints(PermutationServer.submit)["return"] == \
        ServeResult[np.ndarray]
    assert hints(PermutationServer.submit_stream)["return"] == \
        ServeResult[StreamingStats]
    assert hints(PermutationServer.apply_stream)["return"] is \
        StreamingStats
    assert hints(PermutationServer.apply)["return"] is np.ndarray
    value = typing.get_args(ServeResult[StreamingStats])[0]
    assert value is StreamingStats
    assert hints(ServeResult.result)["return"] == \
        ServeResult.__parameters__[0]
