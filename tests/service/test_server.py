"""PermutationServer unit tests: admission control, shedding,
deadlines, one-attempt serving, one request per dispatch, tenant plan
slots, and introspection — all deterministic (fake clock, stubbed
workers or stubbed service where concurrency would race)."""

import numpy as np
import pytest

from repro.errors import (
    ColoringError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceOverloadError,
    ServingError,
    ValidationError,
)
from repro.permutations.named import bit_reversal, random_permutation
from repro.service import PermutationServer, TenantQuota
from repro.service.server import HIGH, LOW, NORMAL, ServeResult

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def _stall_workers(server):
    """Replace the worker loop with a no-op so queued requests stay
    queued and admission logic can be observed synchronously."""
    server._worker = lambda: None
    return server


@pytest.fixture
def server(fake_clock):
    srv = PermutationServer(width=_WIDTH, workers=1, clock=fake_clock)
    srv.register("bitrev", bit_reversal(_N))
    yield srv
    srv.close()


class TestServeResult:
    def test_resolve_and_metadata(self):
        res = ServeResult("x", "default", NORMAL)
        assert not res.done()
        res._resolve(np.arange(3))
        assert res.done()
        assert np.array_equal(res.result(), np.arange(3))
        assert res.exception() is None

    def test_fail_raises(self):
        res = ServeResult("x", "default", NORMAL)
        res._fail(ServingError("boom"))
        with pytest.raises(ServingError, match="boom"):
            res.result()
        assert isinstance(res.exception(), ServingError)

    def test_result_timeout(self):
        res = ServeResult("x", "default", NORMAL)
        with pytest.raises(DeadlineExceededError):
            res.result(timeout=0.01)


class TestSubmitValidation:
    def test_unknown_name(self, server):
        with pytest.raises(ValidationError, match="registered"):
            server.submit("nope", np.arange(_N))

    def test_payload_shape(self, server):
        with pytest.raises(ValidationError, match="shape"):
            server.submit("bitrev", np.arange(_N - 1))
        with pytest.raises(ValidationError, match="shape"):
            server.submit("bitrev", np.arange(_N), batch=True)

    def test_bad_priority(self, server):
        with pytest.raises(ValidationError, match="priority"):
            server.submit("bitrev", np.arange(_N), priority=7)

    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            PermutationServer(workers=0)
        with pytest.raises(ValidationError):
            PermutationServer(queue_capacity=0)


class TestServing:
    def test_single_and_batch(self, server):
        p = bit_reversal(_N)
        a = np.arange(_N, dtype=np.float32)
        out = server.submit("bitrev", a).result(timeout=30.0)
        assert np.array_equal(out, _expected(p, a))
        batch = np.stack([a, a + 1])
        res = server.submit("bitrev", batch, batch=True)
        out = res.result(timeout=30.0)
        assert np.array_equal(out[1], _expected(p, a + 1))

    def test_apply_conveniences(self, server):
        p = bit_reversal(_N)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(
            server.apply("bitrev", a), _expected(p, a)
        )
        batch = np.stack([a, a])
        assert server.apply_batch("bitrev", batch).shape == batch.shape

    def test_result_metadata(self, server):
        res = server.submit("bitrev", np.arange(_N))
        res.result(timeout=30.0)
        assert res.engine == "scheduled"
        assert res.attempts == 1
        assert res.wait_s >= 0.0

    def test_self_check_accepts_correct_output(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1, self_check=True,
            clock=fake_clock,
        )
        srv.register("r", random_permutation(_N, seed=3))
        try:
            out = srv.submit("r", np.arange(_N)).result(timeout=30.0)
            assert out.shape == (_N,)
        finally:
            srv.close()


class TestAdmission:
    def test_queue_full_rejects_with_hint(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2,
            clock=fake_clock,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        srv.submit("bitrev", a)
        srv.submit("bitrev", a)
        with pytest.raises(ServiceOverloadError) as info:
            srv.submit("bitrev", a)
        assert info.value.retry_after > 0
        assert srv.stats()["server.rejected.queue_full"] == 1

    def test_high_priority_sheds_low(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2,
            clock=fake_clock,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        victim = srv.submit("bitrev", a, priority=LOW)
        srv.submit("bitrev", a, priority=NORMAL)
        kept = srv.submit("bitrev", a, priority=HIGH)
        with pytest.raises(ServiceOverloadError, match="shed"):
            victim.result(timeout=0.0)
        assert not kept.done()
        stats = srv.stats()
        assert stats["server.shed"] == 1
        assert stats["server.queue_depth"] == 2

    def test_equal_priority_never_sheds(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=1,
            clock=fake_clock,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        first = srv.submit("bitrev", a, priority=NORMAL)
        with pytest.raises(ServiceOverloadError):
            srv.submit("bitrev", a, priority=NORMAL)
        assert not first.done()

    def test_submit_after_close_rejected(self, server):
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.submit("bitrev", np.arange(_N))

    def test_close_without_drain_fails_queued(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock,
        ))
        srv.register("bitrev", bit_reversal(_N))
        res = srv.submit("bitrev", np.arange(_N))
        srv.close(drain=False)
        with pytest.raises(ServingError, match="closed"):
            res.result(timeout=0.0)


class TestQuotas:
    def test_rate_limit(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(rps=1.0, burst=1)},
            clock=fake_clock,
        )
        srv.register("bitrev", bit_reversal(_N), tenant="t")
        a = np.arange(_N)
        srv.submit("bitrev", a, tenant="t").result(timeout=30.0)
        with pytest.raises(QuotaExceededError) as info:
            srv.submit("bitrev", a, tenant="t")
        assert info.value.retry_after == pytest.approx(1.0)
        fake_clock.advance(1.0)
        srv.submit("bitrev", a, tenant="t").result(timeout=30.0)
        assert srv.stats()["server.rejected.rate"] == 1
        srv.close()

    def test_inflight_bulkhead(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(max_inflight=1)},
            clock=fake_clock,
        ))
        srv.register("bitrev", bit_reversal(_N), tenant="t")
        a = np.arange(_N)
        srv.submit("bitrev", a, tenant="t")
        with pytest.raises(QuotaExceededError, match="bulkhead"):
            srv.submit("bitrev", a, tenant="t")

    def test_plan_bulkhead(self):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(max_plans=1)},
        )
        srv.register("a", bit_reversal(_N), tenant="t")
        srv.register("a", bit_reversal(_N), tenant="t")  # same slot
        with pytest.raises(QuotaExceededError, match="plan"):
            srv.register(
                "b", random_permutation(_N, seed=1), tenant="t"
            )
        srv.close()

    def test_unregister_frees_plan_slot(self):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(max_plans=1)},
        )
        p = random_permutation(_N, seed=1)
        srv.register("a", bit_reversal(_N), tenant="t")
        assert srv.unregister("a", tenant="t")
        assert not srv.unregister("a", tenant="t")
        srv.register("b", p, tenant="t")
        a = np.arange(_N)
        assert np.array_equal(
            srv.apply("b", a, tenant="t"), _expected(p, a)
        )
        with pytest.raises(ValidationError, match="registered"):
            srv.submit("a", a, tenant="t")
        srv.close()

    def test_tenants_are_namespaced(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock,
        )
        p_a = bit_reversal(_N)
        p_b = random_permutation(_N, seed=2)
        srv.register("perm", p_a, tenant="alice")
        srv.register("perm", p_b, tenant="bob")   # no collision
        a = np.arange(_N)
        out_a = srv.submit("perm", a, tenant="alice").result(30.0)
        out_b = srv.submit("perm", a, tenant="bob").result(30.0)
        assert np.array_equal(out_a, _expected(p_a, a))
        assert np.array_equal(out_b, _expected(p_b, a))
        with pytest.raises(ValidationError):
            srv.submit("perm", a, tenant="carol")
        srv.close()


class TestDeadlines:
    def test_expired_in_queue_fails_fast(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock,
        )
        srv.register("bitrev", bit_reversal(_N))
        res = srv.submit("bitrev", np.arange(_N), deadline_s=0.0)
        with pytest.raises(DeadlineExceededError):
            res.result(timeout=30.0)
        assert srv.stats()["server.deadline_exceeded"] >= 1
        srv.close()


class TestOneAttempt:
    def test_failed_apply_fails_the_request_once(self, fake_clock):
        srv = PermutationServer(width=_WIDTH, workers=1,
                                clock=fake_clock)
        srv.register("bitrev", bit_reversal(_N))
        calls = {"n": 0}

        def failing(name, a):
            calls["n"] += 1
            raise ColoringError("injected")

        srv.service.apply = failing
        res = srv.submit("bitrev", np.arange(_N))
        with pytest.raises(ColoringError, match="injected"):
            res.result(timeout=30.0)
        assert calls["n"] == 1
        stats = srv.stats()
        assert stats["server.failed"] == 1
        assert "server.served" not in stats
        srv.close()


class TestOneRequestPerDispatch:
    def test_each_queued_single_takes_its_own_step(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
        ))
        service = srv.service
        apply = service.apply

        def timed(name, a):
            out = apply(name, a)
            fake_clock.advance(0.01 * (1 + int(a[0])))
            return out

        service.apply = timed
        p = bit_reversal(_N)
        srv.register("bitrev", p)
        payloads = [np.arange(_N) + i for i in range(3)]
        futures = [srv.submit("bitrev", a) for a in payloads]
        for step, (a, fut) in enumerate(zip(payloads, futures)):
            before = srv.stats()["requests"]
            assert srv._step()
            assert srv.stats()["requests"] == before + 1
            assert srv._size == len(futures) - step - 1
            assert fut.done()
            assert all(not f.done() for f in futures[step + 1:])
            assert np.array_equal(fut.result(timeout=0),
                                  _expected(p, a))
            assert fut.service_s == pytest.approx(0.01 * (1 + step))
            assert fut.attempts == 1 and not fut.coalesced
        assert srv.stats()["server.served"] == 3
        assert srv._tenant("default").inflight == 0
        srv.close(drain=False)

    def test_timings_are_set_before_the_future_resolves(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
        ))
        service = srv.service
        apply = service.apply

        def timed(name, a):
            out = apply(name, a)
            fake_clock.advance(0.25)
            return out

        service.apply = timed
        srv.register("bitrev", bit_reversal(_N))
        fut = srv.submit("bitrev", np.arange(_N))
        fake_clock.advance(0.5)
        seen = {}
        resolve = fut._resolve

        def recording(value):
            # What a client woken by the resolve would read.
            seen.update(service_s=fut.service_s, wait_s=fut.wait_s,
                        engine=fut.engine, attempts=fut.attempts)
            resolve(value)

        fut._resolve = recording
        assert srv._step()
        assert fut.done()
        assert seen == {"service_s": pytest.approx(0.25),
                        "wait_s": pytest.approx(0.5),
                        "engine": fut.engine, "attempts": 1}
        assert fut.engine is not None
        srv.close(drain=False)

    def test_failed_apply_fails_only_its_own_request(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, clock=fake_clock,
        ))
        service = srv.service
        apply = service.apply

        def failing_on_one(name, a):
            if int(a[0]) == 1:
                raise ColoringError("injected")
            return apply(name, a)

        service.apply = failing_on_one
        p = bit_reversal(_N)
        srv.register("bitrev", p)
        payloads = [np.arange(_N) + i for i in range(3)]
        futures = [srv.submit("bitrev", a) for a in payloads]
        for _ in futures:
            assert srv._step()
        with pytest.raises(ColoringError, match="injected"):
            futures[1].result(timeout=0)
        for i in (0, 2):
            assert np.array_equal(futures[i].result(timeout=0),
                                  _expected(p, payloads[i]))
            assert futures[i].attempts == 1
        stats = srv.stats()
        assert stats["server.served"] == 2
        assert stats["server.failed"] == 1
        assert srv._tenant("default").inflight == 0
        srv.close(drain=False)

    def test_coalesced_results_are_per_request(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock,
        )
        p = bit_reversal(_N)
        srv.register("bitrev", p)
        payloads = [np.arange(_N) + i for i in range(6)]
        futures = [srv.submit("bitrev", a) for a in payloads]
        for a, fut in zip(payloads, futures):
            assert np.array_equal(
                fut.result(timeout=30.0), _expected(p, a)
            )
        srv.close()


class TestIntrospection:
    def test_stats_merges_service_and_server(self, server):
        server.submit("bitrev", np.arange(_N)).result(timeout=30.0)
        stats = server.stats()
        assert stats["server.accepted"] == 1
        assert stats["server.served"] == 1
        assert stats["requests"] == 1           # service layer
        assert "memory_hits" in stats           # planner layer

    def test_health_shape(self, server):
        health = server.health()
        assert health["status"] == "ok"
        assert health["queue"]["capacity"] == 64
        assert health["queue"]["accepting"]

    def test_context_manager(self):
        with PermutationServer(width=_WIDTH, workers=1) as srv:
            srv.register("bitrev", bit_reversal(_N))
            srv.apply("bitrev", np.arange(_N))
        with pytest.raises(ServingError):
            srv.submit("bitrev", np.arange(_N))
