"""Deterministic stateful test of the serving core.

A hypothesis state machine drives a ``PermutationServer`` whose workers
are stalled and whose clock is fake: every rule is one admission, one
clock step, one worker step (``_step``, the method ``_worker`` loops
on) or ``close(drain=False)``.  A sequential reference model replays
the same operations on plain lists — priority buckets, shedding,
deadlines at dequeue — and after every rule the server must agree with
it on every future, every counter, every tenant's in-flight ledger,
the post-mortem's in-flight rows and the SLO window; and once every
future has resolved, the server holds no request.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import telemetry
from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ResidentBudgetError,
    ServiceOverloadError,
    ServingError,
)
from repro.exec.streaming import StreamingStats
from repro.permutations.named import bit_reversal, random_permutation
from repro.service import PermutationServer, TenantQuota
from repro.service.server import HIGH, LOW, NORMAL
from tests.service.conftest import FakeClock

N, WIDTH, D = 256, 16, 2
CAPACITY = 4
#: (tenant, name) -> permutation; tenant "b" has an in-flight bulkhead.
PERMS = {
    ("a", "bitrev"): bit_reversal(N),
    ("a", "shuffle"): random_permutation(N, seed=7),
    ("b", "bitrev"): bit_reversal(N),
}
B_MAX_INFLIGHT = 2
#: A budget that cannot hold one tile: the stream fails before writing.
TINY_BUDGET = 16

_priorities = st.sampled_from((HIGH, NORMAL, LOW))
_targets = st.sampled_from(sorted(PERMS))
_deadlines = st.sampled_from((None, 0.25, 1.0))


def _scatter(p, a):
    out = np.empty_like(a)
    if a.ndim == 2:
        out[:, p] = a
    else:
        out[p] = a
    return out


class _Entry:
    """The model's view of one admitted request."""

    def __init__(self, future, rid, admitted, key, tenant, priority,
                 deadline, kind, payload, expected, path_out=None,
                 fails=None):
        self.future = future
        self.rid = rid
        self.admitted = admitted
        self.key = key
        self.tenant = tenant
        self.priority = priority
        self.deadline = deadline
        self.kind = kind            # "single" | "batch" | "stream"
        self.payload = payload
        self.expected = expected
        self.path_out = path_out
        self.fails = fails          # error a served stream must raise
        self.outcome = None         # None while queued or running
        self.resolutions = 0


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        # A window no run outlasts: every finished in-memory request
        # stays one SLO sample.
        self.server = PermutationServer(
            width=WIDTH, workers=1, queue_capacity=CAPACITY,
            clock=self.clock,
            quotas={"b": TenantQuota(max_inflight=B_MAX_INFLIGHT)},
            slo=telemetry.SLO(window_s=3600.0),
        )
        self.server._worker = lambda: None
        for (tenant, name), p in PERMS.items():
            self.server.register(name, p, tenant=tenant)
        self.tmp = Path(tempfile.mkdtemp(prefix="server-machine-"))
        self.buckets = {HIGH: [], NORMAL: [], LOW: []}
        self.entries = []
        self.events = {}
        self.closed = False
        self.started = False
        self.last_rid = 0

    def teardown(self):
        self.server.close(drain=False)
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------ model

    def _count(self, event, n=1):
        self.events[event] = self.events.get(event, 0) + n

    def _settle(self, entry, outcome):
        entry.outcome = outcome
        self._count({"ok": "served"}.get(outcome, outcome))

    def _queued(self):
        return [e for prio in (HIGH, NORMAL, LOW)
                for e in self.buckets[prio]]

    def _watch(self, future, entry):
        """Count every resolution of ``future``."""
        for name in ("_resolve", "_fail"):
            real = getattr(future, name)

            def counted(value, _real=real):
                entry.resolutions += 1
                _real(value)

            setattr(future, name, counted)

    def _admit(self, tenant, name, priority, deadline_s, kind, payload,
               expected, submit, path_out=None, fails=None):
        """Submit through the server and replay admission on the
        model; both must accept, shed or refuse alike."""
        # Every submission past the first start draws a request id,
        # refused or not.
        self.started = self.started or not self.closed
        if self.started:
            self.last_rid += 1
        pending = [e for e in self.entries
                   if e.tenant == tenant and e.outcome is None]
        if self.closed:
            refusal = ServingError
        elif tenant == "b" and len(pending) >= B_MAX_INFLIGHT:
            refusal = QuotaExceededError
        else:
            refusal = None
        victim = None
        if refusal is None and len(self._queued()) >= CAPACITY:
            for prio in (LOW, NORMAL, HIGH):
                if prio <= priority:
                    break
                if self.buckets[prio]:
                    victim = self.buckets[prio].pop()
                    break
            if victim is None:
                refusal = ServiceOverloadError
        if refusal is not None:
            try:
                submit()
            except refusal:
                if refusal is not ServingError:
                    self._count(
                        "rejected.bulkhead"
                        if refusal is QuotaExceededError
                        else "rejected.queue_full"
                    )
                return
            raise AssertionError(f"expected {refusal.__name__}")
        future = submit()
        now = self.clock()
        entry = _Entry(
            future, self.last_rid, now, f"{tenant}/{name}", tenant,
            priority, None if deadline_s is None else now + deadline_s,
            kind, payload, expected, path_out, fails,
        )
        self._watch(future, entry)
        self.entries.append(entry)
        self.buckets[priority].append(entry)
        self._count("accepted")
        if victim is not None:
            self._settle(victim, "shed")

    def _pop(self):
        """The model of the pop in ``PermutationServer._step``."""
        return next(self.buckets[p].pop(0)
                    for p in (HIGH, NORMAL, LOW) if self.buckets[p])

    # ------------------------------------------------------------ rules

    @rule(reg=_targets, priority=_priorities, deadline_s=_deadlines,
          seed=st.integers(0, 2**16),
          dtype=st.sampled_from((np.float32, np.float64)))
    def submit_single(self, reg, priority, deadline_s, seed, dtype):
        tenant, name = reg
        a = np.random.default_rng(seed).random(N).astype(dtype)
        self._admit(
            tenant, name, priority, deadline_s, "single", a,
            _scatter(PERMS[reg], a),
            lambda: self.server.submit(
                name, a, tenant=tenant, priority=priority,
                deadline_s=deadline_s,
            ),
        )

    @rule(reg=_targets, priority=_priorities, deadline_s=_deadlines,
          seed=st.integers(0, 2**16), k=st.integers(1, 3))
    def submit_batch(self, reg, priority, deadline_s, seed, k):
        tenant, name = reg
        batch = np.random.default_rng(seed).random((k, N))
        self._admit(
            tenant, name, priority, deadline_s, "batch", batch,
            _scatter(PERMS[reg], batch),
            lambda: self.server.submit(
                name, batch, tenant=tenant, priority=priority,
                deadline_s=deadline_s, batch=True,
            ),
        )

    @rule(reg=_targets, priority=_priorities, deadline_s=_deadlines,
          seed=st.integers(0, 2**16), tiny_budget=st.booleans())
    def submit_stream(self, reg, priority, deadline_s, seed,
                      tiny_budget):
        tenant, name = reg
        a = np.random.default_rng(seed).random(N)
        stem = self.tmp / f"stream-{len(self.entries)}-{seed}"
        src, dst = stem.with_suffix(".in.npy"), stem.with_suffix(".npy")
        np.save(src, a)
        self._admit(
            tenant, name, priority, deadline_s, "stream", a,
            _scatter(PERMS[reg], a),
            lambda: self.server.submit_stream(
                name, src, dst, d=D, tenant=tenant, priority=priority,
                deadline_s=deadline_s, tmp_dir=self.tmp,
                max_resident_bytes=TINY_BUDGET if tiny_budget else None,
            ),
            path_out=dst,
            fails=ResidentBudgetError if tiny_budget else None,
        )

    @rule(dt=st.sampled_from((0.25, 1.0)))
    def advance_clock(self, dt):
        self.clock.advance(dt)

    @rule()
    def step_worker(self):
        if not self._queued():
            return
        entry = self._pop()
        assert self.server._step()
        assert entry.future.done()
        if entry.deadline is not None and self.clock() >= entry.deadline:
            self._settle(entry, "deadline_exceeded")
        else:
            self._settle(entry, "failed" if entry.fails else "ok")

    @rule()
    def close_without_drain(self):
        self.server.close(drain=False)
        for entry in self._queued():
            self._settle(entry, "dropped")
        self.buckets = {HIGH: [], NORMAL: [], LOW: []}
        self.closed = True

    # ------------------------------------------------------- invariants

    @invariant()
    def counters_match_the_model(self):
        stats = self.server.stats()
        events = {key.removeprefix("server."): value
                  for key, value in stats.items()
                  if key.startswith("server.") and key not in (
                      "server.queue_depth", "server.queue_capacity",
                      "server.inflight", "server.latency_ema_s")}
        assert events == self.events
        settled = sum(stats.get(f"server.{event}", 0) for event in (
            "served", "failed", "shed", "deadline_exceeded", "dropped"))
        assert stats.get("server.accepted", 0) == \
            settled + stats["server.inflight"]
        assert stats["server.queue_depth"] == len(self._queued())

    @invariant()
    def tenant_inflight_is_queued_work(self):
        for tenant in {t for t, _ in PERMS}:
            queued = sum(1 for e in self._queued() if e.tenant == tenant)
            assert self.server._tenant(tenant).inflight == queued

    @invariant()
    def inflight_rows_match_the_model(self):
        now = self.clock()
        rows = self.server._active_requests()
        assert rows == [
            {"rid": e.rid, "key": e.key, "tenant": e.tenant,
             "priority": e.priority, "age_s": now - e.admitted}
            for e in self.entries if e.outcome is None
        ]
        if all(e.outcome is not None for e in self.entries):
            assert self.server._inflight_reqs == {}

    @invariant()
    def slo_window_counts_finished_in_memory_requests(self):
        finished = [e for e in self.entries
                    if e.outcome is not None and e.kind != "stream"]
        ok = sum(1 for e in finished if e.outcome == "ok")
        status = self.server.slo_monitor.status()
        assert status["samples"] == len(finished)
        assert status["availability"] == (
            ok / len(finished) if finished else 1.0
        )

    @invariant()
    def futures_match_the_model(self):
        errors = {
            "shed": ServiceOverloadError,
            "deadline_exceeded": DeadlineExceededError,
            "dropped": ServingError,
        }
        for entry in self.entries:
            future = entry.future
            if entry.outcome is None:
                assert not future.done()
                assert entry.resolutions == 0
                continue
            assert future.done()
            assert entry.resolutions == 1
            error = future.exception(timeout=0)
            if entry.outcome == "ok":
                assert error is None
                out = future.result(timeout=0)
                if entry.kind == "stream":
                    assert isinstance(out, StreamingStats)
                    out = np.load(entry.path_out)
                assert out.dtype == entry.expected.dtype
                assert np.array_equal(out, entry.expected)
            elif entry.outcome == "failed":
                assert isinstance(error, entry.fails)
            else:
                assert isinstance(error, errors[entry.outcome])


ServerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestServerMachine = ServerMachine.TestCase
