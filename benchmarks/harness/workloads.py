"""The four workloads: inputs, set-up, the timed phase, e2e metrics.

Every workload follows the same shape.  ``setup()`` prepares each
permutation the phase will use and returns one timing per permutation
(``setup_s`` is their median).  ``phase(seconds, tracer)`` runs the
timed loop, checks every output against the definitional scatter
``b[p[i]] = a[i]`` outside the timed region, and returns a
:class:`Phase`.  Every timing is tagged with the window of the
workload's :class:`HostReference` it fell in, and :func:`end_to_end`
scales it by that window's factor when it turns set-up and phase into
the metrics ``BENCHMARK.json`` lists under ``end_to_end``.

The harness times calls into public functions only; nothing here
installs a tracer into the library.
"""

from __future__ import annotations

import resource
import shutil
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.planner import Planner
from repro.service import PermutationServer, PermutationService

from .stats import percentile, timed

WIDTH = 32
ENGINE = "scheduled"
FAMILIES = ("bit-reversal", "transpose", "random")
#: Fresh planners per cold request in ``cold-plan`` (sealed tier).
FIRST_REPS = 10
#: ``warm-apply`` batch size and how many rounds pass between batches.
APPLY_BATCH_K = 8
BATCH_EVERY_ROUNDS = 5
#: Served load: closed loop, 2 clients, every 16th request a batch of 4.
CLIENTS = 2
WORKERS = 2
SERVE_BATCH_K = 4
SERVE_BATCH_EVERY = 16
SERVE_DEADLINE_S = 10.0
PAYLOAD_POOL = 8
WARMUP_S = 2.0
SERVE_WINDOW_S = 1.0
#: Longest gap between host-reference bursts in ``warm-apply``.
REFERENCE_PERIOD_S = 1.0
CHURN_NAMES = 16
CHURN_CACHE_SIZE = 4
#: Planner counters whose change over a timed phase is reported.
PLANNER_COUNTS = ("cold_plans", "sealed_hits", "memory_hits",
                  "memory_misses")


def family_permutation(family: str, n: int, seed: int) -> np.ndarray:
    if family == "bit-reversal":
        return bit_reversal(n)
    if family == "transpose":
        return transpose_permutation(n)
    if family == "random":
        return random_permutation(n, seed=seed + 5)
    raise ValueError(f"unknown family {family!r}")


def scatter(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The definitional permutation: ``b[..., p[i]] = a[..., i]``."""
    b = np.empty_like(a)
    b[..., p] = a
    return b


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def planner_counts(planner: Planner) -> Counter[str]:
    stats = planner.stats()
    return Counter({key: int(stats.get(key, 0)) for key in PLANNER_COUNTS})


class Run:
    """One run's seed, scratch directory and correctness tally.

    ``corrupt_one_output`` flips one element of the first output
    checked, so a test can prove the check is live.
    """

    def __init__(self, seed: int, workdir: Path, quick: bool = False,
                 corrupt_one_output: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._corrupt = corrupt_one_output
        self._lock = threading.Lock()
        self._next_sample = 0

    def size(self, n: int) -> int:
        """``--quick`` divides every size by 16 (never below 1024)."""
        return max(1024, n >> 4) if self.quick else n

    def sample_id(self) -> int:
        with self._lock:
            self._next_sample += 1
            return self._next_sample

    def payload(self, n: int) -> np.ndarray:
        return self.rng.random(n, dtype=np.float32)

    def check(self, out: Any, expected: np.ndarray) -> None:
        """Count one attempted operation, and count it failed and wrong
        when ``out`` differs from ``expected``."""
        with self._lock:
            corrupt, self._corrupt = self._corrupt, False
            self.attempted += 1
        got = np.asarray(out)
        if corrupt:
            got = got.copy()
            got.reshape(-1)[0] += 1
        if not np.array_equal(got, expected):
            with self._lock:
                self.failed += 1
                self.wrong += 1

    def error(self) -> None:
        """Count one attempted operation that raised instead of
        answering."""
        with self._lock:
            self.attempted += 1
            self.failed += 1


class HostReference:
    """The host's speed, sampled in bursts between timed windows.

    On a shared host, speed drifts by tens of percent over minutes, so
    every timing is scaled by a reference kernel timed next to it.  The
    kernel matches what bounds the workload:

    * ``"py"``: a pure-Python loop (interpreter speed);
    * ``"np"``: a random gather of 2^20 float32 (memory);
    * ``"thr"``: 50 round trips between two threads through
      ``threading.Event`` (thread wake-up and hand-off).

    A sample timed in window ``w`` (after burst ``w``) is multiplied by
    the kernel's nominal time over the mean of bursts ``w`` and
    ``w + 1``, so it reads as the time the operation would take on a
    host where the kernel takes exactly its nominal time.  No kernel
    calls ``repro``.
    """

    NOMINAL_S = {"py": 1.0e-3, "np": 5.0e-3, "thr": 2.0e-3}
    REPS = 5
    PY_ITERATIONS = 30_000
    NP_SIZE = 2**20
    ROUND_TRIPS = 50

    def __init__(self, kind: str, seed: int) -> None:
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        if kind == "np":
            rng = np.random.default_rng(seed)
            a = rng.random(self.NP_SIZE, dtype=np.float32)
            g = rng.permutation(self.NP_SIZE)
            self._kernel = lambda: a.take(g)
        else:
            self._kernel = {"py": self._py, "thr": self._thr}[kind]
        #: (time, median kernel seconds) per burst.
        self.bursts: list[tuple[float, float]] = []

    def _py(self) -> None:
        s = 0
        for i in range(self.PY_ITERATIONS):
            s += i

    def _thr(self) -> None:
        ping, pong = threading.Event(), threading.Event()

        def echo() -> None:
            for _ in range(self.ROUND_TRIPS):
                ping.wait()
                ping.clear()
                pong.set()

        t = threading.Thread(target=echo)
        t.start()
        for _ in range(self.ROUND_TRIPS):
            ping.set()
            pong.wait()
            pong.clear()
        t.join()

    def burst(self) -> int:
        """Time the kernel; returns the index of the window that
        starts now."""
        times = [timed(self._kernel)[1] for _ in range(self.REPS)]
        self.bursts.append((time.perf_counter(), float(np.median(times))))
        return len(self.bursts) - 1

    def window(self, period_s: float) -> int:
        """The current window, opening a new one (with a burst) when
        the last burst is older than ``period_s``."""
        if (not self.bursts
                or time.perf_counter() - self.bursts[-1][0] >= period_s):
            return self.burst()
        return len(self.bursts) - 1

    def factor(self, window: int) -> float:
        """Nominal over measured kernel time around ``window``."""
        around = [t for _, t in self.bursts[window:window + 2]]
        return self.nominal_s / float(np.mean(around))


#: Timings by group (family, or ``"all"``), each tagged with its window.
Samples = dict[str, list[tuple[int, float]]]


@dataclass
class Served:
    """One client-observed served request."""

    window: int
    latency: float
    batch: bool
    wait: float
    service: float
    coalesced: bool
    attempts: int


@dataclass
class Phase:
    """What one timed phase measured (seconds throughout).

    ``rates`` holds, for the serve workloads, each window's completed
    requests per second; the others derive throughput from
    ``primary``.
    """

    primary: Samples
    secondary: Samples
    planner: Counter[str]
    rates: list[tuple[int, float]] | None = None
    served: list[Served] | None = None


def unscaled(window: int) -> float:
    """The factor that leaves a timing as measured."""
    return 1.0


def end_to_end(setup: list[tuple[int, float]], phase: Phase,
               factor: Callable[[int], float]) -> dict[str, float]:
    """The ``end_to_end`` metrics of one untraced run, every timing
    multiplied by ``factor(window)`` (``HostReference.factor``, or
    :func:`unscaled`).

    Family-averaged values are the mean over families of a per-family
    statistic: the median for ``latency_ms`` and ``secondary_ms``, the
    90th percentile for ``tail_ms``.
    """

    def scaled(samples: list[tuple[int, float]]) -> list[float]:
        return [dt * factor(w) for w, dt in samples]

    primary = {g: scaled(s) for g, s in phase.primary.items()}
    secondary = {g: scaled(s) for g, s in phase.secondary.items()}
    if phase.rates is not None:
        throughput = float(np.median([r / factor(w)
                                      for w, r in phase.rates]))
    else:
        pooled = [x for xs in primary.values() for x in xs]
        throughput = len(pooled) / sum(pooled)
    return {
        "setup_s": float(np.median(scaled(setup))),
        "latency_ms": family_mean(primary, 50.0) * 1e3,
        "tail_ms": family_mean(primary, 90.0) * 1e3,
        "secondary_ms": family_mean(secondary, 50.0) * 1e3,
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss_mb(),
    }


def family_mean(groups: dict[str, list[float]], pct: float) -> float:
    return float(np.mean([percentile(xs, pct) for xs in groups.values()]))


class Workload:
    name = ""
    full_n = 0
    #: The ``HostReference`` kernel that scales this workload's times.
    reference = "py"
    #: How many times a cheap set-up is repeated from scratch, so that
    #: ``setup_s`` is the median of more units.
    setup_repeats = 1

    def __init__(self, run: Run) -> None:
        self.run = run
        self.n = run.size(self.full_n)
        self.ref = HostReference(self.reference, run.seed)

    def setup(self) -> list[tuple[int, float]]:
        """Prepare every permutation; one (window, seconds) each."""
        units = []
        for _ in range(self.setup_repeats):
            self._reset()
            for item in self._items():
                window = self.ref.burst()
                units.append((window,
                              timed(lambda: self._prepare(item))[1]))
        self.ref.burst()
        return units

    def _reset(self) -> None:
        """Start a set-up from scratch."""

    def _items(self) -> list[Any]:
        raise NotImplementedError

    def _prepare(self, item: Any) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, tracer: Any) -> Phase:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdPlan(Workload):
    """n = 2^18: a cold request from an empty ``cache_dir`` per family,
    then ``FIRST_REPS`` fresh planners served from its sealed sidecar."""

    name = "cold-plan"
    full_n = 2**18
    setup_repeats = 5

    def _reset(self) -> None:
        self.inputs: dict[str, tuple] = {}

    def _items(self) -> list[Any]:
        return list(FAMILIES)

    def _prepare(self, family: str) -> None:
        p = family_permutation(family, self.n, self.run.seed)
        a = self.run.payload(self.n)
        self.inputs[family] = (p, a, scatter(p, a))

    def phase(self, seconds: float, tracer: Any) -> Phase:
        run = self.run
        cold: Samples = {f: [] for f in FAMILIES}
        first: Samples = {f: [] for f in FAMILIES}
        counts: Counter[str] = Counter()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            for family in FAMILIES:
                p, a, expected = self.inputs[family]
                cache = run.workdir / f"cold-{rounds}-{family}"

                def request() -> tuple[Planner, np.ndarray]:
                    planner = Planner(cache_dir=cache)
                    compiled = planner.compile(p, engine=ENGINE,
                                               width=WIDTH)
                    return planner, compiled.apply(a)

                window = self.ref.burst()
                (planner, out), dt = timed(
                    request, tracer, "cold_request", family=family,
                    sample=run.sample_id())
                run.check(out, expected)
                cold[family].append((window, dt))
                counts += planner_counts(planner)
                window = self.ref.burst()
                for _ in range(FIRST_REPS):
                    (planner, out), dt = timed(
                        request, tracer, "first_request",
                        family=family, sample=run.sample_id())
                    run.check(out, expected)
                    first[family].append((window, dt))
                    counts += planner_counts(planner)
                shutil.rmtree(cache)
            rounds += 1
        self.ref.burst()
        return Phase(primary=cold, secondary=first, planner=counts)


class WarmApply(Workload):
    """n = 2^20: compiled once in set-up, then single sealed applies
    and ``k = 8`` batch applies, families round-robin."""

    name = "warm-apply"
    full_n = 2**20
    reference = "np"

    def _reset(self) -> None:
        self.planner = Planner()
        self.inputs: dict[str, tuple] = {}

    def _items(self) -> list[Any]:
        return list(FAMILIES)

    def _prepare(self, family: str) -> None:
        p = family_permutation(family, self.n, self.run.seed)
        a = self.run.payload(self.n)
        expected = scatter(p, a)
        compiled = self.planner.compile(p, engine=ENGINE, width=WIDTH)
        self.run.check(compiled.apply(a), expected)
        offsets = np.arange(APPLY_BATCH_K, dtype=np.float32)[:, None]
        self.inputs[family] = (compiled, a, expected, a + offsets)

    def phase(self, seconds: float, tracer: Any) -> Phase:
        run = self.run
        before = planner_counts(self.planner)
        single: Samples = {f: [] for f in FAMILIES}
        batch: Samples = {f: [] for f in FAMILIES}
        offsets = np.arange(APPLY_BATCH_K, dtype=np.float32)[:, None]
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            window = self.ref.window(REFERENCE_PERIOD_S)
            for family in FAMILIES:
                compiled, a, expected, stacked = self.inputs[family]
                out, dt = timed(lambda: compiled.apply(a), tracer,
                                "warm_apply", family=family,
                                sample=run.sample_id())
                run.check(out, expected)
                single[family].append((window, dt))
            if rounds % BATCH_EVERY_ROUNDS == 0:
                for family in FAMILIES:
                    compiled, a, expected, stacked = self.inputs[family]
                    out, dt = timed(
                        lambda: compiled.apply_batch(stacked), tracer,
                        "warm_batch_apply", family=family,
                        sample=run.sample_id())
                    # Row j of the batch is a + j, so its scatter is
                    # the scatter of a, plus j.
                    run.check(out, expected[None, :] + offsets)
                    batch[family].append((window, dt))
            rounds += 1
        self.ref.burst()
        return Phase(primary=single, secondary=batch,
                     planner=planner_counts(self.planner) - before)


@dataclass
class Registration:
    """A served permutation with its payload pool and expected outputs."""

    p: np.ndarray
    payloads: list[np.ndarray]
    expected: list[np.ndarray]
    batch: np.ndarray
    batch_expected: np.ndarray

    @classmethod
    def build(cls, run: Run, p: np.ndarray) -> Registration:
        payloads = [run.payload(int(p.shape[0]))
                    for _ in range(PAYLOAD_POOL)]
        batch = np.stack(payloads[:SERVE_BATCH_K])
        return cls(p, payloads, [scatter(p, a) for a in payloads], batch,
                   scatter(p, batch))


def rotations(names: list[str]) -> list[list[str]]:
    """Client walks over all names, each from its own offset."""
    return [names[c:] + names[:c] for c in range(CLIENTS)]


def serve_loop(run: Run, server: PermutationServer,
               regs: dict[str, Registration], walks: list[list[str]],
               seconds: float, tracer: Any,
               window: int = -1) -> tuple[list[Served], float]:
    """Closed loop: client ``c`` cycles through ``walks[c]``, waiting
    for every reply; every ``SERVE_BATCH_EVERY``-th request is a batch.
    Returns the served requests and the loop's wall-clock length."""
    start = time.perf_counter()
    stop = start + seconds
    results: list[list[Served]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def client(c: int) -> None:
        walk = walks[c]
        i = 0
        try:
            while time.perf_counter() < stop:
                name = walk[i % len(walk)]
                reg = regs[name]
                is_batch = i % SERVE_BATCH_EVERY == SERVE_BATCH_EVERY - 1
                if is_batch:
                    payload, expected = reg.batch, reg.batch_expected
                else:
                    k = i % len(reg.payloads)
                    payload, expected = reg.payloads[k], reg.expected[k]
                i += 1

                def request() -> Any:
                    res = server.submit(name, payload, batch=is_batch,
                                        deadline_s=SERVE_DEADLINE_S)
                    res.result(timeout=60.0)
                    return res

                try:
                    res, latency = timed(
                        request, tracer, "serve.request", client=c,
                        registration=name, batch=is_batch,
                        sample=run.sample_id())
                except ReproError:
                    run.error()
                    continue
                run.check(res.result(), expected)
                results[c].append(Served(
                    window=window, latency=latency, batch=is_batch,
                    wait=res.wait_s, service=res.service_s,
                    coalesced=res.coalesced, attempts=res.attempts))
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [s for rs in results for s in rs], time.perf_counter() - start


class _Serve(Workload):
    reference = "thr"

    def _server(self) -> PermutationServer:
        raise NotImplementedError

    def _walks(self) -> list[list[str]]:
        return rotations(list(self.regs))

    def _reset(self) -> None:
        self.close()
        self.server = self._server()
        self.regs: dict[str, Registration] = {}

    def setup(self) -> list[tuple[int, float]]:
        units = super().setup()
        warmup = WARMUP_S / 10 if self.run.quick else WARMUP_S
        serve_loop(self.run, self.server, self.regs, self._walks(),
                   warmup, None)
        return units

    def _prepare(self, item: tuple[str, np.ndarray]) -> None:
        name, p = item
        reg = Registration.build(self.run, p)
        self.server.register(name, p, engine=ENGINE)
        self.run.check(self.server.apply(name, reg.payloads[0]),
                       reg.expected[0])
        self.regs[name] = reg

    def phase(self, seconds: float, tracer: Any) -> Phase:
        """Closed-loop windows of ``SERVE_WINDOW_S``, each opened by a
        host-reference burst (taken while no request is in flight)."""
        planner = self.server.service.planner
        before = planner_counts(planner)
        served: list[Served] = []
        rates: list[tuple[int, float]] = []
        window_s = min(SERVE_WINDOW_S, seconds)
        start = time.perf_counter()
        while not rates or time.perf_counter() - start < seconds:
            window = self.ref.burst()
            got, elapsed = serve_loop(self.run, self.server, self.regs,
                                      self._walks(), window_s, tracer,
                                      window)
            served += got
            rates.append((window, len(got) / elapsed))
        self.ref.burst()
        return Phase(
            primary={"all": [(s.window, s.latency) for s in served
                             if not s.batch]},
            secondary={"all": [(s.window, s.latency) for s in served
                               if s.batch]},
            planner=planner_counts(planner) - before,
            rates=rates,
            served=served,
        )

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()


class ServeHot(_Serve):
    """n = 1024, the three families resident in the memory tier."""

    name = "serve-hot"
    full_n = 1024
    setup_repeats = 5

    def _items(self) -> list[Any]:
        return [(f, family_permutation(f, self.n, self.run.seed))
                for f in FAMILIES]

    def _server(self) -> PermutationServer:
        return PermutationServer(width=WIDTH, workers=WORKERS)


class ServeChurn(_Serve):
    """n = 2^14: 16 random permutations behind a 4-entry memory tier
    backed by a disk cache, so requests resolve through the sealed
    sidecars."""

    name = "serve-churn"
    full_n = 2**14

    def _items(self) -> list[Any]:
        return [(f"random-{i:02d}",
                 random_permutation(self.n, seed=self.run.seed + 5 + i))
                for i in range(CHURN_NAMES)]

    def _server(self) -> PermutationServer:
        service = PermutationService(
            width=WIDTH, cache_size=CHURN_CACHE_SIZE,
            cache_dir=self.run.workdir / "plans")
        return PermutationServer(service, workers=WORKERS)

    def _walks(self) -> list[list[str]]:
        # Disjoint halves: one client never re-requests a plan the
        # other just loaded, so the memory tier stays a miss.
        names = list(self.regs)
        return [names[c::CLIENTS] for c in range(CLIENTS)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ColdPlan, WarmApply, ServeHot, ServeChurn)
}
