"""The compiled Euler split against its NumPy reference.

``_split_levels`` runs the C kernel (``_split.c``) when it loaded and
``_split_levels_numpy`` otherwise.  Both must return the same array,
dtype and all, on every input the colouring makes, the graphs the
planner colours on its NumPy route included; a patched copy of the
kernel that breaks a partition must fail that parity check, and the
one on the plan its fused entry points build
(``tests/coloring/test_fused_split.py`` makes it of the loaded
kernel); the compiled kernel must refuse malformed
input with a ``ColoringError`` instead of crashing; and a broken cached
library or a failed build must leave the NumPy split in charge, never a
dead process.  The loader tests run for both compiled libraries (this
one and the sealed gather's), which share one loader.
"""

import hashlib
from collections.abc import Callable
from types import ModuleType
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.coloring import euler
from repro.coloring.euler import (
    _split_levels,
    _split_levels_numpy,
    edge_coloring,
)
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from repro.core import rowwise, scheduler
from repro.core.scheduled import ScheduledPermutation
from repro.errors import ColoringError, ReproError
from repro.exec import sealed as sealed_exec
from repro.exec.sealed import SealedExecutor
from repro.ir.sealed import SealedProgram
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.util import native as loader
from tests.conftest import plan_arrays, same_arrays

native = pytest.mark.skipif(
    not euler.NATIVE, reason="no compiled kernel: NumPy is the only split"
)


def _regular(nodes, degree, seed, shuffle=True):
    """A ``degree``-regular multigraph; parallel edges (and, on one
    node, 2-cycles) come from the random layers."""
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    if shuffle:
        order = rng.permutation(left.shape[0])
        left, right = left[order], right[order]
    return left, right


def _assert_same(left, right, nodes, degree, levels):
    got = _split_levels(left, right, nodes, degree, levels)
    want = _split_levels_numpy(left, right, nodes, degree, levels)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    return got


_PLANNER_FAMILIES = {
    "bit-reversal": bit_reversal,
    "random": lambda n: random_permutation(n, seed=11),
    "transpose": transpose_permutation,
}


def _planner_splits(family, log_n):
    """The arguments of every split a ``width = 32`` plan runs on the
    planner's graphs, planned on the NumPy route (the kernel unloaded,
    so the planner builds each graph and runs ``edge_coloring``).  The
    planner colours an affine permutation (bit reversal, transpose) in
    closed form, so its graphs are built and split here with the affine
    detection switched off, as the planner builds them for every other
    permutation."""
    calls = []

    def record(*args):
        calls.append(args)
        return _split_levels(*args)

    p = _PLANNER_FAMILIES[family](1 << log_n)
    with mock.patch.object(euler, "_split_levels", side_effect=record), \
            mock.patch.object(euler, "_KERNEL", None), \
            mock.patch.object(scheduler, "detect_affine", return_value=None), \
            mock.patch.object(rowwise, "detect_affine", return_value=None):
        ScheduledPermutation.plan(p, width=32)
    return calls


@native
class TestBitIdentical:
    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([1, 1, 3, 5]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
        st.data(),
    )
    def test_property_equals_numpy(self, nodes, log_degree, odd, seed,
                                   shuffle, data):
        degree = odd << log_degree
        left, right = _regular(nodes, degree, seed, shuffle)
        levels = data.draw(st.integers(min_value=0, max_value=log_degree))
        _assert_same(left, right, nodes, degree, levels)

    @pytest.mark.parametrize("log_degree", range(10))
    def test_power_of_two_degrees(self, log_degree):
        degree = 1 << log_degree
        nodes = 8 if degree >= 64 else 37
        left, right = _regular(nodes, degree, seed=log_degree)
        _assert_same(left, right, nodes, degree, log_degree)

    def test_parallel_edges_and_two_cycles(self):
        zeros = np.zeros(64, dtype=np.int64)
        _assert_same(zeros, zeros, 1, 64, 6)
        pairs = np.repeat(np.arange(5, dtype=np.int64), 2)
        _assert_same(pairs, pairs, 5, 2, 1)

    def test_node_ids_wider_than_16_bits(self):
        left, right = _regular(70_000, 4, seed=8)
        assert left.max() >= 1 << 16
        _assert_same(left, right, 70_000, 4, 2)

    @pytest.mark.parametrize("degree", [3, 5, 6, 10, 12, 20, 24])
    def test_stacked_odd_degree_graphs(self, degree):
        """Every graph ``_color`` splits, the stacked remainders of the
        odd step included, gets the NumPy split's prefixes."""
        left, right = _regular(29, degree, seed=degree)
        calls = []

        def record(*args):
            calls.append(args)
            return _split_levels(*args)

        graph = RegularBipartiteMultigraph(left, right, 29, 29)
        with mock.patch.object(euler, "_split_levels", side_effect=record):
            colors = edge_coloring(graph)
        verify_edge_coloring(graph, colors, expect_colors=degree)
        assert len(calls) > 1
        # With an even factor, the odd step's graphs are stacked ones.
        assert any(call[2] > 29 for call in calls) == (degree % 2 == 0)
        for args in calls:
            _assert_same(*args)

    def test_node_count_not_a_power_of_two(self):
        """37 nodes: no block of any level has a power-of-two size."""
        left, right = _regular(37, 64, seed=37)
        _assert_same(left, right, 37, 64, 6)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_copy_graph_one_long_cycle(self, shuffle):
        """Left node u holds edges 2u and 2u+1 and right node u edges
        2u+1 and 2u+2 (mod E), so the copy graph is one cycle through
        every edge; relabelling the edges keeps it one cycle."""
        nodes = 5000
        edges = np.arange(2 * nodes, dtype=np.int64)
        left, right = edges // 2, ((edges - 1) % (2 * nodes)) // 2
        if shuffle:
            order = np.random.default_rng(5).permutation(2 * nodes)
            left, right = left[order], right[order]
        got = _assert_same(left, right, nodes, 2, 1)
        assert np.count_nonzero(got) == nodes

    @pytest.mark.parametrize("log_n", [12, 14])
    @pytest.mark.parametrize("family", sorted(_PLANNER_FAMILIES))
    def test_planner_graphs(self, family, log_n):
        """The global row multigraph and the three stacked bank graphs
        a plan colours on its NumPy route."""
        calls = _planner_splits(family, log_n)
        assert len(calls) == 4
        for args in calls:
            _assert_same(*args)

    def test_empty_graph_and_zero_levels(self):
        empty = np.empty(0, dtype=np.int64)
        assert _assert_same(empty, empty, 0, 0, 0).shape == (0,)
        left, right = _regular(6, 4, seed=1)
        assert not _assert_same(left, right, 6, 4, 0).any()

    def test_any_integer_dtype_and_layout(self):
        left, right = _regular(16, 8, seed=2)
        want = _split_levels_numpy(left, right, 16, 8, 3)
        # Strided int32 columns: the wrapper converts, the kernel never
        # sees them.
        pairs = np.stack([left, right], axis=1).astype(np.int32)
        got = _split_levels(pairs[:, 0], pairs[:, 1], 16, 8, 3)
        assert np.array_equal(got, want)


@native
class TestRefusesMalformedInput:
    @pytest.mark.parametrize("left, right, nodes, degree, levels", [
        ([0, 0, 1, 1], [0, 0, 0, 1], 2, 2, 1),     # right node 0: 3 edges
        ([0, 0, 1, 2], [0, 1, 0, 1], 2, 2, 1),     # left node 2 >= N
        ([0, 0, 1, -1], [0, 1, 0, 1], 2, 2, 1),    # negative node id
        ([0, 0, 1, 1], [0, 1, 0, 1], 3, 2, 1),     # E != N * D
        ([0, 0, 1, 1], [0, 1, 0, 1], 2, 2, 2),     # 2**levels not dividing D
    ])
    def test_raises_coloring_error(self, left, right, nodes, degree,
                                   levels):
        left = np.array(left, dtype=np.int64)
        right = np.array(right, dtype=np.int64)
        with pytest.raises(ColoringError):
            _split_levels(left, right, nodes, degree, levels)

    def test_unequal_edge_arrays(self):
        left = np.zeros(4, dtype=np.int64)
        with pytest.raises(ColoringError):
            _split_levels(left, left[:2], 2, 2, 1)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from([2, 4, 8]),
        st.data(),
    )
    def test_property_arbitrary_edges_never_crash(self, nodes, degree,
                                                   data):
        """Any node ids at all: a ``ColoringError``, or — when the
        drawn graph happens to be regular — the NumPy split's answer."""
        ids = st.lists(st.integers(min_value=-2, max_value=nodes + 1),
                       min_size=nodes * degree, max_size=nodes * degree)
        left = np.array(data.draw(ids), dtype=np.int64)
        right = np.array(data.draw(ids), dtype=np.int64)
        levels = (degree & -degree).bit_length() - 1
        try:
            got = _split_levels(left, right, nodes, degree, levels)
        except ColoringError:
            return
        assert np.array_equal(
            got, _split_levels_numpy(left, right, nodes, degree, levels)
        )


#: A kernel that breaks a partition, and the edit that makes it.
_MUTANTS = {
    # The side without the cycle's least edge takes the lower half.
    "lower-upper-inverted": [
        ("if (least_b < least_a)", "if (least_b > least_a)"),
    ],
    # The halves keep the parent block's right keys.
    "keys-not-halved": [
        ("lower->right >> 1", "lower->right"),
        ("upper->right >> 1", "upper->right"),
    ],
}


def _splits_agree(kernel):
    """Whether the library ``kernel`` returns the NumPy split's prefixes
    on the planner's graphs and on a multigraph with parallel edges:
    the parity check ``TestBitIdentical`` makes of the loaded kernel."""
    graphs = [*_planner_splits("random", 12),
              (*_regular(37, 64, seed=37), 37, 64, 6)]
    for left, right, nodes, degree, levels in graphs:
        sub = np.zeros(left.shape[0], dtype=np.int32)
        status = kernel.split_levels(
            np.ascontiguousarray(left, dtype=np.int64),
            np.ascontiguousarray(right, dtype=np.int64),
            left.shape[0], nodes, degree, levels, sub)
        want = _split_levels_numpy(left, right, nodes, degree, levels)
        if status != 0 or not np.array_equal(sub, want):
            return False
    return True


def _fused_plan_agrees(kernel):
    """Whether the library ``kernel`` plans a random permutation through
    ``split_rows`` and ``split_global`` as the NumPy route does: the
    parity check ``test_fused_split.py`` makes of the loaded kernel."""
    p = random_permutation(1 << 12, seed=11)
    with mock.patch.object(euler, "_KERNEL", None):
        want = plan_arrays(ScheduledPermutation.plan(p, width=8))
    with mock.patch.object(euler, "_KERNEL", kernel):
        try:
            got = plan_arrays(ScheduledPermutation.plan(p, width=8))
        except ReproError:
            return False
    return same_arrays(got, want)


@native
class TestMutantKernels:
    """A kernel that breaks a partition cannot pass this file."""

    def _build(self, tmp_path, edits):
        source = euler._SOURCE.read_text()
        for old, new in edits:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        patched = tmp_path / "_split.c"
        patched.write_text(source)
        kernel = loader.load_library(patched, euler._SIGNATURES,
                                     tmp_path / "cache")
        assert kernel is not None
        return kernel

    def test_unpatched_copy_agrees(self, tmp_path):
        kernel = self._build(tmp_path, [])
        assert _splits_agree(kernel)
        assert _fused_plan_agrees(kernel)

    @pytest.mark.parametrize("mutant", sorted(_MUTANTS))
    def test_mutant_is_refused(self, tmp_path, mutant):
        """By each parity check: every entry point shares the split."""
        kernel = self._build(tmp_path, _MUTANTS[mutant])
        assert not _splits_agree(kernel)
        assert not _fused_plan_agrees(kernel)


def _split_works(kernel):
    left, right = _regular(12, 8, seed=4)
    sub = np.zeros(left.shape[0], dtype=np.int32)
    assert kernel.split_levels(left, right, left.shape[0], 12, 8, 3,
                               sub) == 0
    return np.array_equal(sub, _split_levels_numpy(left, right, 12, 8, 3))


def _gather_works(kernel):
    index = np.random.default_rng(4).permutation(64)
    src = np.arange(64.0)[None]
    out = np.empty_like(src)
    walk = np.array([64, 1], dtype=np.int64)
    status = kernel.gather_rows(src.ctypes.data, src.strides[0],
                                out.ctypes.data, 1, 64, index.ctypes.data,
                                1, walk.ctypes.data, 8)
    return status == -1 and np.array_equal(out[0], src[0, index])


def _split_falls_back(monkeypatch):
    monkeypatch.setattr(euler, "_KERNEL", None)
    left, right = _regular(10, 8, seed=6)
    with mock.patch.object(
        euler, "_split_levels_numpy", wraps=_split_levels_numpy
    ) as numpy_split:
        got = euler._split_levels(left, right, 10, 8, 3)
    assert numpy_split.call_count == 1
    assert np.array_equal(got, _split_levels_numpy(left, right, 10, 8, 3))


def _gather_falls_back(monkeypatch):
    monkeypatch.setattr(sealed_exec, "_KERNEL", None)
    n = sealed_exec.NATIVE_MIN_N
    p = np.random.default_rng(6).permutation(n)
    a = np.arange(n, dtype=np.float32)
    with mock.patch.object(sealed_exec, "_gather_native") as kernel_path:
        got = SealedExecutor().run(SealedProgram("x", 32, p), a)
    assert kernel_path.call_count == 0
    want = np.empty_like(a)
    want[p] = a
    assert np.array_equal(got, want)


class _Kernel(NamedTuple):
    module: ModuleType
    symbol: str
    works: Callable
    falls_back: Callable

    def load(self, cache_dir):
        return loader.load_library(self.module._SOURCE,
                                   self.module._SIGNATURES, cache_dir)

    def path(self, cache_dir):
        return loader.library_path(self.module._SOURCE, cache_dir)


_KERNELS = {
    "split": _Kernel(euler, "split_levels", _split_works,
                     _split_falls_back),
    "gather": _Kernel(sealed_exec, "gather_rows", _gather_works,
                      _gather_falls_back),
}


@pytest.fixture(params=sorted(_KERNELS))
def kernel(request):
    return _KERNELS[request.param]


@pytest.fixture
def compiled(kernel):
    """The kernel, skipped where this process could not build it."""
    if not kernel.module.NATIVE:
        pytest.skip("no compiled kernel: NumPy is the only path")
    return kernel


class TestLoader:
    """The shared loader (:mod:`repro.util.native`), for each kernel."""

    def test_builds_into_an_empty_cache(self, compiled, tmp_path):
        loaded = compiled.load(tmp_path)
        assert loaded is not None and compiled.works(loaded)
        assert [p.name for p in tmp_path.iterdir()] == [
            compiled.path(tmp_path).name
        ]

    def test_garbage_library_is_rebuilt(self, compiled, tmp_path):
        path = compiled.path(tmp_path)
        path.write_bytes(b"\x7fELF not a library" * 100)
        loaded = compiled.load(tmp_path)
        assert loaded is not None and compiled.works(loaded)
        assert not path.read_bytes().startswith(b"\x7fELF not")

    def test_truncated_library_is_rebuilt(self, compiled, tmp_path):
        """A cut-off library is never mapped: loading one can end the
        process with SIGBUS."""
        good = tmp_path / "good"
        good.mkdir()
        assert loader.build(compiled.module._SOURCE, compiled.path(good))
        whole = compiled.path(good).read_bytes()
        for cut in (len(whole) // 2, len(whole) - 40, len(whole) - 1):
            # A fresh directory per cut: the dynamic loader caches
            # handles by path.
            fresh = tmp_path / f"cut-{cut}"
            fresh.mkdir()
            target = compiled.path(fresh)
            target.write_bytes(whole[:cut])
            loaded = compiled.load(fresh)
            assert loaded is not None and compiled.works(loaded)
            assert target.stat().st_size == len(whole)

    def test_sha256_trailer_is_checked(self, compiled, tmp_path):
        """A whole library whose trailer does not match its bytes is
        refused unopened and rebuilt."""
        good = tmp_path / "good"
        good.mkdir()
        assert loader.build(compiled.module._SOURCE, compiled.path(good))
        whole = compiled.path(good).read_bytes()
        assert whole[-32:] == hashlib.sha256(whole[:-32]).digest()
        fresh = tmp_path / "forged"
        fresh.mkdir()
        target = compiled.path(fresh)
        target.write_bytes(whole[:-1] + bytes([whole[-1] ^ 1]))
        assert loader.open_library(target, [compiled.symbol]) is None
        loaded = compiled.load(fresh)
        assert loaded is not None and compiled.works(loaded)
        rebuilt = target.read_bytes()
        assert rebuilt[-32:] == hashlib.sha256(rebuilt[:-32]).digest()

    def test_truncated_library_without_compiler_falls_back(
        self, kernel, tmp_path, monkeypatch
    ):
        kernel.path(tmp_path).write_bytes(b"\x7fELF" + bytes(64))
        monkeypatch.setattr(loader, "build", lambda source, target: False)
        assert kernel.load(tmp_path) is None

    def test_missing_compiler_fails_the_build_cleanly(
        self, kernel, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        assert loader.build(kernel.module._SOURCE,
                            kernel.path(tmp_path)) is False
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_cache_falls_back(self, kernel, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        assert kernel.load(blocker / "cache") is None

    def test_failed_build_selects_numpy(self, kernel, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(loader, "build", lambda source, target: False)
        assert kernel.load(tmp_path) is None
        kernel.falls_back(monkeypatch)


class TestTelemetry:
    def _kernel_attribute(self):
        left, right = _regular(8, 4, seed=0)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            edge_coloring(RegularBipartiteMultigraph(left, right, 8, 8))
        (span,) = tracer.find("coloring.euler")
        return span.attributes["kernel"]

    def test_span_names_the_kernel(self):
        assert self._kernel_attribute() == (
            "native" if euler.NATIVE else "numpy"
        )

    def test_span_names_numpy_without_the_library(self, monkeypatch):
        monkeypatch.setattr(euler, "_KERNEL", None)
        assert self._kernel_attribute() == "numpy"
