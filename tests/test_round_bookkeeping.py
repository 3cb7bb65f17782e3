"""The bookkeeping around each BFS/SSSP/CC round.

Four host-side pieces run once per round next to the kernel: the cost
model's ``bmv_stats`` (memoized per sweep plan), ``KernelStats +=`` (in
place), ``run_starts`` (one pass) and the set-bit gather's order check
``_order_free`` (one minimum first).  Each must give exactly what its
old form gave: every ``KernelStats`` field bit for bit, the same run
starts and dtype, the same order verdict.  The old bodies are copied
below as oracles.  The engines' zero-column batches are checked here
too: both backends return an ``(n, 0)`` result and record no launch.
"""

import copy
import gc
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    connected_components,
    multi_source_bfs,
    multi_source_sssp,
    sssp,
)
from repro.bench.harness import suite_subset
from repro.bitops.segreduce import run_starts
from repro.datasets.generators import (
    hybrid_pattern,
    rmat_graph,
    road_pattern,
)
from repro.engines import BitEngine, GraphBLASTEngine
from repro.engines import bit as bit_engine
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import GTX1080, TITAN_V
from repro.kernels import costmodel
from repro.kernels.bmv import _order_free
from repro.kernels.costmodel import BMV_SCHEMES, bmv_stats
from repro.semiring import MIN_PLUS

FLOAT_FIELDS = (
    "dram_bytes", "l2_bytes", "l1_bytes", "warp_instructions",
    "sync_intrinsics", "atomics", "flops", "host_us", "min_compute_us",
)


def stats_bits(s: KernelStats) -> tuple:
    """Every field of ``s``, floats as their raw IEEE bytes (so ``-0.0``
    and NaN payloads compare exactly)."""
    return (
        type(s.launches), s.launches, s.tag,
        *(struct.pack("<d", getattr(s, f)) for f in FLOAT_FIELDS),
    )


def formula(A, scheme, device, *, locality=0.5, k=1, value_bytes=4.0,
            active_tiles=None):
    """The cost formula without the memo."""
    return costmodel._bmv_stats(
        A, scheme, device, locality, k, value_bytes, active_tiles
    )


def memo_of(A) -> dict:
    """The matrix's ``bmv_stats`` memo entries (empty if it has none)."""
    return costmodel._BMV_STATS_MEMO.get(A.plan(), {})


# ----------------------------------------------------------------------
# bmv_stats memo
# ----------------------------------------------------------------------
def random_b2sr(n: int, d: int, seed: int):
    rng = np.random.default_rng(seed)
    return b2sr_from_dense((rng.random((n, n)) < 0.1).astype(np.float32), d)


@st.composite
def bmv_arguments(draw):
    d = draw(st.sampled_from(TILE_DIMS))
    k = draw(st.sampled_from((1, d, 2 * d + 3)))
    A = random_b2sr(draw(st.integers(1, 90)), d, draw(st.integers(0, 999)))
    visits = A.n_tiles * -(-k // d)
    active = draw(
        st.sampled_from(
            (None, 0, 0.0, float(visits // 2), float(visits), visits)
        )
    )
    kwargs = dict(
        locality=draw(st.sampled_from((0.0, 0.25, 0.5, 0.731, 1.0))),
        k=k,
        value_bytes=draw(st.sampled_from((4.0, 8.0))),
        active_tiles=active,
    )
    device = draw(st.sampled_from((GTX1080, TITAN_V)))
    return A, draw(st.sampled_from(BMV_SCHEMES)), device, kwargs


class TestBmvStatsMemo:
    @given(bmv_arguments())
    @settings(max_examples=150, deadline=None)
    def test_miss_and_hit_equal_the_formula(self, args):
        A, scheme, device, kwargs = args
        want = stats_bits(formula(A, scheme, device, **kwargs))
        first = bmv_stats(A, scheme, device, **kwargs)
        assert len(memo_of(A)) == 1
        hit = bmv_stats(A, scheme, device, **kwargs)
        assert len(memo_of(A)) == 1
        assert stats_bits(first) == want
        assert stats_bits(hit) == want

    @given(bmv_arguments())
    @settings(max_examples=60, deadline=None)
    def test_each_call_returns_its_own_copy(self, args):
        A, scheme, device, kwargs = args
        want = stats_bits(formula(A, scheme, device, **kwargs))
        a = bmv_stats(A, scheme, device, **kwargs)
        b = bmv_stats(A, scheme, device, **kwargs)
        assert a is not b
        a += a
        a.dram_bytes = -1.0
        a.tag = "mutated"
        b.launches = 99
        assert stats_bits(bmv_stats(A, scheme, device, **kwargs)) == want

    def test_distinct_arguments_are_distinct_entries(self):
        A = random_b2sr(70, 8, seed=1)
        for k in (1, 8, 19):
            for active in (None, 0.0, 3.0):
                for device in (GTX1080, TITAN_V):
                    got = bmv_stats(
                        A, "bin_full_full", device, k=k, active_tiles=active
                    )
                    assert stats_bits(got) == stats_bits(
                        formula(A, "bin_full_full", device, k=k,
                                active_tiles=active)
                    )
        assert len(memo_of(A)) == 3 * 3 * 2

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(scheme="bin_nope"), "unknown scheme"),
            (dict(k=0), "batch width"),
            (dict(k=-3), "batch width"),
            (dict(active_tiles=-1.0), "active_tiles"),
        ],
    )
    def test_invalid_arguments_raise_on_every_call(self, bad, match):
        A = random_b2sr(40, 8, seed=3)
        bad = dict(bad)
        scheme = bad.pop("scheme", "bin_full_full")
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                bmv_stats(A, scheme, GTX1080, **bad)
        assert memo_of(A) == {}

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(costmodel, "_BMV_STATS_MEMO_ENTRIES", 3)
        A = random_b2sr(70, 8, seed=5)
        for active in range(6):
            for _ in range(2):
                got = bmv_stats(
                    A, "bin_bin_bin", GTX1080, active_tiles=float(active)
                )
                assert stats_bits(got) == stats_bits(
                    formula(A, "bin_bin_bin", GTX1080,
                            active_tiles=float(active))
                )
        assert len(memo_of(A)) == 3

    def test_entries_go_with_the_matrix(self):
        A = random_b2sr(40, 8, seed=6)
        bmv_stats(A, "bin_bin_bin", GTX1080)
        plan = weakref.ref(A.plan())
        assert len(costmodel._BMV_STATS_MEMO.get(plan(), {})) == 1
        del A
        gc.collect()
        assert plan() is None


# ----------------------------------------------------------------------
# KernelStats +=
# ----------------------------------------------------------------------
def seed_add(a, b):
    """``KernelStats.__add__`` before it went through ``+=``."""
    return KernelStats(
        launches=a.launches + b.launches,
        dram_bytes=a.dram_bytes + b.dram_bytes,
        l2_bytes=a.l2_bytes + b.l2_bytes,
        l1_bytes=a.l1_bytes + b.l1_bytes,
        warp_instructions=a.warp_instructions + b.warp_instructions,
        sync_intrinsics=a.sync_intrinsics + b.sync_intrinsics,
        atomics=a.atomics + b.atomics,
        flops=a.flops + b.flops,
        host_us=a.host_us + b.host_us,
        min_compute_us=a.min_compute_us + b.min_compute_us,
        tag=a.tag or b.tag,
    )


def seed_iadd(self, other):
    """``KernelStats.__iadd__`` before it added in place."""
    merged = seed_add(self, other)
    self.__dict__.update(merged.__dict__)
    return self


any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def kernel_stats(draw):
    return KernelStats(
        launches=draw(st.integers(0, 10**6)),
        tag=draw(st.sampled_from(("", "a", "bmv_x"))),
        **{f: draw(any_float) for f in FLOAT_FIELDS},
    )


class TestInPlaceAdd:
    @given(kernel_stats(), kernel_stats())
    @settings(max_examples=200, deadline=None)
    def test_equals_seed_add(self, a, b):
        want = stats_bits(seed_add(a, b))
        before = stats_bits(a)
        total = a + b
        assert stats_bits(total) == want
        assert stats_bits(a) == before and total is not a
        acc = copy.copy(a)
        got = acc.__iadd__(b)
        assert got is acc
        assert stats_bits(acc) == want

    @given(kernel_stats())
    @settings(max_examples=100, deadline=None)
    def test_self_add(self, a):
        want = stats_bits(seed_add(a, a))
        a += a
        assert stats_bits(a) == want

    def test_infinities(self):
        a = KernelStats(dram_bytes=np.inf, flops=-np.inf, atomics=1.0)
        b = KernelStats(dram_bytes=1.0, flops=np.inf, atomics=np.inf)
        want = stats_bits(seed_add(a, b))
        a += b
        assert stats_bits(a) == want
        assert a.dram_bytes == np.inf and np.isnan(a.flops)

    def test_tag_keeps_the_first_nonempty(self):
        acc = KernelStats()
        acc += KernelStats(tag="first")
        acc += KernelStats(tag="second")
        assert acc.tag == "first"
        acc = KernelStats(tag="own")
        acc += KernelStats()
        assert acc.tag == "own"

    def test_non_stats_operand_raises(self):
        acc = KernelStats()
        with pytest.raises(TypeError):
            acc += 1.0
        with pytest.raises(TypeError):
            acc + 1.0


# ----------------------------------------------------------------------
# run_starts
# ----------------------------------------------------------------------
def seed_run_starts(keys):
    """``run_starts`` before its one-pass body."""
    k = np.asarray(keys)
    if k.ndim != 1:
        raise ValueError(f"expected 1-D keys, got shape {k.shape}")
    if k.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.r_[
        np.int64(0), np.nonzero(k[1:] != k[:-1])[0].astype(np.int64) + 1
    ]


def key_cases():
    rng = np.random.default_rng(11)
    yield "empty", np.zeros(0, dtype=np.int64)
    yield "one", np.array([7])
    yield "all-equal", np.full(50, 3, dtype=np.int64)
    yield "all-distinct", np.arange(64)
    yield "int8", np.sort(rng.integers(-128, 128, 300).astype(np.int8))
    yield "int64", np.sort(rng.integers(0, 200, 391))
    yield "intp-rows", np.sort(rng.integers(0, 512, 1006).astype(np.intp))
    f = np.sort(rng.integers(0, 9, 120)).astype(np.float64)
    f[40:47] = np.nan
    f[90:92] = np.nan
    yield "float64-nan-runs", f
    yield "float64-signed-zeros", np.array([-0.0, 0.0, 0.0, -0.0, 1.0])
    base = np.sort(rng.integers(0, 30, 400))
    yield "strided", base[::3]
    yield "reversed", base[::-1]
    yield "column-of-2d", np.sort(rng.integers(0, 5, (60, 4)), axis=0)[:, 2]


class TestRunStarts:
    @pytest.mark.parametrize(
        "keys", [k for _, k in key_cases()], ids=[n for n, _ in key_cases()]
    )
    def test_matches_seed_body(self, keys):
        want = seed_run_starts(keys)
        got = run_starts(keys)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    @given(
        st.lists(st.integers(-5, 5), max_size=80),
        st.sampled_from((np.int8, np.int32, np.int64, np.float32)),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_sorted_keys(self, values, dtype):
        keys = np.sort(np.array(values, dtype=dtype))
        got = run_starts(keys)
        want = seed_run_starts(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            run_starts(np.zeros((2, 3)))


# ----------------------------------------------------------------------
# _order_free
# ----------------------------------------------------------------------
def seed_order_free(m):
    """``_order_free`` before it looked at the minimum first."""
    return not (np.isnan(m).any() or (np.signbit(m) & (m == 0)).any())


SPECIAL = (np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, -2.5, -1.0, 1.0,
           2.0, 7.5)


class TestOrderFree:
    @given(
        st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=40),
        st.sampled_from((np.float32, np.float64)),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_seed_body(self, values, dtype, two_d):
        m = np.array(values, dtype=dtype)
        if two_d and m.size % 2 == 0:
            m = m.reshape(-1, 2)
        assert _order_free(m) is seed_order_free(m)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "values, want",
        [
            ([1.0, 2.0, np.inf], True),  # SSSP's x + 1: minimum above 0
            ([0.0, 3.0, 5.0], True),  # CC's labels: minimum 0, no -0.0
            ([3.0, -0.0, 5.0], False),
            ([0.0, -0.0], False),
            ([-0.0, 0.0], False),
            ([-1.0, 0.0, 2.0], True),
            ([-1.0, -0.0, 2.0], False),
            ([2.0, np.nan], False),
            ([-np.inf, 4.0], True),
            ([np.inf, np.inf], True),
        ],
    )
    def test_cases(self, values, want, dtype):
        for m in (np.array(values, dtype=dtype),
                  np.array(values * 2, dtype=dtype).reshape(2, -1).T):
            assert _order_free(m) is want
            assert seed_order_free(m) is want


# ----------------------------------------------------------------------
# Zero-column batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [BitEngine, GraphBLASTEngine])
class TestEmptyBatch:
    def test_expand_and_pull_return_empty_and_record_nothing(
        self, engine_cls
    ):
        g = hybrid_pattern(64, seed=1)
        engine = engine_cls(g)
        empty = np.zeros((g.n, 0), dtype=bool)
        y = engine.frontier_expand_multi(empty, empty)
        assert y.shape == (g.n, 0) and y.dtype == bool
        p = engine.pull_multi(np.zeros((g.n, 0), np.float32), MIN_PLUS)
        assert p.shape == (g.n, 0) and p.dtype == np.float32
        assert stats_bits(engine.kernel_stats) == stats_bits(KernelStats())
        assert stats_bits(engine.algorithm_stats) == stats_bits(
            KernelStats()
        )


# ----------------------------------------------------------------------
# End to end: the algorithms' reports with and without the memo
# ----------------------------------------------------------------------
GRAPHS = [(e.name, e.build) for e in suite_subset(8, max_n=512)] + [
    ("hybrid", lambda: hybrid_pattern(512, seed=4)),
    ("rmat", lambda: rmat_graph(11)),
    ("road", lambda: road_pattern(1024)),
]


def runs(g, d):
    """Each algorithm's ``(answer, report)`` on fresh engines."""
    sources = np.unique(np.arange(5) * 37 % g.n)
    engine = BitEngine(g, tile_dim=d)
    cc_engine = BitEngine(g.symmetrized(), tile_dim=d)
    return [
        sssp(engine, int(sources[0])),
        multi_source_sssp(engine, sources),
        multi_source_bfs(engine, sources),
        connected_components(cc_engine),
    ]


def report_bits(report) -> tuple:
    return (
        report.iterations,
        stats_bits(report.algorithm_stats),
        stats_bits(report.kernel_stats),
    )


class TestReportsUnchanged:
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize(
        "build", [b for _, b in GRAPHS], ids=[name for name, _ in GRAPHS]
    )
    def test_reports_match_unmemoized_run(self, build, d, monkeypatch):
        g = build()
        got = runs(g, d)
        with monkeypatch.context() as patch:
            # The seed bookkeeping: the formula on every call and
            # accumulation through a third object.
            patch.setattr(bit_engine, "bmv_stats", formula)
            patch.setattr(KernelStats, "__iadd__", seed_iadd)
            want = runs(g, d)
        for (ans, rep), (ans_w, rep_w) in zip(got, want, strict=True):
            assert np.array_equal(ans, ans_w)
            assert report_bits(rep) == report_bits(rep_w)
