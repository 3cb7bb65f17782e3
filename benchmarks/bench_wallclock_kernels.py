"""E14 — wall-clock kernel benchmarks (pytest-benchmark).

Honest Python-level timings of the functional kernels against
``scipy.sparse`` equivalents (compiled C).  These numbers do **not**
reproduce the paper's GPU speedups — the modeled-latency benches do that —
they document what the pure-NumPy implementation actually costs on the
host, as EXPERIMENTS.md discusses.

The ``*_planless`` variants time the preserved seed kernels
(:mod:`repro.kernels.planless`), which re-derive the sweep layout and
re-unpack matrix bits on every launch; the plain variants run against the
matrix's warm :class:`~repro.kernels.plan.SweepPlan` — the repeated-launch
regime a serving graph lives in.  ``--json PATH`` writes every measured
median as machine-readable ``BENCH_wallclock_kernels.json`` rows.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    unpack_bitmatrix,
)
from repro.algorithms import multi_source_bfs, multi_source_sssp, sssp
from repro.datasets.generators import (
    block_pattern,
    diagonal_pattern,
    hybrid_pattern,
    rmat_graph,
    road_pattern,
)
from repro.engines import BitEngine
from repro.kernels import planless
from repro.kernels.bmm import bmm_bin_bin_sum
from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_multi_masked,
    bmv_bin_bin_full,
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
)
from repro.kernels.csr_spmv import csr_spmv
from repro.semiring import ARITHMETIC, MIN_PLUS

BENCH = "wallclock_kernels"


def emit_benchmark(json_report, benchmark, case: str, **config) -> None:
    """Record a pytest-benchmark median as a JSON row (no-op when the
    stats are unavailable, e.g. ``--benchmark-disable``)."""
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    median = getattr(stats, "median", None)
    if median is None:
        return
    json_report.emit(
        BENCH, {"case": case, **config}, "median_s", float(median)
    )


@pytest.fixture(scope="module")
def banded():
    g = diagonal_pattern(4096, bandwidth=4, seed=1)
    x = np.random.default_rng(0).random(g.n).astype(np.float32)
    return g, x


@pytest.fixture(scope="module")
def blocky():
    g = block_pattern(2048, block_size=32, seed=2, intra_density=0.5)
    return g


def test_wallclock_bmv_bin_bin_bin(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    xw = pack_bitvector(x, 32)
    benchmark(bmv_bin_bin_bin, A, xw)
    emit_benchmark(json_report, benchmark, "bmv_bin_bin_bin")


def test_wallclock_bmv_bin_bin_full(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    xw = pack_bitvector(x, 32)
    benchmark(bmv_bin_bin_full, A, xw)
    emit_benchmark(json_report, benchmark, "bmv_bin_bin_full")


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("k", [8, 32])
def test_wallclock_bmv_bin_bin_bin_multi_masked(
    benchmark, banded, json_report, k, skip
):
    """Multi-source BFS's batched kernel on a warm plan: a 0.2% frontier
    (about 8 vertices) per source as batch words, masked by a
    half-visited complement.  The OR-fold gathers every stored bit
    either way; skip mode only counts the active tiles."""
    g, _ = banded
    A = g.b2sr(32)
    A.plan().warm((k,))
    rng = np.random.default_rng(k)
    xw = pack_bitmatrix(rng.random((g.n, k)) < 0.002, 32)
    visited = rng.random((g.n, k)) < 0.5
    benchmark(
        bmv_bin_bin_bin_multi_masked, A, xw, visited,
        complement=True, skip=skip,
    )
    emit_benchmark(
        json_report, benchmark, "bmv_bin_bin_bin_multi_masked",
        k=k, skip=skip,
    )


@pytest.mark.parametrize("k", [8, 32])
def test_wallclock_pack_bitmatrix(benchmark, json_report, k):
    """The engine's batched frontier packing: k BFS frontiers over 4096
    vertices into d=32 batch words, one word row per vertex."""
    X = np.random.default_rng(k).random((4096, k)) < 0.05
    benchmark(pack_bitmatrix, X, 32)
    emit_benchmark(json_report, benchmark, "pack_bitmatrix", n=4096, k=k)


@pytest.mark.parametrize("k", [8, 32])
def test_wallclock_unpack_bitmatrix(benchmark, json_report, k):
    """The inverse: a batched BFS result's batch words back to (n, k)
    bits."""
    X = np.random.default_rng(k).random((4096, k)) < 0.05
    words = pack_bitmatrix(X, 32)
    benchmark(unpack_bitmatrix, words, 32, k)
    emit_benchmark(json_report, benchmark, "unpack_bitmatrix", n=4096, k=k)


@pytest.mark.parametrize("k", [8, 32])
@pytest.mark.parametrize(
    "family, build",
    [
        ("rmat9", lambda: rmat_graph(9, seed=1)),
        ("road256", lambda: road_pattern(256, seed=1)),
    ],
    ids=["rmat9", "road256"],
)
def test_wallclock_multi_source_bfs(benchmark, json_report, family, build, k):
    """One serving BFS launch on the graph families of the BFS serving
    workload: k sources in lockstep at d = 32 on a warm plan, skip mode
    on.  Each level packs the frontiers as batch words, OR-folds them
    over the set-bit index and unpacks the next frontiers."""
    g = build()
    engine = BitEngine(g, tile_dim=32)
    engine.warm_plans((k,))
    sources = np.random.default_rng(k).choice(g.n, size=k, replace=False)
    benchmark(multi_source_bfs, engine, sources)
    emit_benchmark(
        json_report, benchmark, "multi_source_bfs",
        graph=family, n=g.n, k=k, tile_dim=32,
    )


def test_wallclock_bmv_bin_full_full(benchmark, banded, json_report):
    g, x = banded
    A = g.b2sr(32)
    A.plan().warm()
    benchmark(bmv_bin_full_full, A, x, ARITHMETIC)
    emit_benchmark(json_report, benchmark, "bmv_bin_full_full_warm")


def test_wallclock_bmv_bin_full_full_multi_min_plus(benchmark, json_report):
    """The serving SSSP pull: batched min-plus over the transposed B2SR
    of a 512-vertex hybrid graph on a warm plan, k = 32 distance columns
    with about half their entries at +inf, skip mode on."""
    At = hybrid_pattern(512, seed=4).b2sr_t(32)
    At.plan().warm((32,))
    rng = np.random.default_rng(4)
    X = rng.random((At.ncols, 32)).astype(np.float32)
    X[rng.random(X.shape) < 0.5] = np.inf
    benchmark(bmv_bin_full_full_multi, At, X, MIN_PLUS, skip=True)
    emit_benchmark(
        json_report, benchmark, "bmv_bin_full_full_multi_min_plus",
        n=512, k=32, skip=True,
    )


def test_wallclock_multi_source_sssp(benchmark, json_report):
    """One serving SSSP launch: 32 sources in lockstep over a 512-vertex
    hybrid graph (226 min-plus rounds) on a warm plan, skip mode on.
    Each round gathers only the stored bits of the columns the previous
    round lowered (change-driven relaxation)."""
    engine = BitEngine(hybrid_pattern(512, seed=4), tile_dim=32)
    engine.warm_plans((32,))
    sources = np.arange(32) * 16
    benchmark(multi_source_sssp, engine, sources)
    emit_benchmark(
        json_report, benchmark, "multi_source_sssp",
        n=512, k=32, tile_dim=32,
    )


def test_wallclock_sssp_calibration(benchmark, json_report):
    """One calibration solo run, as a serving estimator makes it:
    single-source SSSP from vertex 0 over a 512-vertex hybrid graph (226
    min-plus rounds) on a warm plan, skip mode on.  Each round is one
    narrow pull, so the per-round bookkeeping around the kernel (the
    cost model, the stats accumulation, the entry selection and the
    operand's order check) is a large share of it."""
    engine = BitEngine(hybrid_pattern(512, seed=4), tile_dim=32)
    engine.warm_plans()
    benchmark(sssp, engine, 0)
    emit_benchmark(
        json_report, benchmark, "sssp_calibration", n=512, tile_dim=32,
    )


def test_wallclock_bmv_bin_full_full_planless(benchmark, banded, json_report):
    """The seed kernel's repeated-launch cost (re-unpacks bits, re-derives
    chunk structure every call) — the baseline the plan layer beats."""
    g, x = banded
    A = g.b2sr(32)
    benchmark(planless.bmv_bin_full_full, A, x, ARITHMETIC)
    emit_benchmark(json_report, benchmark, "bmv_bin_full_full_planless")


def test_wallclock_our_csr_spmv(benchmark, banded, json_report):
    g, x = banded
    benchmark(csr_spmv, g.csr, x)
    emit_benchmark(json_report, benchmark, "csr_spmv")


def test_wallclock_scipy_spmv(benchmark, banded, json_report):
    g, x = banded
    m = sp.csr_matrix(
        (g.csr.data, g.csr.indices.astype(np.int32),
         g.csr.indptr.astype(np.int32)),
        shape=g.csr.shape,
    )
    benchmark(lambda: m @ x)
    emit_benchmark(json_report, benchmark, "scipy_spmv")


def test_wallclock_bmm_sum(benchmark, blocky, json_report):
    A = blocky.b2sr(32)
    benchmark(bmm_bin_bin_sum, A, A)
    emit_benchmark(json_report, benchmark, "bmm_bin_bin_sum")


def test_wallclock_scipy_spgemm_sum(benchmark, blocky, json_report):
    g = blocky
    m = sp.csr_matrix(
        (g.csr.data, g.csr.indices.astype(np.int32),
         g.csr.indptr.astype(np.int32)),
        shape=g.csr.shape,
    )
    benchmark(lambda: (m @ m).sum())
    emit_benchmark(json_report, benchmark, "scipy_spgemm_sum")


def test_wallclock_conversion_csr_to_b2sr(benchmark, banded, json_report):
    g, _ = banded
    from repro.formats.convert import b2sr_from_csr

    benchmark(b2sr_from_csr, g.csr, 32)
    emit_benchmark(json_report, benchmark, "conversion_csr_to_b2sr")
