"""Change-driven relaxation (``changed=`` on the semiring pulls).

For an idempotent ⊕, a pull that gathers only the columns the last round
changed, folded into the operand, gives the same bits as the full pull
folded into it.  Checked at the kernel (every tile dim, batch widths
across word planes, both skip modes, operands that take the set-bit
gather and ones that fall back to the dense sweep), at the algorithms
(``sssp`` and ``multi_source_sssp`` against their loops from before the
change, copied below as oracles, including every modeled number), and on
a worker's engine over an attached shared-memory export.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms import multi_source_sssp, sssp
from repro.bench.harness import suite_subset
from repro.datasets.generators import (
    hybrid_pattern,
    rmat_graph,
    road_pattern,
)
from repro.engines import BitEngine
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.formats.shm import shm_available
from repro.kernels.bmv import bmv_bin_full_full, bmv_bin_full_full_multi
from repro.semiring import (
    ARITHMETIC,
    BOOLEAN,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SECOND,
)
from repro.serving import GraphRegistry, WorkerPool
from repro.serving.parallel import _engines_from_payload

IDEMPOTENT = (MIN_PLUS, MIN_SECOND, MAX_TIMES, BOOLEAN)


def bits(a: np.ndarray) -> np.ndarray:
    """A float array's raw bit patterns, so ``-0.0`` and NaN payloads
    compare exactly."""
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def random_matrix(n: int, d: int, seed: int):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.08).astype(np.float32)
    return b2sr_from_dense(dense, d), rng


def operand(family: str, semiring, shape, rng) -> np.ndarray:
    """Small non-negative integers with identity-heavy entries
    (``finite``: the set-bit gather), plus NaN and ``±0.0``
    (``signed``: the dense fallback for the min/max semirings)."""
    x = rng.integers(0, 6, size=shape).astype(np.float32)
    if family == "signed":
        x[rng.random(shape) < 0.1] = -0.0
        x[rng.random(shape) < 0.05] = np.nan
    x[rng.random(shape) < 0.5] = semiring.zero
    return x


def pull(A, x, semiring, skip, changed=None):
    counters: dict = {}
    kernel = bmv_bin_full_full if x.ndim == 1 else bmv_bin_full_full_multi
    y = kernel(
        A, x, semiring, changed=changed, skip=skip, counters=counters
    )
    return y, counters


class TestKernel:
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("family", ["finite", "signed"])
    @pytest.mark.parametrize("semiring", IDEMPOTENT, ids=lambda s: s.name)
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_partial_pull_folds_to_full(self, d, semiring, family, skip):
        A, rng = random_matrix(70, d, seed=d)
        for k in (None, 1, 5, d, 2 * d + 3):
            shape = (A.ncols,) if k is None else (A.ncols, k)
            x0 = operand(family, semiring, shape, rng)
            y0, _ = pull(A, x0, semiring, skip)
            x1 = semiring.add(x0, y0)
            changed = x1 != x0
            partial, got = pull(A, x1, semiring, skip, changed)
            full, want = pull(A, x1, semiring, skip)
            assert np.array_equal(
                bits(semiring.add(x1, partial)),
                bits(semiring.add(x1, full)),
            ), f"k={k}"
            assert got == want, f"k={k}"

    def test_partial_pull_gathers_only_changed_columns(self):
        """A column that did not change is not gathered: rows whose
        in-neighbours all stayed put read the identity."""
        A, rng = random_matrix(70, 8, seed=1)
        x = rng.integers(0, 6, size=A.ncols).astype(np.float32)
        none = np.zeros(A.ncols, dtype=bool)
        y, _ = pull(A, x, MIN_PLUS, False, none)
        assert np.all(y == np.inf)


class TestBadInput:
    def setup_method(self):
        self.A, _ = random_matrix(40, 8, seed=3)
        self.x = np.zeros(self.A.ncols, dtype=np.float32)
        self.X = np.zeros((self.A.ncols, 3), dtype=np.float32)

    def test_non_idempotent_semiring(self):
        changed = np.ones(self.A.ncols, dtype=bool)
        with pytest.raises(ValueError, match="idempotent"):
            bmv_bin_full_full(self.A, self.x, ARITHMETIC, changed=changed)
        with pytest.raises(ValueError, match="idempotent"):
            bmv_bin_full_full_multi(
                self.A, self.X, ARITHMETIC,
                changed=np.ones(self.X.shape, dtype=bool),
            )

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(39, dtype=bool),
            np.ones((40, 1), dtype=bool),
            np.ones(40, dtype=np.uint8),
            np.ones(40, dtype=np.float32),
        ],
        ids=["short", "2d", "uint8", "float32"],
    )
    def test_vector_mask_shape_and_dtype(self, bad):
        with pytest.raises(ValueError, match="changed"):
            bmv_bin_full_full(self.A, self.x, MIN_PLUS, changed=bad)

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(40, dtype=bool),
            np.ones((40, 2), dtype=bool),
            np.ones((40, 3), dtype=np.int64),
        ],
        ids=["1d", "narrow", "int64"],
    )
    def test_batch_mask_shape_and_dtype(self, bad):
        with pytest.raises(ValueError, match="changed"):
            bmv_bin_full_full_multi(self.A, self.X, MIN_PLUS, changed=bad)


# ----------------------------------------------------------------------
# The algorithms against their loops from before the change
# ----------------------------------------------------------------------
def oracle_sssp(engine, source, *, max_iterations=None):
    n = engine.n
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    dist = np.full(n, np.inf, dtype=np.float32)
    dist[source] = 0.0

    for _ in range(max_iterations):
        engine.note_iteration()
        relaxed = engine.pull(dist, MIN_PLUS)
        new = np.minimum(dist, relaxed.astype(np.float32))
        if not (new < dist).any():
            break
        dist = new

    return dist, engine.report()


def oracle_multi_source_sssp(engine, sources, *, max_iterations=None):
    src = np.asarray(sources, dtype=np.int64)
    n = engine.n
    k = src.shape[0]
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    dist = np.full((n, k), np.inf, dtype=np.float32)
    dist[src, np.arange(k)] = 0.0

    for _ in range(max_iterations):
        engine.note_iteration()
        relaxed = engine.pull_multi(dist, MIN_PLUS)
        new = np.minimum(dist, relaxed.astype(np.float32))
        if not (new < dist).any():
            break
        dist = new

    return dist, engine.report(extra={"sources": k})


GRAPHS = [(e.name, e.build) for e in suite_subset(8, max_n=512)] + [
    ("hybrid", lambda: hybrid_pattern(512, seed=4)),
    ("rmat", lambda: rmat_graph(11)),
    ("road", lambda: road_pattern(1024)),
]


def assert_same_run(got, want):
    (d_got, r_got), (d_want, r_want) = got, want
    assert np.array_equal(bits(d_got), bits(d_want))
    assert r_got.iterations == r_want.iterations
    assert r_got.kernel_ms == r_want.kernel_ms
    assert r_got.algorithm_ms == r_want.algorithm_ms


class TestAlgorithms:
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize(
        "build", [b for _, b in GRAPHS], ids=[name for name, _ in GRAPHS]
    )
    def test_matches_full_pull_loop(self, build, d, skip):
        g = build()
        engine = BitEngine(g, tile_dim=d, skip_inactive=skip)
        sources = np.unique(np.arange(5) * 37 % g.n)
        for s in sources[:2]:
            assert_same_run(
                sssp(engine, int(s)), oracle_sssp(engine, int(s))
            )
        assert_same_run(
            multi_source_sssp(engine, sources),
            oracle_multi_source_sssp(engine, sources),
        )

    def test_iteration_cap(self):
        engine = BitEngine(road_pattern(256, seed=1))
        for cap in (0, 1, 3):
            assert_same_run(
                sssp(engine, 5, max_iterations=cap),
                oracle_sssp(engine, 5, max_iterations=cap),
            )
            assert_same_run(
                multi_source_sssp(engine, [5, 9], max_iterations=cap),
                oracle_multi_source_sssp(engine, [5, 9], max_iterations=cap),
            )


class TestWorkerEngine:
    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    )
    def test_attached_engine_returns_same_columns(self):
        registry = GraphRegistry()
        entry = registry.add("g", hybrid_pattern(256, seed=4))
        sources = np.array([0, 17, 101, 255])
        with WorkerPool(registry, processes=1) as pool:
            # The payload a worker unpickles off its queue, attached
            # here the way worker_main attaches it.
            payload = pool._exports[("g", entry.version)].payload
            worker = _engines_from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            try:
                graphless = worker.engine.graph is None
                got = multi_source_sssp(worker.engine, sources)
            finally:
                worker.close()
        assert graphless
        assert_same_run(
            got, oracle_multi_source_sssp(entry.engine, sources)
        )
