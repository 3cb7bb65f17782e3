"""The router's ``verify=True`` rejects wrong answers: the shortest-path
certificate (``serving.plane.certify_hop_distances``) accepts every
batched BFS/SSSP answer and rejects each single-entry defect; a launch
served from a wrong operand, or with one corrupted column, fails the run
on both data planes; and the check survives ``python -O``."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import multi_source_bfs, multi_source_sssp
from repro.datasets.generators import road_pattern
from repro.engines.bit import BitEngine
from repro.formats.shm import list_segments, shm_available
from repro.graph import Graph
from repro.serving import (
    GraphRegistry,
    InProcessPlane,
    Router,
    WorkerPool,
    poisson_stream,
)
from repro.serving.plane import certify_hop_distances, solo_reference

SOLVERS = {"bfs": multi_source_bfs, "sssp": multi_source_sssp}
UNREACHED = {"bfs": -1, "sssp": np.inf}


def seeded_graph(seed, n):
    """A random directed graph with self-loops and an *orphan*: a vertex
    whose only in-edge is its own self-loop, so it is unreachable from
    every other vertex."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, (int(rng.integers(n, 3 * n)), 2))
    orphan = int(rng.integers(n))
    edges = edges[edges[:, 1] != orphan]
    loops = np.unique(np.r_[rng.integers(0, n, 2), orphan])
    edges = np.concatenate([edges, np.stack([loops, loops], axis=1)])
    return Graph.from_edges(n, edges), orphan


def defects(kind, columns, sources, orphan):
    """Single-entry defects of a correct ``(n, k)`` answer, by name."""
    n = columns.shape[0]
    rows = np.arange(n)
    col = columns[:, 0]
    reached = (col != UNREACHED[kind]) & (rows != sources[0])
    unreached = col == UNREACHED[kind]

    def edit(v, value):
        bad = columns.copy()
        bad[v, 0] = value
        return bad

    out = {
        "nonzero source": edit(sources[0], 1),
        "wrong dtype": columns.astype(
            np.float64 if kind == "sssp" else np.int32
        ),
        "missing column": columns[:, 1:],
        "missing row": columns[1:],
        # Far past n on a self-loop: in float64 ``x + 1 == x``, so only
        # the range check rejects it.
        "huge on a self-loop": edit(orphan, 2**60 if kind == "bfs" else 1e30),
    }
    if reached.any():
        v = int(np.flatnonzero(reached)[0])
        out["lowered"] = edit(v, col[v] - 1)
        out["raised"] = edit(v, col[v] + 1)
        out["reachable unreached"] = edit(v, UNREACHED[kind])
    if unreached.any():
        out["unreachable finite"] = edit(int(np.flatnonzero(unreached)[0]), 1)
    if kind == "sssp":
        out["NaN"] = edit(int(rows[-1]), np.nan)
        out["-0.0 source"] = edit(sources[0], -0.0)
    return out


class TestCertificate:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 48),
        tile_dim=st.sampled_from([4, 8]),
        width=st.sampled_from(["1", "d", "2d+3"]),
    )
    def test_accepts_answers_and_rejects_each_defect(
        self, seed, n, tile_dim, width
    ):
        graph, orphan = seeded_graph(seed, n)
        k = {"1": 1, "d": tile_dim, "2d+3": 2 * tile_dim + 3}[width]
        others = np.delete(np.arange(n), orphan)
        sources = np.random.default_rng(seed).choice(others, k)
        engine = BitEngine(graph, tile_dim=tile_dim)
        accepted = []
        for kind, solve in SOLVERS.items():
            columns, _ = solve(engine, sources)
            certify_hop_distances(graph.csr_t, kind, sources, columns, "g")
            for name, bad in defects(kind, columns, sources, orphan).items():
                try:
                    certify_hop_distances(
                        graph.csr_t, kind, sources, bad, "g"
                    )
                except AssertionError as err:
                    assert str(err).startswith(f"{kind} answer on g")
                else:
                    accepted.append((kind, name))
        assert not accepted

    def test_failure_names_kind_graph_column_and_vertex(self):
        graph = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
        good = np.array([[0], [1], [2]], dtype=np.int64)
        certify_hop_distances(graph.csr_t, "bfs", [0], good, "'p' v4")
        bad = good.copy()
        bad[2, 0] = 1
        with pytest.raises(
            AssertionError,
            match=r"bfs answer on 'p' v4, column 0 \(source 0\): vertex 2",
        ):
            certify_hop_distances(graph.csr_t, "bfs", [0], bad, "'p' v4")


def path_with_shortcut(missing=None):
    """The 64-vertex directed path 0→1→…→63 plus the shortcut 0→40,
    optionally without one edge."""
    edges = [(i, i + 1) for i in range(63)] + [(0, 40)]
    return Graph.from_edges(
        64, np.array([e for e in edges if e != missing])
    )


def test_wrong_operand_is_rejected():
    """An engine over the registered graph minus the edge 10→11 answers
    exactly as its own solo run, so a re-run check accepts it; the
    certificate reads the epoch's CSR and rejects it."""
    reg = GraphRegistry()
    entry = reg.add("g", path_with_shortcut())
    wrong = BitEngine(path_with_shortcut(missing=(10, 11)))
    entry.engine = wrong
    entry.batcher.engine = wrong
    stream = [(0.0, "bfs", 0, 50.0), (0.0, "sssp", 0, 50.0)]
    router = Router(reg, n_servers=1)
    served, _ = router.run(stream, verify=False)
    for outcome, (_, kind, source, _) in zip(served, stream, strict=True):
        ref, _ = solo_reference(wrong, entry.cc_engine, kind, source, {})
        assert np.array_equal(outcome.result, ref)
    assert served[0].result[11] == -1
    with pytest.raises(AssertionError, match="vertex 11"):
        router.run(stream, verify=True)


def raise_farthest(columns):
    """Column 0 with its farthest reached vertex one hop further."""
    bad = columns.copy()
    col = bad[:, 0]
    v = int(np.argmax(np.where(np.isfinite(col), col, -1)))
    bad[v, 0] += 1
    return bad


class CorruptingPlane(InProcessPlane):
    """The in-process plane, but the first ``kind`` launch comes back
    with one column perturbed."""

    def __init__(self, registry, kind):
        super().__init__(registry)
        self.kind = kind

    def submit(self, sid, spec):
        res = super().submit(sid, spec)
        if spec.kind != self.kind:
            return res
        self.kind = None
        return dataclasses.replace(res, columns=raise_farthest(res.columns))


def road_registry():
    reg = GraphRegistry()
    reg.add("road", road_pattern(64))
    return reg


ROAD_STREAM = poisson_stream(64, requests=24, rate_qps=2000.0, seed=1)


@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_corrupted_column_fails_in_process(kind):
    reg = road_registry()
    router = Router(reg, n_servers=2)
    router.run(ROAD_STREAM, verify=True)
    with pytest.raises(AssertionError, match=f"{kind} answer on 'road' v0"):
        router.run(
            ROAD_STREAM, verify=True, data_plane=CorruptingPlane(reg, kind)
        )


@pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")
@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_corrupted_column_fails_in_worker_pool(kind):
    reg = road_registry()
    dtype = {"bfs": np.int64, "sssp": np.float32}[kind]
    with WorkerPool(reg, processes=1) as pool:
        drain = pool.drain

        def corrupting_drain():
            results = drain()
            for bid, res in sorted(results.items()):
                cols = res.columns
                if cols is not None and cols.ndim == 2 and cols.dtype == dtype:
                    results[bid] = dataclasses.replace(
                        res, columns=raise_farthest(cols)
                    )
                    break
            return results

        pool.drain = corrupting_drain
        with pytest.raises(AssertionError, match=f"{kind} answer on 'road'"):
            Router(reg, n_servers=2).run(
                ROAD_STREAM, verify=True, data_plane=pool
            )
    assert not list_segments()


OPTIMIZED_RUN = """
import dataclasses, sys
import numpy as np
from repro.datasets.generators import road_pattern
from repro.serving import GraphRegistry, InProcessPlane, Router, poisson_stream

class AddOne(InProcessPlane):
    def submit(self, sid, spec):
        res = super().submit(sid, spec)
        if spec.kind == "cc":
            return res
        cols = res.columns.copy()
        cols[(cols > 0) & np.isfinite(cols)] += 1
        return dataclasses.replace(res, columns=cols)

reg = GraphRegistry()
reg.add("road", road_pattern(64))
stream = poisson_stream(64, requests=24, rate_qps=2000.0, seed=1)
try:
    Router(reg, n_servers=2).run(stream, verify=True, data_plane=AddOne(reg))
except AssertionError as err:
    print("rejected", sys.flags.optimize, err)
else:
    print("served", sys.flags.optimize)
"""


def test_verify_survives_python_O():
    """``python -O`` strips ``assert`` statements; the router's check
    raises explicitly, so a plane that adds 1 to every reached
    non-source entry is still rejected."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected 1 "), proc.stdout
