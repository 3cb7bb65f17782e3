"""Active-tile skip modes (engines/bit.py ``skip_inactive``): across a
fig6/7 suite subset the exact skip and the paper's full sweep give
bitwise-identical BFS/SSSP/CC results; ``skip_inactive`` is a plain
bool; and every serving engine, in-process and on a worker, runs with
skip on."""

import pickle

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, sssp
from repro.bench.harness import suite_subset
from repro.datasets.generators import hybrid_pattern
from repro.engines import BitEngine
from repro.formats.shm import shm_available
from repro.serving import GraphRegistry, WorkerPool
from repro.serving.parallel import _engines_from_payload

SUITE = suite_subset(8, max_n=512)


class TestSkipModesAgree:
    @pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
    def test_bfs_sssp_cc_bitwise(self, entry):
        g = entry.build()
        src = int(entry.seed) % g.n
        for algo, graph, kwargs in (
            (bfs, g, {"source": src}),
            (sssp, g, {"source": src}),
            (connected_components, g.symmetrized(), {}),
        ):
            skip, _ = algo(BitEngine(graph, skip_inactive=True), **kwargs)
            full, _ = algo(BitEngine(graph, skip_inactive=False), **kwargs)
            assert np.array_equal(skip, full, equal_nan=True), (
                f"{algo.__name__} on {entry.name} differs between modes"
            )


class TestSkipOption:
    def test_default_is_skip(self):
        assert BitEngine(SUITE[0].build()).skip_inactive is True

    @pytest.mark.parametrize("mode", ["auto", 1, None])
    def test_rejects_non_bool(self, mode):
        with pytest.raises(ValueError, match="skip_inactive"):
            BitEngine(SUITE[0].build(), skip_inactive=mode)


class TestServingEnginesSkip:
    def test_registry_epochs_skip(self):
        registry = GraphRegistry()
        entry = registry.add("g", hybrid_pattern(128, seed=3))
        swapped, _ = registry.mutate("g", inserts=np.array([[0, 5]]))
        for e in (entry, swapped):
            assert e.engine.skip_inactive is True
            assert e.cc_engine.skip_inactive is True

    @pytest.mark.skipif(
        not shm_available(), reason="POSIX shared memory unavailable"
    )
    def test_worker_engines_skip(self):
        registry = GraphRegistry()
        entry = registry.add("g", hybrid_pattern(128, seed=3))
        with WorkerPool(registry, processes=1) as pool:
            # The payload a worker unpickles off its queue, attached
            # here the way worker_main attaches it.
            payload = pool._exports[("g", entry.version)].payload
            worker = _engines_from_payload(
                pickle.loads(pickle.dumps(payload))
            )
            try:
                modes = (
                    worker.engine.skip_inactive,
                    worker.cc_engine.skip_inactive,
                )
                graphless = worker.engine.graph is None
                got, rep = bfs(worker.engine, source=0)
            finally:
                worker.close()
        assert modes == (True, True)
        assert graphless
        # Same answer and same skip-charged modeled cost as the
        # registry's engine; the full sweep charges more.
        want, want_rep = bfs(entry.engine, source=0)
        _, full_rep = bfs(
            BitEngine(entry.graph, skip_inactive=False), source=0
        )
        assert np.array_equal(got, want)
        assert rep.algorithm_ms == want_rep.algorithm_ms
        assert rep.algorithm_ms < full_rep.algorithm_ms
