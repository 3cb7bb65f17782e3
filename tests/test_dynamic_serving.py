"""Tests for versioned serving: the epoch-chained GraphRegistry, epoch
swaps under load (repro.serving.cluster), the ingestion loop
(repro.serving.ingest), and estimator-state hygiene in comparison
sweeps.

The headline contracts:

* batches never mix graph versions — every query in a batch was
  admitted against the same epoch;
* in-flight batches finish (and verify bitwise) on the version they
  were admitted against, while arrivals after a swap see the new epoch;
* ``compare_placements`` scores every candidate from the same
  estimator state, so reports are identical whatever the comparison
  order, and the registry is left untouched.
"""

import numpy as np
import pytest

from repro.datasets.generators import hybrid_pattern, road_pattern
from repro.serving import (
    GraphRegistry,
    GraphStore,
    Ingester,
    MutationBatch,
    Router,
    multi_graph_poisson_stream,
    mutation_trace,
    poisson_stream,
)


def make_store(sizes=(200, 160), tile_dim=16, max_batch=32):
    """A registry of named graphs with distinct structure."""
    store = GraphRegistry(max_batch=max_batch)
    builders = (hybrid_pattern, road_pattern)
    for i, n in enumerate(sizes):
        g = builders[i % len(builders)](n, seed=3 + i)
        store.add(f"g{i}", g, tile_dim=tile_dim)
    return store


def delta_for(store, name, seed=0, inserts=6, deletes=4):
    """A small valid mutation against the store's current epoch."""
    entry = store[name]
    n = entry.graph.n
    rng = np.random.default_rng(seed)
    ins = rng.integers(0, n, size=(inserts, 2))
    dels = rng.integers(0, n, size=(deletes, 2))
    return ins, dels


# ----------------------------------------------------------------------
# Registry epochs
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_mutate_appends_an_epoch(self):
        store = make_store(sizes=(120,))
        assert store.versions("g0") == (0,)
        ins, dels = delta_for(store, "g0")
        entry, report = store.mutate("g0", ins, dels)
        assert entry.version == 1
        assert store.versions("g0") == (0, 1)
        assert store.current_version("g0") == 1
        assert store["g0"] is entry
        assert 0.0 <= report.rebuilt_fraction <= 1.0

    def test_old_epochs_stay_addressable(self):
        store = make_store(sizes=(120,))
        v0 = store["g0"]
        store.mutate("g0", *delta_for(store, "g0"))
        assert store.entry_for("g0", 0) is v0
        assert store.entry_for("g0", 1) is store["g0"]
        with pytest.raises(KeyError):
            store.entry_for("g0", 7)

    def test_new_epoch_graph_matches_delta_semantics(self):
        from repro.formats.delta import apply_edge_delta

        store = make_store(sizes=(120,))
        old = store["g0"].graph
        ins, dels = delta_for(store, "g0", seed=5)
        entry, _ = store.mutate("g0", ins, dels)
        want, _ = apply_edge_delta(old, ins, dels)
        assert np.array_equal(
            entry.graph.csr.indptr, want.csr.indptr
        )
        assert np.array_equal(
            entry.graph.csr.indices, want.csr.indices
        )

    def test_estimator_warm_starts_across_epochs(self):
        store = make_store(sizes=(160,))
        router = Router(store, n_servers=1)
        stream = poisson_stream(160, requests=12, seed=1, graph="g0")
        router.run(stream)  # warm the seed epoch's EWMAs
        snap = store["g0"].estimator.snapshot()
        assert snap  # learned something
        entry, _ = store.mutate("g0", *delta_for(store, "g0"))
        assert entry.estimator.snapshot() == snap

    def test_new_epoch_plan_is_warm_before_swap(self):
        store = make_store(sizes=(120,))
        entry, _ = store.mutate("g0", *delta_for(store, "g0"))
        # The servable engine's transposed form is already cached.
        tile_dim = entry.engine.tile_dim
        assert entry.graph.cached_b2sr_t(tile_dim) is not None

    def test_every_registry_is_versioned(self):
        """A plain registry is an epoch chain from registration on: it
        mutates directly, serves a verified swap, and feeds the
        ingester.  The old subclass name is the same class."""
        assert GraphStore is GraphRegistry
        reg = GraphRegistry(max_batch=32)
        reg.add("g0", hybrid_pattern(120, seed=1), tile_dim=16)
        assert reg.versions("g0") == (0,)
        assert reg.current_version("g0") == 0
        v0 = reg["g0"]
        entry, _ = reg.mutate("g0", *delta_for(reg, "g0"))
        assert entry.version == 1 and reg.versions("g0") == (0, 1)
        assert reg.entry_for("g0", 0) is v0

        stream = poisson_stream(
            120, requests=16, rate_qps=2000, seed=0, graph="g0"
        )
        muts = [MutationBatch(4.0, "g0", *delta_for(reg, "g0", seed=1))]
        outcomes, rep = Router(reg, n_servers=1).run(
            stream, mutations=muts, verify=True
        )
        assert rep.swaps == 1 and rep.verified and rep.served == 16
        assert {o.version for o in outcomes} == {1, 2}

        trace = mutation_trace(
            reg["g0"].graph, batches=2, batch_size=4, seed=3, name="g0"
        )
        report = Ingester(reg).run(trace)
        assert report.applied == 2
        assert reg.versions("g0") == (0, 1, 2, 3, 4)

    def test_mutate_unknown_graph(self):
        store = make_store(sizes=(100,))
        with pytest.raises(KeyError):
            store.mutate("nope", np.array([[0, 1]]), None)


# ----------------------------------------------------------------------
# Epoch swap under load
# ----------------------------------------------------------------------
class TestEpochSwapUnderLoad:
    # Actual vertex counts of make_store()'s graphs (road_pattern
    # rounds its grid down), so sampled sources are always in range.
    SIZES = {"g0": 200, "g1": 144}

    def _run(self, store, *, requests=40, seed=7, n_servers=2,
             mut_times=(4.0, 9.0), verify=True):
        stream = multi_graph_poisson_stream(
            self.SIZES, requests=requests, rate_qps=2000, seed=seed
        )
        muts = [
            MutationBatch(
                t, "g0", *delta_for(store, "g0", seed=int(t))
            )
            for t in mut_times
        ]
        router = Router(store, n_servers=n_servers)
        outcomes, rep = router.run(stream, verify=verify, mutations=muts)
        return outcomes, rep

    def test_swaps_happen_and_everything_verifies(self):
        store = make_store()
        outcomes, rep = self._run(store)
        assert rep.swaps == 2
        assert rep.verified
        assert rep.served == 40
        assert store.current_version("g0") == 2
        # Both the old and the new epoch actually served queries.
        g0_versions = {
            o.version for o in outcomes if o.arrival.graph == "g0"
        }
        assert 0 in g0_versions
        assert max(g0_versions) >= 1

    def test_batches_never_mix_versions(self):
        store = make_store()
        outcomes, _ = self._run(store)
        batches = {}
        for o in outcomes:
            batches.setdefault((o.server, o.launch_ms), set()).add(
                o.version
            )
        assert all(len(v) == 1 for v in batches.values())

    def test_post_swap_arrivals_see_the_new_epoch(self):
        store = make_store()
        last_swap = 9.0
        outcomes, rep = self._run(store, mut_times=(4.0, last_swap))
        assert rep.swaps == 2
        late = [
            o for o in outcomes
            if o.arrival.graph == "g0"
            and o.arrival.time_ms > last_swap
        ]
        assert late  # the stream outlives the last swap
        assert all(o.version == 2 for o in late)

    def test_pre_swap_admissions_finish_on_their_epoch(self):
        store = make_store()
        outcomes, _ = self._run(store, mut_times=(4.0,))
        early = [
            o for o in outcomes
            if o.arrival.graph == "g0" and o.arrival.time_ms < 4.0
        ]
        assert early
        assert all(o.version == 0 for o in early)

    def test_untargeted_graph_never_swaps(self):
        store = make_store()
        outcomes, _ = self._run(store)
        assert all(
            o.version == 0
            for o in outcomes if o.arrival.graph == "g1"
        )
        assert store.current_version("g1") == 0

    def test_swap_records_in_report_extra(self):
        store = make_store()
        _, rep = self._run(store)
        swaps = rep.extra["swaps"]
        assert [s.version for s in swaps] == [1, 2]
        assert all(s.graph == "g0" for s in swaps)
        assert all(0.0 <= s.rebuilt_fraction <= 1.0 for s in swaps)

    def test_mutation_against_unknown_graph_rejected(self):
        store = make_store(sizes=(120,))
        router = Router(store, n_servers=1)
        stream = poisson_stream(120, requests=4, seed=0, graph="g0")
        muts = [MutationBatch(1.0, "nope", np.array([[0, 1]]), None)]
        with pytest.raises(ValueError, match="unknown serving graph"):
            router.run(stream, mutations=muts)


# ----------------------------------------------------------------------
# Estimator-state hygiene
# ----------------------------------------------------------------------
class TestEstimatorHygiene:
    def _stream(self):
        return multi_graph_poisson_stream(
            {"g0": 200, "g1": 144}, requests=24, rate_qps=2500, seed=11
        )

    def test_compare_placements_is_order_independent(self):
        names = ["affinity", "least-loaded"]
        store_a = make_store()
        fwd = Router(store_a, n_servers=2).compare_placements(
            self._stream(), placements=names
        )
        store_b = make_store()
        rev = Router(store_b, n_servers=2).compare_placements(
            self._stream(), placements=list(reversed(names))
        )
        for name in names:
            assert fwd[name][1] == rev[name][1]

    def test_compare_placements_leaves_registry_untouched(self):
        store = make_store()
        router = Router(store, n_servers=2)
        router.run(self._stream())  # warm EWMAs first
        before = store.estimator_state()
        router.compare_placements(self._stream())
        assert store.estimator_state() == before


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------
class TestIngest:
    def test_mutation_trace_shape(self):
        g = hybrid_pattern(150, seed=5)
        trace = mutation_trace(
            g, batches=5, batch_size=6, seed=2, name="g0"
        )
        assert len(trace) == 5
        times = [m.time_ms for m in trace]
        assert times == sorted(times)
        for m in trace:
            assert m.graph == "g0"
            m.validate()
            for arr in (m.inserts, m.deletes):
                if arr is not None and arr.size:
                    assert arr.min() >= 0 and arr.max() < g.n

    def test_ingester_applies_every_batch(self):
        store = make_store(sizes=(150,))
        g = store["g0"].graph
        trace = mutation_trace(
            g, batches=4, batch_size=8, seed=3, name="g0"
        )
        report = Ingester(store).run(trace)
        assert report.applied == 4
        assert report.failed == 0
        assert store.current_version("g0") == 4
        versions = [r.version for r in report.records]
        assert versions == [1, 2, 3, 4]
        assert 0.0 <= report.mean_rebuilt_fraction <= 1.0

    def test_ingester_retries_transient_faults(self):
        store = make_store(sizes=(150,))
        g = store["g0"].graph
        trace = mutation_trace(
            g, batches=3, batch_size=4, seed=6, name="g0"
        )
        failed_once = set()

        def flaky(mut, attempt):
            if attempt == 0 and mut.time_ms not in failed_once:
                failed_once.add(mut.time_ms)
                raise RuntimeError("transient")

        report = Ingester(store, max_retries=2).run(
            trace, fault_hook=flaky
        )
        assert report.applied == 3
        assert report.retried == 3
        assert report.failed == 0
        assert store.current_version("g0") == 3

    def test_ingester_records_permanent_failures(self):
        store = make_store(sizes=(150,))
        g = store["g0"].graph
        trace = mutation_trace(
            g, batches=2, batch_size=4, seed=8, name="g0"
        )

        def always_fails(mut, attempt):
            if mut.time_ms == trace[0].time_ms:
                raise RuntimeError("disk on fire")

        report = Ingester(store, max_retries=1).run(
            trace, fault_hook=always_fails
        )
        assert report.applied == 1
        assert report.failed == 1
        bad = [r for r in report.records if not r.ok]
        assert len(bad) == 1
        assert "RuntimeError" in bad[0].error
        # The failed batch was skipped, the next one still landed.
        assert store.current_version("g0") == 1
