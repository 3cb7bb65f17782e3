"""Tests for the sharded serving cluster (repro.serving.cluster), the
extracted discrete-event core (repro.serving.events), the admission
policies (repro.serving.admission), and the multi-graph
arrival streams (repro.serving.arrivals)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms import bfs, connected_components, sssp
from repro.datasets.generators import hybrid_pattern, road_pattern
from repro.engines import BitEngine
from repro.serving import (
    GraphRegistry,
    PLACEMENTS,
    POLICIES,
    Router,
    ServiceEstimator,
    Server,
    multi_graph_poisson_stream,
    poisson_stream,
    trace_stream,
)
from repro.serving.admission import AdmissionPolicy, resolve_policy
from repro.serving.cluster import _p95, resolve_placement
from repro.serving.events import EventLoop


def make_registry(sizes=(200, 160), tile_dim=16, max_batch=32):
    """A registry of named graphs with distinct structure per entry."""
    reg = GraphRegistry(max_batch=max_batch)
    builders = (hybrid_pattern, road_pattern)
    for i, n in enumerate(sizes):
        g = builders[i % len(builders)](n, seed=3 + i)
        reg.add(f"g{i}", g, tile_dim=tile_dim)
    return reg


# ----------------------------------------------------------------------
# Event core
# ----------------------------------------------------------------------
class TestServer:
    def test_busy_free_transitions(self):
        s = Server(0)
        assert s.idle(0.0)
        finish = s.start(1.0, 2.5)
        assert finish == 3.5
        assert not s.idle(2.0)
        assert s.idle(3.5)
        assert s.busy_ms == 2.5 and s.launches == 1

    def test_start_while_busy_raises(self):
        s = Server(0)
        s.start(0.0, 5.0)
        with pytest.raises(RuntimeError, match="busy"):
            s.start(1.0, 1.0)

    def test_event_loop_needs_servers(self):
        with pytest.raises(ValueError, match="at least one server"):
            EventLoop([])


# ----------------------------------------------------------------------
# Admission registry
# ----------------------------------------------------------------------
class TestAdmissionRegistry:
    def test_builtin_policies_registered(self):
        assert {"slo", "flush", "fcfs"} <= set(POLICIES)
        for pol in POLICIES.values():
            assert isinstance(pol, AdmissionPolicy)

    def test_resolve_policy(self):
        assert resolve_policy("slo") is POLICIES["slo"]
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_policy("edf")


# ----------------------------------------------------------------------
# Service estimator
# ----------------------------------------------------------------------
class TestServiceEstimator:
    def test_calibration_seeds_from_solo_run(self):
        g = hybrid_pattern(160, seed=2)
        engine = BitEngine(g, tile_dim=16)
        est = ServiceEstimator(engine)
        _, rep = bfs(engine, 0)
        assert est.estimate_ms("bfs", 1) == pytest.approx(
            rep.algorithm_ms
        )

    def test_width_scale_planes_and_cc(self):
        g = hybrid_pattern(160, seed=2)
        est = ServiceEstimator(BitEngine(g, tile_dim=16))
        assert est.width_scale("bfs", 1) == 1.0
        assert est.width_scale("bfs", 16) == 1.0
        assert est.width_scale("bfs", 17) == 2.0
        assert est.width_scale("cc", 40) == 1.0

    def test_observe_is_an_ewma(self):
        g = hybrid_pattern(160, seed=2)
        est = ServiceEstimator(BitEngine(g, tile_dim=16))
        est.observe("bfs", 1, 4.0)
        assert est.estimate_ms("bfs", 1) == pytest.approx(4.0)
        est.observe("bfs", 1, 2.0)
        assert est.estimate_ms("bfs", 1) == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Multi-graph arrival streams
# ----------------------------------------------------------------------
class TestMultiGraphStream:
    SIZES = {"a": 100, "b": 80, "c": 60}

    def test_deterministic_and_tagged(self):
        s1 = multi_graph_poisson_stream(self.SIZES, requests=30, seed=5)
        s2 = multi_graph_poisson_stream(self.SIZES, requests=30, seed=5)
        assert s1 == s2
        assert len(s1) == 30
        times = [a.time_ms for a in s1]
        assert times == sorted(times)
        assert {a.graph for a in s1} == set(self.SIZES)

    def test_shares_split_traffic(self):
        stream = multi_graph_poisson_stream(
            self.SIZES, requests=40,
            shares={"a": 1.0, "b": 1.0, "c": 0.0}, seed=0,
        )
        assert len(stream) == 40
        counts = {g: sum(a.graph == g for a in stream)
                  for g in self.SIZES}
        assert counts["c"] == 0
        assert counts["a"] == counts["b"] == 20

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one graph"):
            multi_graph_poisson_stream({})
        with pytest.raises(ValueError, match="requests"):
            multi_graph_poisson_stream(self.SIZES, requests=0)
        with pytest.raises(ValueError, match="shares keys"):
            multi_graph_poisson_stream(
                self.SIZES, shares={"a": 1.0}, seed=0
            )
        with pytest.raises(ValueError, match="non-negative"):
            multi_graph_poisson_stream(
                self.SIZES, shares={"a": -1.0, "b": 1.0, "c": 1.0}
            )

    def test_adding_a_graph_keeps_other_streams(self):
        """Child seeds are spawned per graph, so as long as a graph's
        own request count and absolute rate are unchanged, adding
        another graph never perturbs its arrivals."""
        two = multi_graph_poisson_stream(
            {"a": 100, "b": 80}, requests=20, rate_qps=2000.0,
            shares={"a": 1.0, "b": 1.0}, seed=9,
        )
        three = multi_graph_poisson_stream(
            {"a": 100, "b": 80, "c": 60}, requests=30, rate_qps=3000.0,
            shares={"a": 1.0, "b": 1.0, "c": 1.0}, seed=9,
        )
        a_two = [x for x in two if x.graph == "a"]
        a_three = [x for x in three if x.graph == "a"]
        assert a_two == a_three

    def test_poisson_stream_graph_tag(self):
        stream = poisson_stream(50, requests=5, seed=0, graph="roads")
        assert all(a.graph == "roads" for a in stream)


class TestTraceStreamEdgeCases:
    """Satellite: trace_stream edge-case contract.  Non-monotone input
    is *sorted* (stable), not rejected — documented in the docstring."""

    def test_empty_trace(self):
        assert trace_stream([]) == []

    def test_non_monotone_timestamps_are_sorted_stably(self):
        rows = [
            (9.0, "bfs", 1, 10.0),
            (1.0, "bfs", 2, 10.0),
            (1.0, "sssp", 3, 10.0),  # ties keep input order
            (4.0, "bfs", 4, 10.0),
        ]
        out = trace_stream(rows, n_vertices=10)
        assert [a.time_ms for a in out] == [1.0, 1.0, 4.0, 9.0]
        assert out[0].source == 2 and out[1].source == 3

    def test_duplicate_queries_each_served(self):
        rows = [(0.0, "bfs", 5, 10.0), (0.0, "bfs", 5, 10.0)]
        out = trace_stream(rows, n_vertices=10)
        assert len(out) == 2
        assert out[0] == out[1]

    def test_zero_budget_arrivals_rejected(self):
        with pytest.raises(ValueError, match="slo_ms"):
            trace_stream([(0.0, "bfs", 1, 0.0)])
        with pytest.raises(ValueError, match="slo_ms"):
            trace_stream([(0.0, "sssp", 1, -3.0)])

    def test_graph_key_rows(self):
        (a,) = trace_stream([(0.0, "bfs", 1, 5.0, "urgent", "roads")])
        assert a.lane == "urgent" and a.graph == "roads"
        with pytest.raises(ValueError, match="graph must be a name"):
            trace_stream([(0.0, "bfs", 1, 5.0, "bulk", 7)])

    def test_negative_and_nonfinite_times_rejected(self):
        with pytest.raises(ValueError, match="arrival time"):
            trace_stream([(-1.0, "bfs", 1, 5.0)])
        with pytest.raises(ValueError, match="arrival time"):
            trace_stream([(float("nan"), "bfs", 1, 5.0)])


# ----------------------------------------------------------------------
# Graph registry
# ----------------------------------------------------------------------
class TestGraphRegistry:
    def test_entries_are_independent(self):
        reg = make_registry()
        assert reg.names == ("g0", "g1")
        assert len(reg) == 2 and "g0" in reg
        assert reg["g0"].engine is not reg["g1"].engine
        assert reg["g0"].batcher is not reg["g1"].batcher

    def test_duplicate_and_empty_names_rejected(self):
        reg = make_registry()
        g = hybrid_pattern(60, seed=0)
        with pytest.raises(ValueError, match="already registered"):
            reg.add("g0", g, tile_dim=16)
        with pytest.raises(ValueError, match="non-empty name"):
            reg.add("", g, tile_dim=16)

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            GraphRegistry(max_batch=0)

    def test_resolve(self):
        reg = make_registry(sizes=(100,))
        assert reg.resolve(None) == "g0"
        assert reg.resolve("g0") == "g0"
        with pytest.raises(ValueError, match="unknown serving graph"):
            reg.resolve("mystery")
        two = make_registry()
        with pytest.raises(ValueError, match="names no graph"):
            two.resolve(None)

    def test_index_is_the_affinity_shard_key(self):
        reg = make_registry()
        assert [reg.index(n) for n in reg.names] == [0, 1]


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class TestRouterValidation:
    def test_constructor_rejects_bad_args(self):
        reg = make_registry()
        with pytest.raises(ValueError, match="n_servers"):
            Router(reg, n_servers=0)
        with pytest.raises(ValueError, match="slack_factor"):
            Router(reg, slack_factor=0.9)
        with pytest.raises(ValueError, match="no serving graphs"):
            Router(GraphRegistry())
        with pytest.raises(ValueError, match="unknown placement"):
            Router(reg, placement="hash-ring")

    def test_untagged_arrivals_need_a_sole_graph(self):
        reg = make_registry()
        router = Router(reg)
        with pytest.raises(ValueError, match="names no graph"):
            router.run([(0.0, "bfs", 1, 50.0)])

    def test_sources_validated_per_graph(self):
        reg = make_registry(sizes=(200, 160))
        router = Router(reg)
        n1 = reg["g1"].engine.n
        ok = [(0.0, "bfs", n1 - 1, 50.0, "bulk", "g1")]
        outcomes, _ = router.run(ok)
        assert len(outcomes) == 1
        with pytest.raises(ValueError, match="source"):
            router.run([(0.0, "bfs", n1, 50.0, "bulk", "g1")])

    def test_empty_stream_report(self):
        router = Router(make_registry(), n_servers=2)
        outcomes, rep = router.run([], verify=True)
        assert outcomes == []
        assert rep.served == 0 and rep.slo_attainment == 1.0
        assert rep.server_busy_ms == [0.0, 0.0]
        assert rep.utilization == 0.0


class TestRouterServing:
    def test_cross_graph_answers_bitwise_equal_solo(self):
        """The acceptance contract: clustered answers are bitwise equal
        to solo runs *on the owning graph's engines* — and the graphs
        really differ, so routing to the wrong shard would be caught."""
        reg = make_registry(sizes=(200, 160))
        router = Router(reg, n_servers=2)
        stream = [
            (0.0, "bfs", 3, 500.0, "bulk", "g0"),
            (0.5, "bfs", 3, 500.0, "bulk", "g1"),
            (1.0, "sssp", 7, 500.0, "bulk", "g0"),
            (1.5, "sssp", 7, 500.0, "bulk", "g1"),
            (2.0, "cc", None, 500.0, "bulk", "g0"),
            (2.5, "cc", None, 500.0, "bulk", "g1"),
        ]
        outcomes, rep = router.run(stream, verify=True)
        assert rep.verified and rep.served == 6
        by_key = {
            (o.arrival.graph, o.arrival.kind): o for o in outcomes
        }
        for name in ("g0", "g1"):
            entry = reg[name]
            assert np.array_equal(
                by_key[(name, "bfs")].result, bfs(entry.engine, 3)[0]
            )
            assert np.array_equal(
                by_key[(name, "sssp")].result,
                sssp(entry.engine, 7)[0],
                equal_nan=True,
            )
            assert np.array_equal(
                by_key[(name, "cc")].result,
                connected_components(entry.cc_engine)[0],
            )
        # The two graphs give different answers — same-source queries on
        # different shards must not be coalesced together.
        assert not np.array_equal(
            by_key[("g0", "bfs")].result, by_key[("g1", "bfs")].result
        )

    def test_batches_never_mix_graphs(self):
        """Same kind, same instant, different graphs: two launches."""
        reg = make_registry()
        router = Router(reg, n_servers=2)
        stream = [
            (0.0, "bfs", 1, 200.0, "bulk", "g0"),
            (0.0, "bfs", 1, 200.0, "bulk", "g1"),
            (0.1, "bfs", 2, 200.0, "bulk", "g0"),
            (0.1, "bfs", 2, 200.0, "bulk", "g1"),
        ]
        outcomes, rep = router.run(stream, verify=True)
        assert rep.batches == 2
        assert all(o.batch_width == 2 for o in outcomes)

    def test_outcomes_record_server_and_resolved_graph(self):
        reg = make_registry(sizes=(120,))
        router = Router(reg, n_servers=2)
        outcomes, _ = router.run([(0.0, "bfs", 2, 50.0)])
        (o,) = outcomes
        assert o.arrival.graph == "g0"  # None resolved to the sole graph
        assert o.server in (0, 1)


class TestPlacements:
    def test_registry_has_three_builtins(self):
        assert {"affinity", "least-loaded", "p2c"} <= set(PLACEMENTS)

    def test_resolve_placement(self):
        assert resolve_placement("affinity") is PLACEMENTS["affinity"]
        with pytest.raises(ValueError, match="unknown placement"):
            resolve_placement("ring")

    def test_affinity_pins_each_graph_to_its_home_server(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, placement="affinity")
        stream = []
        for i in range(6):
            stream.append((i * 1.0, "bfs", i, 400.0, "bulk", "g0"))
            stream.append((i * 1.0 + 0.5, "bfs", i, 400.0, "bulk", "g1"))
        outcomes, _ = router.run(stream, verify=True)
        for o in outcomes:
            assert o.server == reg.index(o.arrival.graph)

    def test_least_loaded_uses_both_servers(self):
        """Two same-instant batches of different kinds on one graph
        spread across the pool instead of queueing on one server."""
        reg = make_registry(sizes=(200,))
        router = Router(reg, n_servers=2, placement="least-loaded")
        stream = [
            (0.0, "bfs", 1, 1e-3, "bulk", "g0"),
            (0.0, "sssp", 1, 1e-3, "bulk", "g0"),
        ]
        outcomes, rep = router.run(stream, verify=True)
        assert {o.server for o in outcomes} == {0, 1}
        assert all(n == 1 for n in rep.server_launches)

    def test_p2c_is_deterministic_given_seed(self):
        reg = make_registry()
        stream = multi_graph_poisson_stream(
            {n: reg[n].engine.n for n in reg.names},
            requests=16, rate_qps=4000, seed=3,
        )
        router = Router(reg, n_servers=3, placement="p2c", seed=11)
        out1, rep1 = router.run(stream)
        out2, rep2 = router.run(stream)
        assert [o.server for o in out1] == [o.server for o in out2]
        assert rep1.server_launches == rep2.server_launches

    def test_every_placement_serves_verified(self):
        reg = make_registry()
        router = Router(reg, n_servers=2)
        stream = multi_graph_poisson_stream(
            {n: reg[n].engine.n for n in reg.names},
            requests=12, rate_qps=3000, seed=1,
        )
        for name in PLACEMENTS:
            _, rep = router.run(stream, placement=name, verify=True)
            assert rep.placement == name
            assert rep.served == 12 and rep.verified


class TestClusterScaling:
    def test_cluster_sustains_rate_single_server_cannot(self):
        """Acceptance criterion in miniature: the same aggregate stream
        that overwhelms one server is served by a 2-server shard with
        strictly better attainment (the bench asserts the >= 95% flip
        at full scale)."""
        reg = make_registry(sizes=(200, 160))
        sizes = {n: reg[n].engine.n for n in reg.names}
        stream = multi_graph_poisson_stream(
            sizes, requests=60, rate_qps=400000,
            mix=(0.3, 0.6, 0.1), slo_ms=0.3, urgent_slo_ms=0.3,
            urgent_fraction=0.05, seed=2,
        )
        single = Router(reg, n_servers=1).run(stream)[1]
        duo = Router(reg, n_servers=2).run(stream, verify=True)[1]
        assert single.slo_attainment < 0.95
        assert duo.slo_attainment >= 0.95
        assert duo.slo_attainment > single.slo_attainment
        assert duo.verified
        assert duo.mean_batch_width > 1.0

    def test_report_accounting(self):
        reg = make_registry()
        router = Router(reg, n_servers=2)
        stream = multi_graph_poisson_stream(
            {n: reg[n].engine.n for n in reg.names},
            requests=16, rate_qps=4000, seed=6,
        )
        outcomes, rep = router.run(stream, verify=True)
        assert rep.n_servers == 2
        assert rep.served == 16
        assert 0 < rep.utilization <= 1.0
        assert rep.imbalance >= 1.0
        assert rep.busy_ms == pytest.approx(sum(rep.server_busy_ms))
        assert sum(rep.server_launches) == rep.batches
        assert set(rep.graph_attainment) <= set(reg.names)
        assert rep.makespan_ms == pytest.approx(
            max(o.finish_ms for o in outcomes)
        )


# ----------------------------------------------------------------------
# Queue p95
# ----------------------------------------------------------------------
RUN_ONCE = """
import sys
from repro.datasets.generators import hybrid_pattern, road_pattern
from repro.serving import GraphRegistry, Router, multi_graph_poisson_stream
reg = GraphRegistry()
reg.add("g0", hybrid_pattern(128, seed=3), tile_dim=16)
reg.add("g1", road_pattern(96, seed=4), tile_dim=16)
stream = multi_graph_poisson_stream(
    {n: reg[n].engine.n for n in reg.names}, requests=24,
    rate_qps=2000.0, seed=1,
)
print("numpy.ma" in sys.modules)
outcomes, rep = Router(reg, n_servers=2).run(stream)
print(rep.p95_queue_ms > 0, "numpy.ma" in sys.modules)
"""


class TestQueueP95:
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                st.floats(min_value=0.0, max_value=1e6),
                st.floats(min_value=0.0, max_value=1e-3),
            ),
            min_size=1, max_size=399,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_percentile(self, values):
        """Ties, zeros and wide magnitudes: bit for bit."""
        want = float(np.percentile(values, 95))
        assert _p95(values) == want
        assert np.float64(_p95(values)).tobytes() == np.float64(want).tobytes()

    def test_matches_numpy_on_exponential_values(self):
        rng = np.random.default_rng(0)
        for n in range(1, 400):
            values = [float(v) for v in rng.exponential(2.0, n)]
            assert _p95(values) == float(np.percentile(values, 95))

    def test_router_run_does_not_import_numpy_ma(self):
        """The report's queue p95 runs inside a measured ``Router.run``;
        ``np.percentile`` would import ``numpy.ma`` there (through
        ``np.unique``) on first use."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ONCE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "False"], proc.stdout
