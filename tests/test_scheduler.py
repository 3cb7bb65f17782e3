"""Tests for online SLO-aware scheduling — one graph on a one-server
:class:`repro.serving.cluster.Router` — and the arrival-stream
generators (repro.serving.arrivals)."""

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, sssp
from repro.datasets.generators import hybrid_pattern
from repro.serving import (
    POLICIES,
    Arrival,
    FaultPlan,
    GraphRegistry,
    Router,
    poisson_stream,
    trace_stream,
)
from repro.serving.admission import AdmissionPolicy


def make_scheduler(
    n=200, seed=4, tile_dim=16, max_batch=64, slack_factor=1.5
):
    """One graph on one server: the single-backend online scheduler."""
    g = hybrid_pattern(n, seed=seed)
    registry = GraphRegistry(max_batch=max_batch)
    entry = registry.add("g", g, tile_dim=tile_dim)
    router = Router(registry, n_servers=1, slack_factor=slack_factor)
    return g, entry.engine, entry.cc_engine, router


def run_policies(router, stream, *, verify=False):
    """Every admission policy on one stream."""
    return {
        name: router.run(stream, policy=name, verify=verify)
        for name in POLICIES
    }


class TestArrivals:
    def test_poisson_stream_shape_and_determinism(self):
        a = poisson_stream(100, requests=40, rate_qps=500, seed=3)
        b = poisson_stream(100, requests=40, rate_qps=500, seed=3)
        assert a == b
        assert len(a) == 40
        times = [x.time_ms for x in a]
        assert times == sorted(times)
        assert all(x.kind in ("bfs", "sssp", "cc") for x in a)
        assert all(
            (x.source is None) == (x.kind == "cc") for x in a
        )
        assert {x.lane for x in a} <= {"urgent", "bulk"}

    def test_poisson_stream_urgent_fraction_extremes(self):
        all_urgent = poisson_stream(
            50, requests=20, urgent_fraction=1.0, seed=0
        )
        assert all(x.lane == "urgent" for x in all_urgent)
        none_urgent = poisson_stream(
            50, requests=20, urgent_fraction=0.0, seed=0
        )
        assert all(x.lane == "bulk" for x in none_urgent)

    def test_poisson_stream_validation(self):
        with pytest.raises(ValueError):
            poisson_stream(50, requests=0)
        with pytest.raises(ValueError):
            poisson_stream(50, rate_qps=0.0)
        with pytest.raises(ValueError):
            poisson_stream(50, urgent_fraction=1.5)
        with pytest.raises(ValueError):
            poisson_stream(50, mix=(1.0, -1.0, 0.0))

    def test_trace_stream_sorts_and_validates(self):
        rows = [
            (5.0, "bfs", 3, 10.0),
            (1.0, "sssp", 2, 10.0, "urgent"),
            (3.0, "cc", None, 10.0),
        ]
        stream = trace_stream(rows, n_vertices=10)
        assert [a.time_ms for a in stream] == [1.0, 3.0, 5.0]
        assert stream[0].lane == "urgent"
        with pytest.raises(ValueError, match="unknown query kind"):
            trace_stream([(0.0, "pagerank", 1, 5.0)])
        with pytest.raises(ValueError, match="graph-global"):
            trace_stream([(0.0, "cc", 3, 5.0)])
        with pytest.raises(ValueError, match="source"):
            trace_stream([(0.0, "bfs", 99, 5.0)], n_vertices=10)
        with pytest.raises(ValueError, match="slo_ms"):
            trace_stream([(0.0, "bfs", 1, 0.0)])
        with pytest.raises(ValueError, match="lane"):
            trace_stream([(0.0, "bfs", 1, 5.0, "background")])
        with pytest.raises(ValueError, match="rows"):
            trace_stream([(0.0, "bfs")])

    def test_deadline_property(self):
        a = Arrival(2.0, "bfs", 1, 7.5)
        assert a.deadline_ms == 9.5


class TestSchedulerEdgeCases:
    def test_empty_stream(self):
        _, _, _, s = make_scheduler()
        outcomes, rep = s.run([], verify=True)
        assert outcomes == []
        assert rep.served == 0 and rep.batches == 0
        assert rep.slo_attainment == 1.0
        assert rep.makespan_ms == 0.0

    def test_unknown_policy_rejected(self):
        _, _, _, s = make_scheduler()
        with pytest.raises(ValueError, match="unknown policy"):
            s.run([], policy="edf")

    def test_bad_slack_factor_rejected(self):
        with pytest.raises(ValueError, match="slack_factor"):
            make_scheduler(slack_factor=0.5)

    def test_max_batch_one_degenerates_to_fcfs(self):
        """With join capacity 1 every query is its own launch, served in
        arrival order — the scheduler collapses to FCFS."""
        _, _, _, s = make_scheduler(max_batch=1)
        stream = [
            (i * 0.25, "bfs", i % 7, 100.0) for i in range(8)
        ]
        outcomes, rep = s.run(stream, verify=True)
        assert rep.batches == 8 and rep.joins == 0
        assert rep.mean_batch_width == 1.0
        launches = [o.launch_ms for o in outcomes]
        assert launches == sorted(launches)  # arrival order preserved
        assert all(o.batch_width == 1 for o in outcomes)

    def test_immediate_deadlines_degenerate_to_flush_per_arrival(self):
        """Budgets with no slack leave nothing to wait for: every arrival
        launches as soon as the server frees, one query per batch when
        arrivals are spaced wider than service."""
        _, _, _, s = make_scheduler()
        stream = [(i * 50.0, "bfs", i, 1e-3) for i in range(6)]
        outcomes, rep = s.run(stream)
        assert rep.batches == 6
        assert rep.mean_batch_width == 1.0
        # Launched immediately on arrival (server idle between them).
        for o in outcomes:
            assert o.queue_ms == pytest.approx(0.0, abs=1e-6)

    def test_midflight_join_exactness(self):
        """A query arriving while a compatible batch is open joins it,
        and the joined batch's answers are bitwise equal to solo runs."""
        _, engine, _, s = make_scheduler()
        stream = [
            (0.0, "bfs", 3, 500.0),
            (1.0, "bfs", 17, 500.0),   # joins the open batch
            (2.0, "sssp", 5, 500.0),
            (3.0, "sssp", 9, 500.0),   # joins the sssp batch
        ]
        outcomes, rep = s.run(stream, verify=True)
        assert rep.joins >= 2
        assert rep.verified
        by_seq = {i: o for i, o in enumerate(outcomes)}
        assert by_seq[0].batch_width == 2 and by_seq[1].batch_width == 2
        assert by_seq[2].batch_width == 2 and by_seq[3].batch_width == 2
        for i, (t, kind, src, slo) in enumerate(stream):
            solo = (bfs if kind == "bfs" else sssp)(engine, src)[0]
            assert np.array_equal(
                by_seq[i].result, solo, equal_nan=True
            ), i
        # Members of one batch share launch and finish instants.
        assert by_seq[0].launch_ms == by_seq[1].launch_ms
        assert by_seq[0].finish_ms == by_seq[1].finish_ms

    def test_join_while_server_busy(self):
        """Arrivals landing mid-service join the open next batch instead
        of launching alone."""
        _, _, _, s = make_scheduler()
        stream = [
            (0.0, "bfs", 0, 1e-3),     # launches immediately, busies server
            (0.01, "bfs", 1, 400.0),   # opens a batch while busy
            (0.02, "bfs", 2, 400.0),   # joins it mid-flight
            (0.03, "bfs", 3, 400.0),   # joins it mid-flight
        ]
        outcomes, rep = s.run(stream, verify=True)
        assert outcomes[0].batch_width == 1
        assert [o.batch_width for o in outcomes[1:]] == [3, 3, 3]
        assert rep.joins >= 2

    def test_cc_requests_dedup_into_one_batch(self):
        _, _, cc_engine, s = make_scheduler()
        stream = [(float(i), "cc", None, 500.0) for i in range(3)]
        outcomes, rep = s.run(stream, verify=True)
        assert rep.batches == 1
        ref, _ = connected_components(cc_engine)
        for o in outcomes:
            assert np.array_equal(o.result, ref)

    def test_rejects_bad_sources(self):
        g, _, _, s = make_scheduler()
        with pytest.raises(ValueError):
            s.run([(0.0, "bfs", g.n, 10.0)])


class TestPriorityLanes:
    def test_urgent_preempts_bulk_accumulation(self):
        """An urgent arrival launches while the bulk lane is still
        waiting out its slack, and same-kind bulk riders are absorbed
        into the urgent launch."""
        _, _, _, s = make_scheduler()
        stream = [
            (0.0, "bfs", 1, 200.0, "bulk"),
            (0.5, "bfs", 2, 200.0, "bulk"),
            (1.0, "bfs", 3, 5.0, "urgent"),
        ]
        outcomes, rep = s.run(stream, verify=True)
        urgent = outcomes[2]
        assert urgent.slo_met
        # The urgent launch absorbed the waiting bulk queries: one batch
        # of three, launched at the urgent arrival, not at bulk slack.
        assert rep.batches == 1
        assert urgent.batch_width == 3
        assert urgent.launch_ms == pytest.approx(1.0, abs=1e-6)
        for o in outcomes[:2]:
            assert o.launch_ms == pytest.approx(1.0, abs=1e-6)

    def test_starvation_bound_under_sustained_urgent_load(self):
        """Deadline aging: an overdue bulk batch outranks newer urgent
        work, so sustained urgent traffic cannot starve the bulk lane
        past its slack plus one in-flight service."""
        _, _, _, s = make_scheduler()
        stream = [(0.2, "sssp", 7, 60.0, "bulk")]
        stream += [
            (0.1 * i, "bfs", i % 11, 8.0, "urgent") for i in range(120)
        ]
        outcomes, rep = s.run(trace_stream(stream, n_vertices=200))
        bulk = [o for o in outcomes if o.arrival.lane == "bulk"]
        assert len(bulk) == 1
        assert bulk[0].slo_met  # served within its budget regardless
        # Preemption really happened: urgent launches preceded the bulk
        # launch even though the bulk query arrived first.
        urgent_launches = [
            o.launch_ms for o in outcomes if o.arrival.lane == "urgent"
        ]
        assert min(urgent_launches) < bulk[0].launch_ms
        assert rep.lane_attainment["urgent"] >= 0.95


class TestPoliciesAndReports:
    def test_compare_runs_all_policies(self):
        _, _, _, s = make_scheduler()
        stream = poisson_stream(200, requests=24, rate_qps=2000, seed=2)
        results = run_policies(s, stream, verify=True)
        assert set(results) == set(POLICIES)
        for _, rep in results.values():
            assert rep.served == 24
            assert rep.verified

    def test_slo_policy_batches_and_attains(self):
        """The acceptance criterion in miniature: on a feasible stream
        the SLO policy batches (mean width > 1) while attaining >= 95%,
        with every answer verified bitwise-equal to its solo run."""
        _, _, _, s = make_scheduler(max_batch=32)
        stream = poisson_stream(
            200, requests=48, rate_qps=2000, slo_ms=30.0,
            urgent_slo_ms=8.0, seed=5,
        )
        outcomes, rep = s.run(stream, policy="slo", verify=True)
        assert rep.slo_attainment >= 0.95
        assert rep.mean_batch_width > 1.0
        assert rep.joins > 0
        assert rep.verified

    def test_slo_beats_fcfs_under_load(self):
        """Under tight budgets and high arrival rate, FCFS misses
        deadlines that the batching scheduler meets, with less server
        busy time."""
        _, _, _, s = make_scheduler(max_batch=32)
        stream = poisson_stream(
            200, requests=64, rate_qps=6000, slo_ms=6.0,
            urgent_slo_ms=3.0, seed=7,
        )
        results = run_policies(s, stream)
        _, slo_rep = results["slo"]
        _, fcfs_rep = results["fcfs"]
        assert slo_rep.slo_attainment > fcfs_rep.slo_attainment
        assert slo_rep.busy_ms < fcfs_rep.busy_ms
        assert slo_rep.mean_batch_width > 1.0

    def test_flush_policy_coalesces_only_backlog(self):
        """The flush baseline launches whatever is pending the moment
        the server frees — it batches only what queues behind service,
        never waits for riders."""
        _, _, _, s = make_scheduler()
        stream = [(i * 100.0, "bfs", i, 1000.0) for i in range(5)]
        _, rep = s.run(stream, policy="flush")
        # Spaced arrivals + idle server: no batching opportunity at all.
        assert rep.mean_batch_width == 1.0
        assert rep.mean_queue_ms == pytest.approx(0.0, abs=1e-6)

    def test_outcome_latency_decomposition(self):
        _, _, _, s = make_scheduler()
        outcomes, rep = s.run([(1.0, "bfs", 4, 50.0)], verify=True)
        (o,) = outcomes
        # A lone bulk query waits out its deadline slack for riders that
        # never come (the policy cannot see the future), then launches
        # with enough margin to finish inside its budget.
        assert o.launch_ms >= o.arrival.time_ms
        assert o.service_ms > 0
        assert o.finish_ms == pytest.approx(o.launch_ms + o.service_ms)
        assert o.latency_ms == pytest.approx(o.queue_ms + o.service_ms)
        assert o.slo_met
        assert rep.makespan_ms == o.finish_ms
        assert 0 < rep.utilization <= 1.0

    def test_unverified_run_reports_unverified(self):
        _, _, _, s = make_scheduler()
        _, rep = s.run([(0.0, "bfs", 2, 50.0)])
        assert not rep.verified


class TestIncrementalDeadlines:
    """``refresh`` reads each batch's kept minimum deadline; after every
    real refresh, the launch deadlines must equal the min-over-members
    formula it replaced, float for float."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Wrap ``refresh`` with the old formula as a check, and
        ``absorb`` to record what happened to each donor."""
        seen = {"checked": 0, "kept": 0, "emptied": 0}
        real_refresh = AdmissionPolicy.refresh
        real_absorb = AdmissionPolicy.absorb

        def refresh(self, open_batches, ctx):
            real_refresh(self, open_batches, ctx)
            if not self.slo_aware:
                return
            ests = {id(b): ctx.estimate(b) for b in open_batches}
            total_est = sum(ests.values())
            for b in open_batches:
                if b.lane == "urgent":
                    continue
                reserve = (total_est - ests[id(b)]) / ctx.n_servers
                slack = min(
                    a.deadline_ms - ctx.slack_factor * ests[id(b)] - reserve
                    for _, a in b.members
                )
                assert b.launch_at == max(b.created_ms, slack)
                seen["checked"] += 1

        def absorb(self, batch, open_batches, ctx):
            before = [
                (b, len(b.members)) for b in open_batches if b is not batch
            ]
            moved = real_absorb(self, batch, open_batches, ctx)
            for b, width in before:
                if b not in open_batches:
                    seen["emptied"] += 1
                elif len(b.members) < width:
                    seen["kept"] += 1
            return moved

        monkeypatch.setattr(AdmissionPolicy, "refresh", refresh)
        monkeypatch.setattr(AdmissionPolicy, "absorb", absorb)
        return seen

    @staticmethod
    def mixed_budget_stream(seed):
        """Dense BFS traffic, a third of it urgent, with each bulk
        budget drawn from 2–8 ms so a later join can carry an earlier
        deadline than the batch it joins."""
        rng = np.random.default_rng(seed)
        base = poisson_stream(
            200, requests=60, rate_qps=20000, mix=(1.0, 0.0, 0.0),
            slo_ms=5.0, urgent_slo_ms=1.0, urgent_fraction=0.3, seed=seed,
        )
        return [
            Arrival(
                a.time_ms, a.kind, a.source,
                a.slo_ms if a.lane == "urgent" else rng.uniform(2.0, 8.0),
                a.lane,
            )
            for a in base
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_joins_and_absorption(self, seen, seed):
        """Bulk batches fill by mid-flight joins, and urgent launches
        absorb bulk riders, leaving some donors short and emptying
        others."""
        _, _, _, s = make_scheduler(max_batch=4)
        _, rep = s.run(self.mixed_budget_stream(seed), verify=False)
        assert rep.served == 60 and rep.joins > 0
        assert seen["checked"] > 0
        assert seen["kept"] > 0 and seen["emptied"] > 0

    def test_crash_requeue(self, seen):
        """A batch re-admitted after its server crashed mid-flight keeps
        its members' minimum deadline."""
        g = hybrid_pattern(200, seed=4)
        registry = GraphRegistry(max_batch=8)
        registry.add("g", g, tile_dim=16)
        router = Router(registry, n_servers=2, seed=0)
        stream = poisson_stream(
            200, requests=48, rate_qps=20000, urgent_fraction=0.2, seed=5,
        )
        baseline, _ = router.run(
            stream, placement="least-loaded", verify=False
        )
        lo, hi = max(
            (
                (o.launch_ms, o.finish_ms) for o in baseline
                if o.server == 1 and o.finish_ms > o.launch_ms
            ),
            key=lambda w: w[1] - w[0],
        )
        seen["checked"] = 0
        plan = FaultPlan().crash(1, at=(lo + hi) / 2).recover(1, at=hi + 5.0)
        outcomes, rep = router.run(
            stream, placement="least-loaded", faults=plan, verify=False
        )
        assert rep.requeues >= 1 and rep.failed == 0
        assert any(o.retries > 0 for o in outcomes)
        assert seen["checked"] > 0
