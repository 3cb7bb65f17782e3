"""Fault tolerance and elasticity (repro.serving.faults + the router's
recovery machinery): declarative fault plans, mid-flight crash re-queue
with bitwise verification, fail-closed accounting, work stealing,
speed-aware placement over heterogeneous fleets, and attainment-driven
autoscaling."""

import math

import numpy as np
import pytest

from repro.datasets.generators import hybrid_pattern, road_pattern
from repro.formats.shm import shm_available
from repro.serving import (
    Autoscaler,
    FaultEvent,
    FaultPlan,
    GraphRegistry,
    Router,
    Server,
    WorkerPool,
    chaos_plan,
    multi_graph_poisson_stream,
    parse_fail_spec,
    parse_speed_spec,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def make_registry(max_batch=8, sizes=(256, 256)):
    reg = GraphRegistry(max_batch=max_batch)
    builders = (hybrid_pattern, road_pattern)
    for i, n in enumerate(sizes):
        g = builders[i % len(builders)](n, seed=3 + i)
        reg.add(f"g{i}", g, tile_dim=16)
    return reg


def make_stream(reg, *, rate_qps=24000.0, requests=64, slo_ms=6.0,
                urgent_slo_ms=3.0, seed=2, shares=None,
                mix=(0.5, 0.4, 0.1)):
    sizes = {name: reg[name].engine.n for name in reg.names}
    return multi_graph_poisson_stream(
        sizes, requests=requests, rate_qps=rate_qps, shares=shares,
        mix=mix, slo_ms=slo_ms, urgent_slo_ms=urgent_slo_ms,
        urgent_fraction=0.1, seed=seed,
    )


def assert_accounted(outcomes, report):
    """Every query either served (result) or failed closed (reason) —
    never both, never neither — and the report counts each side."""
    for o in outcomes:
        assert (o.result is not None) ^ (o.failure is not None)
    failed = sum(o.failed for o in outcomes)
    assert report.failed == failed
    assert report.served + report.failed == len(outcomes)


def crash_window(outcomes, sid):
    """Midpoint of the widest launch window served by ``sid`` — a crash
    scheduled there is guaranteed to land mid-flight."""
    wins = [
        (o.launch_ms, o.finish_ms)
        for o in outcomes
        if o.server == sid and o.finish_ms > o.launch_ms
    ]
    assert wins, f"baseline run never launched on server {sid}"
    lo, hi = max(wins, key=lambda w: w[1] - w[0])
    return (lo + hi) / 2.0, hi


# ----------------------------------------------------------------------
# Plans and parsing
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_fail_spec(self):
        assert parse_fail_spec("1@3.5") == (1, 3.5)
        assert parse_fail_spec("0@0") == (0, 0.0)

    @pytest.mark.parametrize(
        "spec", ["1", "x@y", "1@", "@2", "-1@3", "1@-3", "1@nan", "1@inf"]
    )
    def test_parse_fail_spec_rejects(self, spec):
        with pytest.raises(ValueError, match="spec"):
            parse_fail_spec(spec)

    def test_parse_speed_spec(self):
        assert parse_speed_spec("2=0.5") == (2, 0.5)

    @pytest.mark.parametrize(
        "spec", ["2", "a=b", "2=0", "2=-1", "-1=0.5", "2=inf"]
    )
    def test_parse_speed_spec_rejects(self, spec):
        with pytest.raises(ValueError, match="spec"):
            parse_speed_spec(spec)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time_ms=0.0, kind="melt", sid=0).validate()
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="time"):
                FaultEvent(time_ms=t, kind="crash", sid=0).validate()
        for speed in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="speed"):
                FaultEvent(
                    time_ms=0.0, kind="slow", sid=0, speed=speed
                ).validate()
        # A NaN crash would sort first and stall the replay cursor, so
        # the real crash behind it would never apply: the router
        # refuses the plan instead.
        reg = make_registry()
        plan = FaultPlan().crash(1, at=math.nan).crash(0, at=1.0)
        with pytest.raises(ValueError, match="time"):
            Router(reg, n_servers=2).run(
                make_stream(reg, requests=8), faults=plan, verify=False
            )

    def test_plan_validate_fleet_bound(self):
        plan = FaultPlan().crash(5, at=1.0)
        plan.validate()  # unbounded: fine
        with pytest.raises(ValueError, match="sids < 2"):
            plan.validate(n_servers=2)

    def test_sorted_events_stable(self):
        plan = (
            FaultPlan()
            .crash(1, at=5.0)
            .crash(0, at=1.0)
            .recover(1, at=5.0)
        )
        ordered = plan.sorted_events()
        assert [e.time_ms for e in ordered] == [1.0, 5.0, 5.0]
        # insertion order preserved at equal times
        assert ordered[1].kind == "crash" and ordered[2].kind == "recover"

    def test_from_specs(self):
        plan = FaultPlan.from_specs(fail=["1@2.0"], recover=["1@8.0"])
        kinds = [(e.kind, e.sid, e.time_ms) for e in plan.sorted_events()]
        assert kinds == [("crash", 1, 2.0), ("recover", 1, 8.0)]

    def test_chaos_plan_deterministic_and_bounded(self):
        a = chaos_plan(4, 100.0, crashes=2, seed=7)
        b = chaos_plan(4, 100.0, crashes=2, seed=7)
        assert a.sorted_events() == b.sorted_events()
        crashes = [e for e in a.events if e.kind == "crash"]
        assert len(crashes) == 2
        assert all(20.0 <= e.time_ms <= 80.0 for e in crashes)
        with pytest.raises(ValueError, match="survivor"):
            chaos_plan(2, 100.0, crashes=2)


# ----------------------------------------------------------------------
# Server fault surface
# ----------------------------------------------------------------------
class TestServerFaults:
    def test_crash_refunds_unfinished_service(self):
        s = Server(0)
        s.start(0.0, 10.0)
        lost = s.crash(4.0)
        assert lost == pytest.approx(6.0)
        assert s.busy_ms == pytest.approx(4.0)
        assert not s.up and s.free_at == 4.0

    def test_start_on_down_server_raises(self):
        s = Server(0)
        s.crash(0.0)
        with pytest.raises(RuntimeError, match="down"):
            s.start(1.0, 1.0)

    def test_recover_restores_idle(self):
        s = Server(0)
        s.crash(2.0)
        s.recover(5.0)
        assert s.up and s.idle(5.0)
        assert s.start(5.0, 1.0) == 6.0

    def test_speed_scales_service_duration(self):
        s = Server(0, speed=0.5)
        assert s.start(0.0, 2.0) == 4.0  # half speed: twice the wall
        fast = Server(1, speed=2.0)
        assert fast.start(0.0, 2.0) == 1.0

    def test_draining_server_not_available(self):
        s = Server(0)
        assert s.available
        s.draining = True
        assert not s.available and s.up


# ----------------------------------------------------------------------
# Crash, re-queue, recover
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_midflight_crash_requeues_and_stays_bitwise(self):
        reg = make_registry()
        router = Router(reg, n_servers=3, seed=0)
        stream = make_stream(reg)
        out0, _ = router.run(stream, placement="least-loaded", verify=True)
        at, hi = crash_window(out0, 1)

        plan = FaultPlan().crash(1, at=at).recover(1, at=hi + 5.0)
        out, rep = router.run(
            stream, placement="least-loaded", verify=True, faults=plan
        )
        assert rep.faults == 2 and rep.requeues >= 1
        assert rep.failed == 0
        assert_accounted(out, rep)
        requeued = [o for o in out if o.retries > 0]
        assert requeued, "mid-flight crash produced no re-queued queries"
        # verify=True already asserted bitwise equality inside run();
        # re-executed answers carry results like any served query.
        assert all(o.result is not None for o in requeued)
        kinds = [f.kind for f in rep.extra["faults"]]
        assert kinds == ["crash", "recover"]
        assert rep.extra["faults"][0].requeued >= 1

    def test_deterministic_replay(self):
        reg = make_registry()
        router = Router(reg, n_servers=3, seed=0)
        stream = make_stream(reg)
        plan = FaultPlan().crash(1, at=1.0).recover(1, at=4.0)

        def run():
            out, rep = router.run(
                stream, placement="least-loaded", faults=plan
            )
            return (
                [(o.finish_ms, o.server, o.failure, o.retries) for o in out],
                rep.requeues,
                rep.steals,
            )

        assert run() == run()

    def test_total_loss_fails_closed(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg)
        plan = FaultPlan().crash(0, at=0.5).crash(1, at=0.5)
        out, rep = router.run(
            stream, placement="least-loaded", faults=plan
        )
        assert_accounted(out, rep)
        stranded = [o for o in out if o.failure and "stranded" in o.failure]
        assert stranded, "no-survivor queries must fail closed as stranded"
        assert rep.failed == len([o for o in out if o.failed])
        assert rep.failed > 0
        # failed queries never count toward attainment
        assert all(not o.slo_met for o in out if o.failed)

    def test_retry_budget_exhaustion(self):
        reg = make_registry()
        router = Router(reg, n_servers=3, seed=0)
        stream = make_stream(reg)
        out0, _ = router.run(stream, placement="least-loaded")
        at, _hi = crash_window(out0, 1)
        plan = FaultPlan().crash(1, at=at)
        out, rep = router.run(
            stream, placement="least-loaded", faults=plan, max_requeues=0
        )
        assert_accounted(out, rep)
        exhausted = [
            o for o in out if o.failure and "retry budget" in o.failure
        ]
        assert exhausted, "max_requeues=0 must fail the in-flight batch"
        # survivors kept serving
        assert any(o.result is not None for o in out)

    def test_fault_on_unprovisioned_sid_recorded_as_skipped(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, rate_qps=2000.0, requests=16)
        plan = FaultPlan().crash(3, at=0.1)
        scaler = Autoscaler(min_servers=1, max_servers=4)
        out, rep = router.run(
            stream, placement="least-loaded", faults=plan,
            autoscaler=scaler,
        )
        kinds = [f.kind for f in rep.extra["faults"]]
        assert "skipped-crash" in kinds
        assert_accounted(out, rep)

    def test_fault_sid_out_of_range_rejected(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, requests=8)
        with pytest.raises(ValueError, match="sids < 2"):
            router.run(stream, faults=FaultPlan().crash(5, at=1.0))

    def test_slow_event_changes_speed(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, rate_qps=4000.0)
        plan = FaultPlan().slow(1, at=0.0, speed=0.25)
        out, rep = router.run(
            stream, placement="least-loaded", faults=plan, verify=True
        )
        assert rep.server_speed[1] == 0.25
        assert rep.server_speed[0] == 1.0
        assert_accounted(out, rep)
        assert rep.failed == 0


# ----------------------------------------------------------------------
# Work stealing
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_committed_batches_stolen_from_dead_server(self):
        reg = make_registry(max_batch=4)
        router = Router(reg, n_servers=2, seed=0)
        # everything arrives near-instantly: deep backlog, so batches
        # commit to the affinity server while it is busy
        stream = make_stream(reg, rate_qps=100000.0)
        out0, _ = router.run(stream, placement="affinity")
        at, _hi = crash_window(out0, 1)
        plan = FaultPlan().crash(1, at=at)
        out, rep = router.run(
            stream, placement="affinity", verify=True, faults=plan
        )
        assert rep.steals >= 1
        steals = rep.extra["steals"]
        assert {s.reason for s in steals} == {"down"}
        assert all(s.from_sid == 1 and s.to_sid == 0 for s in steals)
        assert_accounted(out, rep)
        assert rep.failed == 0  # everything re-landed on the survivor

    def test_backed_up_steal_requires_opt_in(self):
        reg = make_registry(max_batch=4)
        router = Router(reg, n_servers=2, seed=0)
        # skewed shares: g1's affinity server backlogs while g0's idles
        stream = make_stream(
            reg, rate_qps=60000.0, shares={"g0": 0.1, "g1": 0.9}
        )
        _, rep_off = router.run(stream, placement="affinity")
        assert rep_off.steals == 0  # default: no steal, exact parity
        out, rep_on = router.run(
            stream, placement="affinity", verify=True, steal=True
        )
        assert rep_on.steals >= 1
        assert {s.reason for s in rep_on.extra["steals"]} == {"backed-up"}
        assert_accounted(out, rep_on)


# ----------------------------------------------------------------------
# Heterogeneous fleets
# ----------------------------------------------------------------------
class TestSpeedAwarePlacement:
    def test_speeds_validation(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, requests=8)
        for factor in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="speed"):
                router.run(stream, speeds={0: factor})
        with pytest.raises(ValueError, match="server"):
            router.run(stream, speeds={5: 1.0})

    def test_report_carries_fleet_speeds(self):
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, rate_qps=4000.0)
        _, rep = router.run(
            stream, placement="speed-aware", speeds={1: 0.5}
        )
        assert rep.server_speed == [1.0, 0.5]
        assert 0.0 <= rep.speed_utilization <= 1.0

    def test_speed_aware_beats_blind_on_heterogeneous_fleet(self):
        reg = make_registry(max_batch=4)
        router = Router(reg, n_servers=3, seed=0)
        stream = make_stream(
            reg, rate_qps=48000.0, requests=96, slo_ms=0.6,
            urgent_slo_ms=0.25, mix=(0.3, 0.6, 0.1),
        )
        speeds = {0: 1.0, 1: 1.0, 2: 0.2}
        _, blind = router.run(
            stream, placement="least-loaded", speeds=speeds
        )
        _, aware = router.run(
            stream, placement="speed-aware", speeds=speeds, verify=True
        )
        assert aware.slo_attainment > blind.slo_attainment


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(min_servers=0).validate()
        with pytest.raises(ValueError):
            Autoscaler(min_servers=4, max_servers=2).validate()
        with pytest.raises(ValueError):
            Autoscaler(interval_ms=0.0).validate()
        with pytest.raises(ValueError):
            Autoscaler(upscale_below=1.2).validate()
        Autoscaler().validate()

    def test_upscales_under_overload_and_improves_attainment(self):
        reg = make_registry(max_batch=4)
        router = Router(reg, n_servers=1, seed=0)
        stream = make_stream(
            reg, rate_qps=48000.0, requests=96, slo_ms=0.6,
            urgent_slo_ms=0.25, mix=(0.3, 0.6, 0.1),
        )
        _, fixed = router.run(stream, placement="least-loaded")
        scaler = Autoscaler(
            min_servers=1, max_servers=4, interval_ms=0.1, window=8
        )
        out, rep = router.run(
            stream, placement="least-loaded", autoscaler=scaler,
            verify=True,
        )
        adds = [s for s in rep.extra["scales"] if s.action == "add"]
        assert adds, "overloaded fleet never upscaled"
        assert rep.n_servers > 1
        assert rep.slo_attainment > fixed.slo_attainment
        assert_accounted(out, rep)

    def test_drains_idle_capacity_stop_placing_then_finish(self):
        reg = make_registry()
        router = Router(reg, n_servers=4, seed=0)
        stream = make_stream(
            reg, rate_qps=800.0, requests=60, slo_ms=20.0,
            urgent_slo_ms=8.0, seed=3,
        )
        scaler = Autoscaler(
            min_servers=1, max_servers=4, interval_ms=2.0, window=12
        )
        out, rep = router.run(
            stream, placement="least-loaded", autoscaler=scaler,
            verify=True,
        )
        actions = [(s.action, s.sid) for s in rep.extra["scales"]]
        drains = [s for s in rep.extra["scales"] if s.action == "drain"]
        drained = [s for s in rep.extra["scales"] if s.action == "drained"]
        assert drains and drained
        # every completed drain was announced first (stop placing ...)
        announced = {s.sid for s in drains}
        assert {s.sid for s in drained} <= announced
        # ... then finish: nothing launches on a drained server after
        # its drain completed
        done_at = {s.sid: s.time_ms for s in drained}
        for o in out:
            if o.server in done_at and o.result is not None:
                assert o.launch_ms <= done_at[o.server] + 1e-9, actions
        assert rep.scale_events == len(actions)
        assert_accounted(out, rep)
        assert rep.failed == 0


# ----------------------------------------------------------------------
# Real data plane under faults
# ----------------------------------------------------------------------
@needs_shm
class TestRealDataPlaneFaults:
    def test_crash_kills_pinned_worker_and_recovers(self):
        """A modeled crash SIGKILLs the pinned worker; the recovery
        respawns it.  Wall-clock timing decides how many real batches
        need re-execution, so the assertions here are the invariants:
        full accounting, bitwise verification (inside ``run``), the
        fault record trail, and a leak-free teardown."""
        reg = make_registry()
        router = Router(reg, n_servers=2, seed=0)
        stream = make_stream(reg, rate_qps=8000.0, requests=32)
        out0, _ = router.run(stream, placement="least-loaded")
        at, hi = crash_window(out0, 1)
        plan = FaultPlan().crash(1, at=at).recover(1, at=hi + 5.0)
        with WorkerPool(reg, processes=2) as pool:
            out, rep = router.run(
                stream, placement="least-loaded", verify=True,
                faults=plan, data_plane=pool,
            )
            assert_accounted(out, rep)
            kinds = [f.kind for f in rep.extra["faults"]]
            assert kinds == ["crash", "recover"]
            plane = rep.extra["data_plane"]
            assert plane["processes"] == 2
            # every query that carries a result was re-checked bitwise
            # against a solo run by verify=True; failures (if the kill
            # raced ahead of the respawn) are accounted, not lost
            assert rep.failed == sum(1 for o in out if o.failed)
            assert pool.worker_alive(0)
        from repro.formats.shm import list_segments

        segs = list_segments()
        assert segs is None or segs == []
