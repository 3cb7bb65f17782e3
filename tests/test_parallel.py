"""Data planes (repro.serving.plane, repro.serving.parallel): worker-pool
execution under the Router, bitwise verification across the process
boundary, epoch-swap segment lifecycle, the in-process plane and the
CLI's fallback to it, crash containment with leak-free teardown, and a
seeded differential run of both planes under faults and epoch swaps."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, sssp
from repro.cli import main
from repro.formats.shm import list_segments, shm_available
from repro.graph import Graph
from repro.serving import (
    GraphRegistry,
    InProcessPlane,
    LaunchSpec,
    Router,
    WorkerPool,
    chaos_plan,
    multi_graph_poisson_stream,
    mutation_trace,
)
from repro.serving.arrivals import MutationBatch

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def random_graph(seed=0, n=120, m=520):
    rng = np.random.default_rng(seed)
    edges = np.stack(
        [rng.integers(0, n, m), rng.integers(0, n, m)], axis=1
    )
    return Graph.from_edges(n, edges)


def make_store(n=120):
    store = GraphRegistry()
    store.add("alpha", random_graph(1, n=n))
    store.add("beta", random_graph(2, n=n))
    return store


def make_stream(n=120, requests=24, seed=5):
    return multi_graph_poisson_stream(
        {"alpha": n, "beta": n}, requests=requests, rate_qps=400.0,
        seed=seed,
    )


def assert_no_segments():
    segs = list_segments()
    assert segs is None or segs == []


def specs_for(pool, entry, kinds=("bfs", "sssp", "cc")):
    out = []
    for kind in kinds:
        sources = () if kind == "cc" else (0, 3)
        out.append(
            LaunchSpec(
                batch_id=pool.next_batch_id(),
                graph=entry.name,
                version=entry.version,
                kind=kind,
                sources=sources,
                width=max(1, len(sources)),
            )
        )
    return out


CLUSTER_ARGS = [
    "cluster", "gen:hybrid:120", "gen:road:120", "--servers", "2",
    "--requests", "12", "--rate", "3000",
]


class TestSerialFallback:
    """Serving without worker processes: the in-process plane, which
    ``repro cluster`` uses for ``--workers 0`` and falls back to on a
    host without POSIX shared memory."""

    def test_workers_zero_serves_in_process(self, capsys):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(3))
        with pytest.raises(ValueError, match="processes >= 1"):
            WorkerPool(reg, processes=0)
        plane = InProcessPlane(reg)
        for i, spec in enumerate(specs_for(plane, entry)):
            res = plane.submit(i, spec)
            # finished at once, modeled time only: no clock was read
            assert res.error is None and res.wall_ms == 0.0
            assert res.modeled_ms > 0.0
            if spec.kind == "cc":
                ref, _ = connected_components(entry.cc_engine)
                assert np.array_equal(res.columns, ref, equal_nan=True)
            for j, src in enumerate(spec.sources):
                ref, _ = (bfs if spec.kind == "bfs" else sssp)(
                    entry.engine, src
                )
                assert np.array_equal(
                    res.columns[:, j], ref, equal_nan=True
                )
        assert plane.drain() == {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*CLUSTER_ARGS, "--workers", "0"]) == 0
        assert not [w for w in caught if "in-process" in str(w.message)]
        out = capsys.readouterr().out
        assert "verified bit-identical" in out
        assert "data plane" not in out

    def test_unavailable_shm_falls_back(self, monkeypatch, capsys):
        import repro.serving.parallel as par

        assert main(CLUSTER_ARGS) == 0
        in_process = capsys.readouterr().out
        monkeypatch.setattr(par, "shm_available", lambda: False)
        reg = GraphRegistry()
        reg.add("g", random_graph(3))
        with pytest.raises(RuntimeError, match="shared memory"):
            WorkerPool(reg, processes=2)
        with pytest.warns(RuntimeWarning, match="serving in-process") as w:
            assert main([*CLUSTER_ARGS, "--workers", "2"]) == 0
        assert sum("serving in-process" in str(x.message) for x in w) == 1
        assert capsys.readouterr().out == in_process

    def test_router_serial_plane_bitwise(self):
        store = make_store()
        router = Router(store, n_servers=2)
        stream = make_stream(requests=16)
        base = store.estimator_state()
        out0, rep0 = router.run(stream, verify=True)
        store.restore_estimator_state(base)
        out1, rep1 = router.run(
            stream, verify=True, data_plane=InProcessPlane(store)
        )
        # the default plane *is* the in-process plane: same answers and
        # the same measured-modeled timeline, and no data-plane rows
        assert "data_plane" not in rep0.extra
        assert "data_plane" not in rep1.extra
        assert rep0.busy_ms == rep1.busy_ms
        for a, b in zip(out0, out1, strict=True):
            assert np.array_equal(a.result, b.result, equal_nan=True)
            assert (a.launch_ms, a.finish_ms, a.server) == (
                b.launch_ms, b.finish_ms, b.server
            )
            assert a.baseline_ms is not None
        assert_no_segments()


@needs_shm
class TestWorkerPool:
    def test_router_pool_bitwise_equal_to_solo(self):
        store = make_store()
        router = Router(store, n_servers=2)
        stream = make_stream()
        out0, _ = router.run(stream, verify=True)
        with WorkerPool(store, processes=2) as pool:
            out1, rep1 = router.run(stream, verify=True, data_plane=pool)
        dp = rep1.extra["data_plane"]
        assert dp["backend"] == "process"
        assert dp["processes"] == 2
        assert len(dp["launches"]) > 0
        assert dp["wall_ms_total"] > 0
        assert {r["sid"] for r in dp["launches"]} <= {0, 1}
        for a, b in zip(out0, out1):
            assert np.array_equal(a.result, b.result, equal_nan=True)
        assert_no_segments()

    def test_epoch_swap_exports_and_retires(self):
        store = make_store()
        router = Router(store, n_servers=2)
        stream = make_stream(requests=20)
        rng = np.random.default_rng(9)
        ins = np.stack(
            [rng.integers(0, 120, 30), rng.integers(0, 120, 30)], axis=1
        )
        muts = [MutationBatch(time_ms=4.0, graph="alpha", inserts=ins)]
        with WorkerPool(store, processes=1) as pool:
            before = len(pool.segments() or [])
            out, rep = router.run(
                stream, verify=True, data_plane=pool, mutations=muts
            )
            after = pool.segments() or []
            # the retired epoch's segments were unlinked after its last
            # in-flight batch drained; the new epoch's are live
            assert len(after) == before
        assert rep.swaps == 1
        vers = {
            r["version"]
            for r in rep.extra["data_plane"]["launches"]
            if r["graph"] == "alpha"
        }
        assert vers <= {0, 1}
        assert_no_segments()

    def test_unpublished_version_rejected(self):
        reg = GraphRegistry()
        reg.add("g", random_graph(4))
        with WorkerPool(reg, processes=1) as pool:
            with pytest.raises(KeyError, match="never published"):
                pool.submit(
                    0,
                    LaunchSpec(
                        batch_id=1, graph="g", version=99,
                        kind="bfs", sources=(0,), width=1,
                    ),
                )

    def test_worker_error_surfaces_not_crashes(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(4))
        with WorkerPool(reg, processes=1) as pool:
            bad = LaunchSpec(
                batch_id=pool.next_batch_id(), graph=entry.name,
                version=entry.version, kind="nope", sources=(),
                width=1,
            )
            good = LaunchSpec(
                batch_id=pool.next_batch_id(), graph=entry.name,
                version=entry.version, kind="bfs", sources=(0,),
                width=1,
            )
            pool.submit(0, bad)
            pool.submit(0, good)
            results = pool.drain()
            assert "unknown query kind" in results[bad.batch_id].error
            assert results[good.batch_id].error is None
        assert_no_segments()


@needs_shm
class TestCrashContainment:
    def test_killed_worker_fails_batches_and_leaks_nothing(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(4))
        pool = WorkerPool(reg, processes=1, timeout_s=30.0)
        try:
            assert len(pool.segments() or []) == 2
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            spec = LaunchSpec(
                batch_id=pool.next_batch_id(), graph=entry.name,
                version=entry.version, kind="bfs", sources=(0,),
                width=1,
            )
            pool.submit(0, spec)
            results = pool.drain()
            assert results[spec.batch_id].error is not None
            assert "died" in results[spec.batch_id].error
        finally:
            pool.close()
        # crash left no /dev/shm segments behind
        assert_no_segments()

    def test_kill_mid_batch(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(6, n=220, m=1100))
        pool = WorkerPool(reg, processes=1, timeout_s=30.0)
        try:
            for i in range(4):
                pool.submit(
                    0,
                    LaunchSpec(
                        batch_id=pool.next_batch_id(),
                        graph=entry.name, version=entry.version,
                        kind="sssp", sources=(i,), width=1,
                    ),
                )
            time.sleep(0.05)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            results = pool.drain()
            # every batch resolved: either finished before the kill or
            # failed with a worker-death error — none hang, none lost
            assert len(results) == 4
            for r in results.values():
                assert (r.error is None) == (r.columns is not None)
        finally:
            pool.close()
        assert_no_segments()


@needs_shm
class TestFaultInjection:
    def spec(self, pool, entry, kind="bfs", sources=(0,)):
        return LaunchSpec(
            batch_id=pool.next_batch_id(), graph=entry.name,
            version=entry.version, kind=kind, sources=sources,
            width=max(1, len(sources)),
        )

    def test_kill_and_revive_worker(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(4))
        pool = WorkerPool(reg, processes=2, timeout_s=30.0)
        try:
            assert pool.kill_worker(1)
            assert not pool.worker_alive(1)
            assert pool.worker_alive(0)
            dead = self.spec(pool, entry)
            live = self.spec(pool, entry, sources=(1,))
            pool.submit(1, dead)
            pool.submit(0, live)
            results = pool.drain()
            assert results[dead.batch_id].error is not None
            assert results[live.batch_id].error is None
            # revive: the fresh incarnation re-attaches every published
            # version and serves again
            assert pool.revive_worker(1)
            assert pool.worker_alive(1)
            again = self.spec(pool, entry, sources=(2,))
            pool.submit(1, again)
            res = pool.drain()
            assert res[again.batch_id].error is None
            assert res[again.batch_id].columns is not None
        finally:
            pool.close()
        assert_no_segments()

    def test_revive_noop_on_live_worker(self):
        reg = GraphRegistry()
        reg.add("g", random_graph(4))
        with WorkerPool(reg, processes=1, timeout_s=30.0) as pool:
            assert not pool.revive_worker(0)  # alive: nothing to do
        assert_no_segments()

    def test_in_process_plane_has_nothing_to_kill(self):
        reg = GraphRegistry()
        reg.add("g", random_graph(4))
        plane = InProcessPlane(reg)
        assert not plane.kill_worker(0)
        assert not plane.revive_worker(0)
        assert plane.worker_alive(0)
        assert plane.describe() is None

    def test_stale_incarnation_batches_fail_not_hang(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(4))
        pool = WorkerPool(reg, processes=1, timeout_s=30.0)
        try:
            pool.kill_worker(0)
            lost = self.spec(pool, entry)
            pool.submit(0, lost)  # queued to the dead incarnation
            assert pool.revive_worker(0)
            t0 = time.perf_counter()
            results = pool.drain()
            # the stale batch fails via the incarnation check — it must
            # not wait out the full drain timeout
            assert time.perf_counter() - t0 < 10.0
            assert results[lost.batch_id].error is not None
        finally:
            pool.close()
        assert_no_segments()

    def test_crash_during_epoch_retire_unlinks_after_drain(self):
        store = make_store()
        pool = WorkerPool(store, processes=2, timeout_s=30.0)
        try:
            v0 = store["alpha"]
            baseline = len(pool.segments() or [])
            # in-flight launches against the soon-retired epoch: one on
            # a live worker, one pinned to a worker we crash first (the
            # dead incarnation can never answer, deterministically)
            on_live = self.spec(pool, v0, kind="sssp", sources=(0, 3))
            on_dead = self.spec(pool, v0, kind="sssp", sources=(1, 4))
            pool.submit(0, on_live)
            pool.kill_worker(1)
            pool.submit(1, on_dead)
            # epoch swap: publish v1, retire v0 while its batches fly
            rng = np.random.default_rng(11)
            ins = np.stack(
                [rng.integers(0, 120, 24), rng.integers(0, 120, 24)],
                axis=1,
            )
            v1, _ = store.mutate("alpha", inserts=ins)
            pool.publish(v1)
            assert len(pool.segments() or []) == baseline + 2
            pool.retire("alpha", v0.version)
            results = pool.drain()
            # only the dead worker's batch failed
            assert results[on_live.batch_id].error is None
            assert results[on_dead.batch_id].error is not None
            # the retired epoch still released its segments after the
            # drain — a crash never wedges the unlink
            assert len(pool.segments() or []) == baseline
        finally:
            pool.close()
        assert_no_segments()

    def test_measured_speeds_normalized(self):
        reg = GraphRegistry()
        entry = reg.add("g", random_graph(4))
        pool = WorkerPool(reg, processes=2, timeout_s=30.0)
        try:
            for i in range(4):
                pool.submit(i % 2, self.spec(pool, entry, sources=(i,)))
            results = pool.drain()
            assert all(r.error is None for r in results.values())
            speeds = pool.measured_speeds()
            assert set(speeds) == {0, 1}
            assert all(f > 0 for f in speeds.values())
            # normalized against the fleet mean: factors straddle 1.0
            assert min(speeds.values()) <= 1.0 <= max(speeds.values())
        finally:
            pool.close()
        assert_no_segments()


@needs_shm
class TestPlaneRouting:
    def test_reexecuted_outcomes_name_the_resubmit_server(self):
        """Fewer workers than servers: server 1's worker is dead before
        the run, so graph ``b`` (affinity home: server 1) loses every
        launch and the router re-executes them on the least busy
        surviving server.  Outcomes and launch rows must name that
        server, not the worker index that ran the launch."""
        reg = GraphRegistry()
        for i, name in enumerate(("a", "b", "c")):
            reg.add(name, random_graph(20 + i))
        stream = multi_graph_poisson_stream(
            {"a": 120, "b": 120, "c": 120}, requests=24,
            rate_qps=400.0, seed=3,
        )
        router = Router(reg, n_servers=3, placement="affinity")
        with WorkerPool(reg, processes=2, timeout_s=30.0) as pool:
            pool.kill_worker(1)
            out, rep = router.run(stream, verify=True, data_plane=pool)
        dp = rep.extra["data_plane"]
        assert dp["reexecutions"] > 0 and not dp["failed"]
        # the re-execution target: least modeled busy time among the
        # servers whose worker survived (0 and 2 share worker 0)
        target = min((0, 2), key=lambda sid: (rep.server_busy_ms[sid], sid))
        assert target == 2
        lost = [o for o in out if o.arrival.graph == "b"]
        assert lost and all(o.retries == 1 for o in lost)
        assert {o.server for o in lost} == {target}
        moved = [r for r in dp["launches"] if r["retries"]]
        assert {(r["sid"], r["worker"]) for r in moved} == {(2, 0)}
        assert all(o.result is not None for o in out)
        assert_no_segments()


def _served_xor_failed(outcomes, stream, rep):
    assert len(outcomes) == len(stream)
    failed = 0
    for o, a in zip(outcomes, stream, strict=True):
        assert o.arrival == a
        assert (o.result is None) == (o.failure is not None)
        failed += o.failure is not None
    assert rep.failed == failed
    return {i for i, o in enumerate(outcomes) if o.failure is None}


@needs_shm
@pytest.mark.parametrize("seed", [0, 1])
def test_planes_agree_under_chaos_and_swaps(seed):
    """One seeded stream through the in-process plane and through two
    worker processes, with a crash/recover plan and epoch swaps on both
    graphs, every answer verified.  Modeled timelines differ by design
    (measured modeled time vs estimates), so only answers and
    accounting are compared."""
    stream = make_stream(requests=32, seed=seed)
    horizon = stream[-1].time_ms
    faults = chaos_plan(2, horizon, crashes=1, seed=seed)

    def run(make_plane):
        store = make_store()
        muts = []
        for j, name in enumerate(store.names):
            muts += mutation_trace(
                store[name].graph, batches=2, batch_size=6,
                start_ms=horizon * (0.25 + 0.1 * j), gap_ms=horizon / 3,
                seed=seed + j, name=name,
            )
        plane = make_plane(store)
        try:
            out, rep = Router(store, n_servers=2).run(
                stream, verify=True, mutations=muts, faults=faults,
                data_plane=plane,
            )
        finally:
            if plane is not None:
                plane.close()
        assert rep.swaps == len(muts) and rep.faults >= 1
        return out, rep

    out0, rep0 = run(lambda store: None)
    out1, rep1 = run(
        lambda store: WorkerPool(store, processes=2, timeout_s=60.0)
    )
    served0 = _served_xor_failed(out0, stream, rep0)
    served1 = _served_xor_failed(out1, stream, rep1)
    both = served0 & served1
    assert both
    for i in both:
        assert out0[i].version == out1[i].version
        assert np.array_equal(
            out0[i].result, out1[i].result, equal_nan=True
        ), i
    assert_no_segments()
