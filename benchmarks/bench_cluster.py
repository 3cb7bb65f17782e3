"""E18 — sharded multi-server serving: cluster vs single-server scaling.

Registers three serving graphs of comparable cost behind one
:class:`repro.serving.cluster.Router` and sweeps servers × placement ×
aggregate arrival rate on one cross-graph Poisson stream (equal
aggregate rate for every cluster size).  Batches never mix graphs, so a
single server must serialize every graph's launches; sharding gives each
graph (or each launch) its own slot.

Acceptance (the PR's headline criterion):

* at the headline rate the **single-server** scheduler is infeasible —
  SLO attainment < 95% — while an **N ≥ 2 cluster** over the same
  stream sustains ≥ 95% under *every* registered placement policy
  (affinity sharding, least-loaded, power-of-two-choices — ≥ 3
  compared);
* every cluster run here uses ``verify=True``: each launch re-runs its
  queries standalone on the owning graph's engines and raises unless
  the clustered answer is bitwise identical;
* a two-graph registry at proportional rate shows the same flip, so the
  effect scales across the graphs dimension, not just servers.

The artifact table reports attainment, batch width, queueing, busy time
and per-server balance per cell.

``--wallclock`` additionally runs the real-parallel data-plane bench
(``test_parallel_data_plane_wallclock``): the same launch mix executed by
actual worker processes against zero-copy shm exports, timed with
``perf_counter``.  It compares the in-process plane, shm workers at
1/2(/4, cpu-gated), and a bench-local pickle-per-launch strawman
(:class:`_PicklePool`), asserts every plane's answers are bitwise
identical, that zero-copy's per-launch data-plane overhead beats
pickle-per-launch at one worker each, and (only on >= 4-CPU hosts) that
4 workers deliver >= 2x in-process warm throughput.  Rows land in
``BENCH_parallel.json``.

``--failures`` runs the fault-tolerance benches: a mid-flight server
crash whose attainment dips through the outage and recovers after the
server comes back (every query accounted, every served answer —
including re-executed ones — bitwise verified; with ``--wallclock`` the
same scenario SIGKILLs a real pinned worker), plus the elasticity pair
(speed-aware placement beating speed-blind on a heterogeneous fleet,
and attainment-driven autoscaling beating a fixed fleet under
overload).  Rows land in ``BENCH_faults.json``.
"""

import dataclasses
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.report import format_table
from repro.datasets.generators import hybrid_pattern, road_pattern
from repro.engines import BitEngine
from repro.formats.b2sr import B2SRMatrix
from repro.formats.shm import shm_available
from repro.gpusim import GTX1080
from repro.serving import (
    Autoscaler,
    FaultPlan,
    GraphRegistry,
    InProcessPlane,
    LaunchResult,
    LaunchSpec,
    PLACEMENTS,
    Router,
    WorkerPool,
    multi_graph_poisson_stream,
)
from repro.serving.parallel import _execute_spec

GRAPH_SEEDS = (4, 9, 14)
N_VERTICES = 512
TILE_DIM = 32
REQUESTS = 72
RATES_QPS = (4000.0, 20000.0)   # low-load anchor, overload headline
HEADLINE_RATE = 20000.0
SLO_MS = 5.0
URGENT_SLO_MS = 2.5
URGENT_FRACTION = 0.05
MIX = (0.35, 0.55, 0.10)        # sssp-heavy: the expensive kind
SEED = 1


def _registry(n_graphs: int) -> GraphRegistry:
    reg = GraphRegistry(max_batch=32)
    for i, seed in enumerate(GRAPH_SEEDS[:n_graphs]):
        reg.add(
            f"g{i}",
            hybrid_pattern(N_VERTICES, seed=seed),
            device=GTX1080,
            tile_dim=TILE_DIM,
        )
    return reg


def _stream(registry: GraphRegistry, rate_qps: float, requests: int):
    sizes = {name: registry[name].engine.n for name in registry.names}
    return multi_graph_poisson_stream(
        sizes,
        requests=requests,
        rate_qps=rate_qps,
        mix=MIX,
        slo_ms=SLO_MS,
        urgent_slo_ms=URGENT_SLO_MS,
        urgent_fraction=URGENT_FRACTION,
        seed=SEED,
    )


def _sweep():
    cells = []
    # --- servers × placement × rate on the 3-graph registry.  One
    # registry is shared across runs so the verification singles are
    # memoized once per distinct query (the engines are deterministic).
    registry = _registry(3)
    base_estimates = registry.estimator_state()
    for rate in RATES_QPS:
        stream = _stream(registry, rate, REQUESTS)
        for n_servers in (1, 2, 3):
            router = Router(registry, n_servers=n_servers, seed=0)
            placements = (
                ("affinity",) if n_servers == 1 else tuple(PLACEMENTS)
            )
            for placement in placements:
                # Equal conditions per cell: identical estimator state.
                registry.restore_estimator_state(base_estimates)
                _, rep = router.run(
                    stream, placement=placement, verify=True
                )
                cells.append((len(registry), rate, rep))
    # --- the graphs dimension: two graphs at proportional aggregate
    # rate (same offered load per graph as the headline cell).
    two = _registry(2)
    base2 = two.estimator_state()
    rate2 = HEADLINE_RATE * 2 / 3
    stream2 = _stream(two, rate2, REQUESTS * 2 // 3)
    for n_servers in (1, 2):
        two.restore_estimator_state(base2)
        router = Router(two, n_servers=n_servers, seed=0)
        _, rep = router.run(stream2, placement="affinity", verify=True)
        cells.append((2, rate2, rep))
    return cells


def _report(cells, results_dir):
    rows = []
    for n_graphs, rate, rep in cells:
        label = "single" if rep.n_servers == 1 else rep.placement
        rows.append(
            [
                n_graphs,
                f"{rate:.0f}",
                rep.n_servers,
                label,
                f"{100 * rep.slo_attainment:.1f}%",
                f"{rep.mean_batch_width:.1f}",
                rep.joins,
                f"{rep.mean_queue_ms:.2f}",
                f"{rep.busy_ms:.2f}",
                f"{rep.imbalance:.2f}",
                "yes" if rep.verified else "no",
            ]
        )
    text = format_table(
        ["graphs", "rate q/s", "servers", "placement", "attainment",
         "mean k", "joins", "queue ms", "busy ms", "imbalance",
         "verified"],
        rows,
        title=f"sharded cluster serving: {REQUESTS} arrivals, SLO "
              f"{SLO_MS:g} ms bulk / {URGENT_SLO_MS:g} ms urgent, "
              f"equal aggregate rate per cluster size (GTX1080, "
              f"B2SR-{TILE_DIM})",
    )
    write_artifact(results_dir, "cluster_scaling.txt", text)

    # ≥ 3 placement policies compared on the cluster cells.
    assert len(PLACEMENTS) >= 3
    headline = [
        rep for n_graphs, rate, rep in cells
        if n_graphs == 3 and rate == HEADLINE_RATE
    ]
    assert headline, "sweep produced no headline cells"
    single = next(r for r in headline if r.n_servers == 1)
    clustered = [r for r in headline if r.n_servers >= 2]
    # Single server cannot hold the aggregate rate…
    assert single.slo_attainment < 0.95, single
    # …while every placement on every N >= 2 cluster sustains >= 95%
    # at the same rate, still batching, with every launch verified
    # bitwise-identical to the standalone runs.
    assert {r.placement for r in clustered} == set(PLACEMENTS)
    for rep in clustered:
        assert rep.verified, rep
        assert rep.slo_attainment >= 0.95, rep
        assert rep.mean_batch_width > 1.0, rep
    # Affinity sharding really spreads the graphs: every server in the
    # 3-server affinity cell launched work.
    aff3 = next(
        r for r in clustered
        if r.n_servers == 3 and r.placement == "affinity"
    )
    assert all(n > 0 for n in aff3.server_launches), aff3
    assert set(aff3.graph_attainment) == {"g0", "g1", "g2"}
    # The low-rate anchor: the single server degrades as rate rises
    # (the collapse is load, not budgets), the cluster holds at both.
    low = [
        rep for n_graphs, rate, rep in cells
        if n_graphs == 3 and rate != HEADLINE_RATE
    ]
    low_single = next(r for r in low if r.n_servers == 1)
    assert low_single.slo_attainment > single.slo_attainment
    for rep in low:
        if rep.n_servers == 3:
            assert rep.slo_attainment >= 0.95, rep
    # Graphs dimension: two graphs at proportional rate flip the same
    # way — infeasible solo, sustained by a 2-server shard.
    pair = [rep for n_graphs, rate, rep in cells if n_graphs == 2]
    pair_single = next(r for r in pair if r.n_servers == 1)
    pair_cluster = next(r for r in pair if r.n_servers == 2)
    assert pair_cluster.slo_attainment >= 0.95, pair_cluster
    assert pair_cluster.slo_attainment > pair_single.slo_attainment


def test_cluster_scaling(benchmark, results_dir):
    cells = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(cells, results_dir)


# ----------------------------------------------------------------------
# Real-parallel data plane (--wallclock)
# ----------------------------------------------------------------------
PLANE_ROUNDS = 3
PLANE_SOURCES = tuple(range(0, 32, 4))
#: Larger than the modeled-serving sweep on purpose: the pickle strawman
#: ships the whole B2SR matrix into every launch, and the transport gap
#: only rises above timer noise when those arrays are non-trivial.
PLANE_N = 2048


def _plane_registry() -> GraphRegistry:
    reg = GraphRegistry(max_batch=32)
    for i, seed in enumerate(GRAPH_SEEDS):
        reg.add(
            f"g{i}",
            hybrid_pattern(PLANE_N, seed=seed),
            device=GTX1080,
            tile_dim=TILE_DIM,
        )
    return reg


def _plane_template(registry: GraphRegistry) -> list[LaunchSpec]:
    """One round of real launches: narrow BFS batches per graph.

    Narrow launches on purpose: transport discipline is the thing under
    test, and a single wide sssp launch is so compute-heavy that even
    re-pickling the whole matrix per launch would vanish into its
    runtime.  (Cross-backend bitwise equality for every query kind is
    covered by tests/test_parallel.py.)
    """
    specs = []
    for name in registry.names:
        entry = registry[name]
        for source in PLANE_SOURCES:
            specs.append(
                LaunchSpec(
                    batch_id=0,
                    graph=name,
                    version=entry.version,
                    kind="bfs",
                    sources=(source,),
                    width=1,
                )
            )
    return specs


def _pickle_worker(task_q, result_q) -> None:
    """Strawman worker: every launch arrives with its graph's B2SR
    arrays pickled next to the spec, and the engines are rebuilt from
    them before the launch runs."""
    while (msg := task_q.get()) is not None:
        spec, (n, tile_dim, device, skip, operands) = msg
        engines = []
        for arrays, locality in operands:
            for a in arrays:
                a.flags.writeable = False
            mat = B2SRMatrix.from_shared_views(n, n, tile_dim, *arrays)
            engines.append(
                BitEngine.from_operand(
                    mat, n=n, device=device, locality=locality,
                    skip_inactive=skip,
                )
            )
        out, iters, wall = _execute_spec(*engines, spec)
        result_q.put(
            LaunchResult(
                batch_id=spec.batch_id, worker=0, pid=os.getpid(),
                wall_ms=wall, columns=out, iterations=iters,
            )
        )


class _PicklePool:
    """The pickle-per-launch strawman the zero-copy exports are
    measured against: one worker process, graph arrays shipped with
    every launch instead of once per epoch through shared memory."""

    def __init__(self, registry: GraphRegistry) -> None:
        self._payloads = {}
        for entry in registry:
            operands = tuple(
                ((m.indptr, m.indices, m.tiles), eng._locality)
                for eng in (entry.engine, entry.cc_engine)
                for m in (eng._At,)
            )
            self._payloads[(entry.name, entry.version)] = (
                entry.engine.n, entry.engine.tile_dim, entry.engine.device,
                entry.engine.skip_inactive, operands,
            )
        ctx = mp.get_context("spawn")
        self._task_q, self._result_q = ctx.Queue(), ctx.Queue()
        self._proc = ctx.Process(
            target=_pickle_worker, args=(self._task_q, self._result_q),
            daemon=True,
        )
        self._proc.start()
        self._next_batch_id = 0
        self._pending = 0

    def next_batch_id(self) -> int:
        self._next_batch_id += 1
        return self._next_batch_id

    def submit(self, sid: int, spec: LaunchSpec) -> None:
        payload = self._payloads[(spec.graph, spec.version)]
        self._task_q.put((spec, payload))
        self._pending += 1

    def drain(self) -> dict:
        out = {}
        while self._pending:
            res = self._result_q.get(timeout=120.0)
            out[res.batch_id] = res
            self._pending -= 1
        return out

    def close(self) -> None:
        self._task_q.put(None)
        self._proc.join(timeout=10.0)
        self._task_q.close()
        self._result_q.close()


def _plane_round(plane, template: list[LaunchSpec]) -> tuple[dict, float]:
    """Submit one full round, spread across servers; returns the
    answers keyed by (graph, kind, sources) and the summed in-worker
    kernel wall time (ms; 0 in-process, which reads no clock)."""
    submitted = {}
    done = {}
    for i, spec in enumerate(template):
        live = dataclasses.replace(spec, batch_id=plane.next_batch_id())
        submitted[live.batch_id] = spec
        res = plane.submit(i, live)
        if res is not None:
            done[live.batch_id] = res
    done.update(plane.drain())
    out = {}
    kernel_ms = 0.0
    for bid, res in done.items():
        assert res.error is None, res.error
        key = submitted[bid]
        out[(key.graph, key.kind, key.sources)] = res.columns
        kernel_ms += res.wall_ms
    return out, kernel_ms


def _run_plane(label: str, processes: int) -> dict:
    """Warm one plane, then time PLANE_ROUNDS rounds of launches."""
    registry = _plane_registry()
    if label == "in-process":
        plane = InProcessPlane(registry)
    elif label == "pickle":
        plane = _PicklePool(registry)
    else:
        plane = WorkerPool(registry, processes=processes)
    try:
        template = _plane_template(registry)
        # Warm round: workers attach segments, plans warm, caches fill.
        answers, _ = _plane_round(plane, template)
        t0 = time.perf_counter()
        kernel_ms = 0.0
        for _ in range(PLANE_ROUNDS):
            _, round_kernel_ms = _plane_round(plane, template)
            kernel_ms += round_kernel_ms
        elapsed = time.perf_counter() - t0
    finally:
        if not isinstance(plane, InProcessPlane):
            plane.close()
    launches = PLANE_ROUNDS * len(template)
    queries = PLANE_ROUNDS * sum(s.width for s in template)
    # Everything that is not kernel execution — queue hops, payload
    # (un)pickling, per-launch engine rebuilds — attributed per launch.
    # Only meaningful for a single worker: with more, the summed
    # in-worker kernel time overlaps and can exceed the elapsed time.
    overhead_ms = (1e3 * elapsed - kernel_ms) / launches
    return {
        "throughput_qps": queries / elapsed,
        "overhead_ms": overhead_ms,
        "answers": answers,
    }


def test_parallel_data_plane_wallclock(results_dir, json_report, wallclock):
    if not wallclock:
        pytest.skip("real worker-process bench; enable with --wallclock")
    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    ncpu = os.cpu_count() or 1
    # (label, worker processes, transport)
    cells = [("in-process", 0, "none"), ("shm", 1, "shm"), ("shm", 2, "shm")]
    if ncpu >= 4:
        cells.append(("shm", 4, "shm"))
    cells.append(("pickle", 1, "pickle"))

    measured = {}
    reference = None
    for label, procs, _ in cells:
        cell = _run_plane(label, procs)
        # Every plane's answers are bitwise identical to the in-process
        # reference — the data plane changes where kernels run, never
        # what they compute.
        if reference is None:
            reference = cell["answers"]
        else:
            assert cell["answers"].keys() == reference.keys()
            for key, cols in cell["answers"].items():
                assert np.array_equal(
                    cols, reference[key], equal_nan=True
                ), key
        measured[(label, procs)] = cell

    base_qps = measured[("in-process", 0)]["throughput_qps"]
    # Zero-copy beats pickle-per-launch: compare per-launch data-plane
    # *overhead* (everything but in-worker kernel time) at 1 worker
    # each, so the comparison is immune to kernel-time variance and to
    # CPU contention.  The pickle strawman pays (un)pickling plus an
    # engine-and-plan rebuild on every launch; shm pays one attach per
    # epoch.  B2SR matrices are bit-packed and small, so on throughput
    # alone this gap would drown in kernel noise — the overhead metric
    # is the honest witness.
    assert (
        measured[("pickle", 1)]["overhead_ms"]
        > 1.2 * measured[("shm", 1)]["overhead_ms"]
    ), (measured[("pickle", 1)], measured[("shm", 1)])
    # Scaling acceptance is cpu-gated: on >= 4 CPUs, 4 real workers must
    # at least double the in-process warm throughput.
    if ncpu >= 4:
        assert (
            measured[("shm", 4)]["throughput_qps"] >= 2.0 * base_qps
        )

    rows = []
    for label, procs, transport in cells:
        cell = measured[(label, procs)]
        qps = cell["throughput_qps"]
        config = {
            "backend": "in-process" if procs == 0 else "process",
            "processes": procs,
            "transport": transport,
            "cpus": ncpu,
            "rounds": PLANE_ROUNDS,
        }
        json_report.emit("parallel", config, "throughput_qps", qps)
        json_report.emit(
            "parallel", config, "speedup_vs_in_process", qps / base_qps
        )
        # Overhead is elapsed minus in-worker kernel time, which only
        # one worker keeps apart: the in-process plane times no kernel
        # and several workers' kernel times overlap.
        if procs == 1:
            json_report.emit(
                "parallel", config, "overhead_ms_per_launch",
                cell["overhead_ms"],
            )
        rows.append(
            [
                label,
                procs,
                transport,
                f"{qps:.1f}",
                f"{qps / base_qps:.2f}x",
                f"{cell['overhead_ms']:.2f}" if procs == 1 else "-",
                "yes",
            ]
        )
    text = format_table(
        ["plane", "workers", "transport", "queries/s",
         "vs in-process", "overhead ms/launch", "bitwise"],
        rows,
        title=f"real-parallel data plane: 3 graphs (n={PLANE_N}, "
              f"B2SR-{TILE_DIM}), {PLANE_ROUNDS} warm rounds of "
              f"{len(PLANE_SOURCES)} narrow bfs launches per graph, "
              f"{ncpu} CPUs",
    )
    write_artifact(results_dir, "parallel_data_plane.txt", text)


# ----------------------------------------------------------------------
# Fault tolerance and elasticity (--failures)
# ----------------------------------------------------------------------
FAULT_TILE = 16
FAULT_SIZES = (256, 256)


def _fault_registry(max_batch: int = 8) -> GraphRegistry:
    reg = GraphRegistry(max_batch=max_batch)
    builders = (hybrid_pattern, road_pattern)
    for i, n in enumerate(FAULT_SIZES):
        reg.add(
            f"g{i}", builders[i % len(builders)](n, seed=3 + i),
            tile_dim=FAULT_TILE,
        )
    return reg


def _fault_stream(reg, *, rate_qps, requests, slo_ms=6.0,
                  urgent_slo_ms=3.0, mix=(0.5, 0.4, 0.1), seed=2):
    sizes = {name: reg[name].engine.n for name in reg.names}
    return multi_graph_poisson_stream(
        sizes, requests=requests, rate_qps=rate_qps, mix=mix,
        slo_ms=slo_ms, urgent_slo_ms=urgent_slo_ms,
        urgent_fraction=0.1, seed=seed,
    )


def _crash_window(outcomes, sid, before=None):
    """Midpoint of the widest launch window served by ``sid`` in a
    baseline run — a crash scheduled there lands mid-flight by
    construction instead of by load tuning.  ``before`` restricts the
    candidate windows to launches before that modeled instant, so the
    crash (and its recovery) land while the stream is still arriving."""
    wins = [
        (o.launch_ms, o.finish_ms)
        for o in outcomes
        if o.server == sid and o.finish_ms > o.launch_ms
        and (before is None or o.launch_ms < before)
    ]
    assert wins, f"baseline run never launched on server {sid}"
    lo, hi = max(wins, key=lambda w: w[1] - w[0])
    return (lo + hi) / 2.0, hi


def _window_attainment(outcomes, lo, hi):
    """SLO attainment among the queries *arriving* in [lo, hi)."""
    phase = [o for o in outcomes if lo <= o.arrival.time_ms < hi]
    assert phase, f"no arrivals in [{lo:.3f}, {hi:.3f}) ms"
    return sum(o.slo_met for o in phase) / len(phase)


def _assert_accounted(outcomes):
    for o in outcomes:
        assert (o.result is not None) ^ (o.failure is not None), o


def _crash_scenario():
    """Baseline + mid-flight-crash runs on the same stream; returns
    (baseline outcomes/report, fault outcomes/report, crash_ms,
    recover_ms)."""
    reg = _fault_registry(max_batch=4)
    router = Router(reg, n_servers=2, seed=0)
    stream = _fault_stream(
        reg, rate_qps=48000.0, requests=160, slo_ms=0.6,
        urgent_slo_ms=0.25, mix=(0.3, 0.6, 0.1),
    )
    base = reg.estimator_state()
    out0, rep0 = router.run(stream, placement="least-loaded", verify=True)
    horizon = max(o.arrival.time_ms for o in out0)
    at, hi = _crash_window(out0, 1, before=0.5 * horizon)
    # A bounded outage well inside the stream: the surviving server
    # carries the load alone through [at, recover_at), then the revived
    # one rejoins while arrivals are still coming.
    recover_at = min(max(hi, at + 2.0), 0.8 * horizon)
    reg.restore_estimator_state(base)
    plan = FaultPlan().crash(1, at=at).recover(1, at=recover_at)
    out, rep = router.run(
        stream, placement="least-loaded", verify=True, faults=plan
    )
    return out0, rep0, out, rep, at, recover_at


def test_cluster_fault_recovery(results_dir, json_report, failures):
    if not failures:
        pytest.skip("fault-tolerance bench; enable with --failures")
    out0, rep0, out, rep, at, recover_at = _crash_scenario()

    # Zero queries lost without accounting: same stream length, every
    # outcome either served or failed closed with a reason.
    assert len(out) == len(out0)
    _assert_accounted(out)
    # The crash landed mid-flight: at least one batch was re-queued,
    # and every served answer — the re-executed ones included — was
    # re-checked bitwise against a solo run by verify=True.
    assert rep.requeues >= 1, rep
    assert rep.verified and rep0.verified
    assert any(o.retries > 0 and o.result is not None for o in out)
    kinds = [f.kind for f in rep.extra["faults"]]
    assert kinds == ["crash", "recover"]
    # Dip: the outage window attains less than the same window without
    # the fault; recover: the post-recovery tail beats the outage and
    # the revived server serves again.
    dip = _window_attainment(out, at, recover_at)
    dip0 = _window_attainment(out0, at, recover_at)
    tail = _window_attainment(out, recover_at, float("inf"))
    assert dip < dip0, (dip, dip0)
    assert tail > dip, (tail, dip)
    assert any(
        o.server == 1 and o.result is not None
        and o.launch_ms >= recover_at
        for o in out
    ), "revived server never served again"

    config = {
        "scenario": "crash-recover", "mode": "modeled", "servers": 2,
        "placement": "least-loaded", "requests": len(out),
    }
    json_report.emit("faults", config, "attainment", rep.slo_attainment)
    json_report.emit(
        "faults", config, "attainment_no_fault", rep0.slo_attainment
    )
    json_report.emit("faults", config, "outage_attainment", dip)
    json_report.emit("faults", config, "post_recovery_attainment", tail)
    json_report.emit("faults", config, "requeues", float(rep.requeues))
    json_report.emit("faults", config, "failed", float(rep.failed))

    rows = [
        ["no fault", f"{100 * rep0.slo_attainment:.1f}%",
         f"{100 * dip0:.1f}%", "-", 0, 0, "yes"],
        ["crash+recover", f"{100 * rep.slo_attainment:.1f}%",
         f"{100 * dip:.1f}%", f"{100 * tail:.1f}%",
         rep.requeues, rep.failed, "yes"],
    ]
    text = format_table(
        ["scenario", "attainment", "outage window", "post-recovery",
         "requeues", "failed", "verified"],
        rows,
        title=f"mid-flight server crash at {at:.2f} ms, recovery at "
              f"{recover_at:.2f} ms: 2 servers, {len(out)} arrivals, "
              f"every outcome accounted",
    )
    write_artifact(results_dir, "cluster_faults.txt", text)


def test_cluster_fault_recovery_wallclock(json_report, failures, wallclock):
    """The same crash replayed against the real data plane: the modeled
    crash SIGKILLs the pinned worker process and recovery respawns it.
    Wall-clock timing decides how many real launches die with it, so
    the assertions are the timing-robust invariants only."""
    if not failures:
        pytest.skip("fault-tolerance bench; enable with --failures")
    if not wallclock:
        pytest.skip("real worker-process bench; enable with --wallclock")
    if not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    reg = _fault_registry()
    router = Router(reg, n_servers=2, seed=0)
    stream = _fault_stream(reg, rate_qps=8000.0, requests=48)
    base = reg.estimator_state()
    # verify=False: this run only derives the crash window; the fault
    # run below re-checks every served answer.
    out0, _ = router.run(stream, placement="least-loaded", verify=False)
    at, hi = _crash_window(out0, 1)
    reg.restore_estimator_state(base)
    plan = FaultPlan().crash(1, at=at).recover(1, at=hi + 5.0)
    with WorkerPool(reg, processes=2) as pool:
        out, rep = router.run(
            stream, placement="least-loaded", verify=True,
            faults=plan, data_plane=pool,
        )
        _assert_accounted(out)
        assert rep.verified
        assert [f.kind for f in rep.extra["faults"]] == ["crash", "recover"]
        plane = rep.extra["data_plane"]
        assert plane["processes"] == 2
        config = {
            "scenario": "crash-recover", "mode": "wallclock",
            "servers": 2, "placement": "least-loaded",
            "requests": len(out),
        }
        json_report.emit(
            "faults", config, "attainment", rep.slo_attainment
        )
        json_report.emit(
            "faults", config, "reexecutions",
            float(plane.get("reexecutions", 0)),
        )
        json_report.emit("faults", config, "failed", float(rep.failed))


def test_cluster_elasticity(json_report, failures):
    """Speed-aware placement beats speed-blind on a heterogeneous
    fleet, and attainment-driven autoscaling beats a fixed fleet under
    the same overload."""
    if not failures:
        pytest.skip("fault-tolerance bench; enable with --failures")
    # --- heterogeneous fleet: two full-speed servers and one at 0.2x.
    reg = _fault_registry(max_batch=4)
    router = Router(reg, n_servers=3, seed=0)
    stream = _fault_stream(
        reg, rate_qps=48000.0, requests=96, slo_ms=0.6,
        urgent_slo_ms=0.25, mix=(0.3, 0.6, 0.1),
    )
    speeds = {0: 1.0, 1: 1.0, 2: 0.2}
    base = reg.estimator_state()
    # verify=False: the speed-blind arm exists only as the attainment
    # baseline; the speed-aware arm is the verified one.
    _, blind = router.run(
        stream, placement="least-loaded", speeds=speeds, verify=False
    )
    reg.restore_estimator_state(base)
    out_aware, aware = router.run(
        stream, placement="speed-aware", speeds=speeds, verify=True
    )
    _assert_accounted(out_aware)
    assert aware.verified
    assert aware.slo_attainment > blind.slo_attainment, (aware, blind)
    config = {
        "scenario": "speed-aware", "servers": 3,
        "speeds": [1.0, 1.0, 0.2], "requests": 96,
    }
    json_report.emit(
        "faults", config, "attainment_speed_blind", blind.slo_attainment
    )
    json_report.emit(
        "faults", config, "attainment_speed_aware", aware.slo_attainment
    )
    json_report.emit(
        "faults", config, "speed_utilization", aware.speed_utilization
    )

    # --- elasticity: one fixed server vs autoscaling up to four.
    reg2 = _fault_registry(max_batch=4)
    router2 = Router(reg2, n_servers=1, seed=0)
    stream2 = _fault_stream(
        reg2, rate_qps=48000.0, requests=96, slo_ms=0.6,
        urgent_slo_ms=0.25, mix=(0.3, 0.6, 0.1),
    )
    base2 = reg2.estimator_state()
    # verify=False: the fixed-fleet arm is the attainment baseline; the
    # autoscaled arm is the verified one.
    _, fixed = router2.run(stream2, placement="least-loaded", verify=False)
    reg2.restore_estimator_state(base2)
    scaler = Autoscaler(
        min_servers=1, max_servers=4, interval_ms=0.1, window=8
    )
    out_scaled, scaled = router2.run(
        stream2, placement="least-loaded", autoscaler=scaler, verify=True
    )
    _assert_accounted(out_scaled)
    adds = [s for s in scaled.extra["scales"] if s.action == "add"]
    assert adds, "overloaded fleet never upscaled"
    assert scaled.slo_attainment > fixed.slo_attainment, (scaled, fixed)
    config = {
        "scenario": "autoscale", "min_servers": 1, "max_servers": 4,
        "requests": 96,
    }
    json_report.emit(
        "faults", config, "attainment_fixed", fixed.slo_attainment
    )
    json_report.emit(
        "faults", config, "attainment_autoscaled", scaled.slo_attainment
    )
    json_report.emit(
        "faults", config, "servers_added", float(len(adds))
    )
