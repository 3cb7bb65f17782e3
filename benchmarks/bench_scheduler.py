"""E17 — online SLO-aware scheduling: batch-now vs wait-for-riders.

Sweeps a Poisson arrival stream over (arrival rate × SLO budget) and
serves it under three policies on one backend (one graph on a
one-server :class:`repro.serving.cluster.Router`):

* ``slo``   — the event-driven scheduler: accumulate riders while the
  deadline slack (minus a contention reserve) allows, urgent lane
  preempts bulk accumulation, mid-flight joins;
* ``flush`` — launch everything pending whenever the server frees (the
  online form of the flush-everything batcher);
* ``fcfs``  — no coalescing, one query per launch.

The artifact reports SLO attainment, mean batch width, queueing, and
server busy time per cell.  Acceptance: on every *feasible* cell (budget
comfortably above solo service) the SLO policy attains ≥ 95% while
actually batching (mean width > 1) and spends less busy time than FCFS;
under overload + tight budgets FCFS collapses while the scheduler holds.
One cell re-runs with ``verify=True``, which raises unless every served
answer is bitwise identical to its standalone run.
"""

from benchmarks.conftest import write_artifact
from repro.algorithms import bfs, connected_components, sssp
from repro.analysis.report import format_table
from repro.datasets.generators import hybrid_pattern
from repro.engines import BitEngine
from repro.gpusim import GTX1080
from repro.serving import POLICIES, GraphRegistry, Router, poisson_stream

RATES_QPS = (1000.0, 4000.0, 8000.0)
SLOS_MS = (5.0, 20.0, 80.0)
REQUESTS = 64
SEED = 1


def _solo_service_ceiling(engine, cc_engine):
    """Largest modeled solo latency across the query kinds — the yard
    stick that decides which (rate, slo) cells are feasible."""
    times = [
        bfs(engine, 0)[1].algorithm_ms,
        sssp(engine, 0)[1].algorithm_ms,
        connected_components(cc_engine)[1].algorithm_ms,
    ]
    return max(times)


def _single_server(g):
    """A fresh one-graph registry (fresh service estimates) on one
    server: the single-backend online scheduler."""
    registry = GraphRegistry(max_batch=32)
    registry.add("g", g, device=GTX1080, tile_dim=32)
    return Router(registry, n_servers=1)


def _sweep():
    g = hybrid_pattern(512, seed=4)
    engine = BitEngine(g, device=GTX1080, tile_dim=32)
    cc_engine = BitEngine(g.symmetrized(), device=GTX1080, tile_dim=32)
    solo_ceiling = _solo_service_ceiling(engine, cc_engine)
    cells = []
    for rate in RATES_QPS:
        for slo in SLOS_MS:
            urgent_slo = max(2.0, slo / 4)
            stream = poisson_stream(
                g.n, requests=REQUESTS, rate_qps=rate, slo_ms=slo,
                urgent_slo_ms=urgent_slo, seed=SEED,
            )
            scheduler = _single_server(g)
            reports = {
                # verify=False: policy comparison only needs latencies;
                # bitwise checks are covered by tests/test_scheduler.py.
                name: scheduler.run(stream, policy=name, verify=False)[1]
                for name in POLICIES
            }
            # Feasible: bulk budget ≥ 5× and urgent ≥ 2× the worst solo
            # service — enough slack that an SLO-aware policy has room
            # both to batch and to make its deadlines.
            feasible = (
                slo >= 5 * solo_ceiling and urgent_slo >= 2 * solo_ceiling
            )
            cells.append(
                {
                    "rate": rate,
                    "slo": slo,
                    "feasible": feasible,
                    "reports": reports,
                }
            )
    # Exactness spot check: the mid-rate, mid-budget cell re-runs the
    # scheduler with the full bitwise verification path on.
    mid = poisson_stream(
        g.n, requests=REQUESTS, rate_qps=RATES_QPS[1], slo_ms=SLOS_MS[1],
        urgent_slo_ms=SLOS_MS[1] / 4, seed=SEED,
    )
    scheduler = _single_server(g)
    _, verified_rep = scheduler.run(mid, policy="slo", verify=True)
    return cells, verified_rep, solo_ceiling


def _report(state, results_dir):
    cells, verified_rep, solo_ceiling = state
    table = []
    for cell in cells:
        for name, rep in cell["reports"].items():
            table.append(
                [
                    f"{cell['rate']:.0f}",
                    f"{cell['slo']:.0f}",
                    "yes" if cell["feasible"] else "no",
                    name,
                    f"{100 * rep.slo_attainment:.1f}%",
                    f"{rep.mean_batch_width:.1f}",
                    rep.joins,
                    f"{rep.mean_queue_ms:.2f}",
                    f"{rep.busy_ms:.2f}",
                ]
            )
    text = format_table(
        ["rate q/s", "SLO ms", "feasible", "policy", "attainment",
         "mean k", "joins", "queue ms", "busy ms"],
        table,
        title=f"online scheduling: {REQUESTS} Poisson arrivals, "
              f"urgent lane at SLO/4 (worst solo service "
              f"{solo_ceiling:.2f} ms; GTX1080, B2SR-32)",
    )
    write_artifact(results_dir, "scheduler_slo_sweep.txt", text)

    feasible_cells = [c for c in cells if c["feasible"]]
    assert feasible_cells, "sweep produced no feasible cells"
    for cell in feasible_cells:
        slo_rep = cell["reports"]["slo"]
        fcfs_rep = cell["reports"]["fcfs"]
        # The acceptance criterion: meet SLOs while actually batching,
        # and spend less server time than the no-batching baseline.
        assert slo_rep.slo_attainment >= 0.95, cell
        assert slo_rep.mean_batch_width > 1.0, cell
        assert slo_rep.busy_ms < fcfs_rep.busy_ms, cell
    # Overload + tight budgets: FCFS collapses, the scheduler holds.
    tight = next(
        c for c in cells
        if c["rate"] == max(RATES_QPS) and c["slo"] == min(SLOS_MS)
    )
    assert (
        tight["reports"]["slo"].slo_attainment
        > tight["reports"]["fcfs"].slo_attainment
    )
    # The verified re-run enforced bitwise equality for every answer.
    assert verified_rep.verified
    assert verified_rep.slo_attainment >= 0.95
    assert verified_rep.mean_batch_width > 1.0


def test_scheduler_slo_sweep(benchmark, results_dir):
    state = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(state, results_dir)
