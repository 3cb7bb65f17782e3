"""E19 — dynamic graphs: copy-on-write deltas vs full rebuilds, and
serving across live epoch swaps.

Two sweeps:

* **Delta vs rebuild.**  For mutation batches of growing size against
  one serving-scale graph, build the new B2SR version both ways — the
  tile-level copy-on-write delta (only touched tiles rebuilt, the rest
  carried as packed words) and a from-scratch conversion — and compare
  the modeled install cost (:func:`delta_rewarm_stats`: delta build plus
  warming the new version's sweep plan).  Every delta result is asserted
  bitwise identical to the from-scratch matrix first; the cost
  comparison is only meaningful because the artifacts are
  interchangeable.
* **Epoch swaps under load.**  A :class:`GraphRegistry` serves a
  Poisson stream while timestamped mutation batches swap epochs
  mid-stream, ``verify=True`` throughout.  In-flight batches finish on
  their admitted version, new arrivals see the new epoch.

Acceptance (the PR's headline criteria):

* the delta path beats the full rebuild at every small mutation batch
  (≤ 64 edits here) and its advantage shrinks monotonically as batches
  grow — the rebuilt-tile fraction, not the edit count, is the cost
  driver;
* every delta-built matrix is bitwise identical (indptr / indices /
  tiles) to the from-scratch conversion of the mutated graph;
* the serving run survives ≥ 2 epoch swaps with SLO attainment ≥ 95%,
  zero mixed-version batches, and every answer verified on the epoch it
  was admitted against.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.report import format_table
from repro.datasets.generators import hybrid_pattern
from repro.formats.convert import b2sr_from_csr
from repro.formats.delta import apply_edge_delta, delta_b2sr
from repro.graph import csr_row_indices
from repro.gpusim import GTX1080
from repro.gpusim.timing import time_us
from repro.kernels.costmodel import delta_rewarm_stats
from repro.serving import GraphRegistry, MutationBatch, Router, mutation_trace
from repro.serving.arrivals import multi_graph_poisson_stream

BENCH = "dynamic"
N_VERTICES = 2048
TILE_DIM = 32
BATCH_SIZES = (4, 16, 64, 256, 1024)
SMALL_BATCH_MAX = 64
SERVE_VERTICES = 512
SERVE_REQUESTS = 72
SERVE_RATE_QPS = 4000.0
SERVE_SLO_MS = 20.0
MUTATION_TIMES_MS = (5.0, 11.0)
SEED = 2


def _mutation(g, size, seed):
    """Half deletes of existing edges, half fresh inserts."""
    rng = np.random.default_rng(seed)
    n_del = min(size // 2, g.nnz)
    rows = csr_row_indices(g.csr, g.n)
    exist = np.stack([rows, g.csr.indices], axis=1)
    dels = exist[rng.choice(exist.shape[0], size=n_del, replace=False)]
    ins = rng.integers(0, g.n, size=(size - n_del, 2))
    return ins, dels


def _delta_sweep():
    g = hybrid_pattern(N_VERTICES, seed=SEED)
    base = b2sr_from_csr(g.csr, TILE_DIM)
    cells = []
    for i, size in enumerate(BATCH_SIZES):
        ins, dels = _mutation(g, size, SEED + i)
        patched, stats = delta_b2sr(base, ins, dels)
        # Interchangeability first: the delta-built matrix is bitwise
        # the from-scratch conversion of the mutated graph.
        g2, _ = apply_edge_delta(g, ins, dels)
        scratch = b2sr_from_csr(g2.csr, TILE_DIM)
        assert np.array_equal(patched.indptr, scratch.indptr)
        assert np.array_equal(patched.indices, scratch.indices)
        assert np.array_equal(patched.tiles, scratch.tiles)
        delta_us = time_us(
            delta_rewarm_stats(
                patched, GTX1080,
                rebuilt_fraction=stats.rebuilt_fraction,
            ),
            GTX1080,
        )
        full_us = time_us(
            delta_rewarm_stats(patched, GTX1080, rebuilt_fraction=1.0),
            GTX1080,
        )
        cells.append((size, stats, delta_us, full_us))
    return cells


def _serving_sweep():
    store = GraphRegistry(max_batch=32)
    for i, seed in enumerate((4, 9)):
        store.add(
            f"g{i}",
            hybrid_pattern(SERVE_VERTICES, seed=seed),
            device=GTX1080,
            tile_dim=TILE_DIM,
        )
    sizes = {name: store[name].engine.n for name in store.names}
    stream = multi_graph_poisson_stream(
        sizes,
        requests=SERVE_REQUESTS,
        rate_qps=SERVE_RATE_QPS,
        slo_ms=SERVE_SLO_MS,
        seed=SEED,
    )
    trace = mutation_trace(
        store["g0"].graph,
        batches=len(MUTATION_TIMES_MS),
        batch_size=16,
        start_ms=MUTATION_TIMES_MS[0],
        gap_ms=MUTATION_TIMES_MS[1] - MUTATION_TIMES_MS[0],
        seed=SEED,
        name="g0",
    )
    router = Router(store, n_servers=2, seed=0)
    outcomes, rep = router.run(stream, verify=True, mutations=trace)
    by_launch = {}
    for o in outcomes:
        by_launch.setdefault((o.server, o.launch_ms), set()).add(
            o.version
        )
    mixed = sum(1 for v in by_launch.values() if len(v) > 1)
    return outcomes, rep, mixed


def _report(delta_cells, serving, results_dir, json_report):
    rows = []
    for size, stats, delta_us, full_us in delta_cells:
        rows.append(
            [
                size,
                stats.inserts + stats.deletes,
                f"{100 * stats.rebuilt_fraction:.1f}%",
                stats.carried_tiles,
                f"{delta_us:.1f}",
                f"{full_us:.1f}",
                f"{full_us / delta_us:.2f}x",
                "yes",
            ]
        )
        config = {"batch": size, "tile_dim": TILE_DIM, "n": N_VERTICES}
        json_report.emit(BENCH, config, "delta_install_us", delta_us)
        json_report.emit(BENCH, config, "full_rebuild_us", full_us)
        json_report.emit(
            BENCH, config, "rebuilt_fraction", stats.rebuilt_fraction
        )
    outcomes, rep, mixed = serving
    serve_rows = [
        [
            f"{s.time_ms:.2f}",
            s.version,
            s.inserts,
            s.deletes,
            f"{100 * s.rebuilt_fraction:.1f}%",
        ]
        for s in rep.extra["swaps"]
    ]
    text = (
        format_table(
            ["edits", "effective", "rebuilt tiles", "carried",
             "delta us", "rebuild us", "speedup", "bitwise"],
            rows,
            title=(
                f"copy-on-write delta install vs full rebuild "
                f"(hybrid n={N_VERTICES}, B2SR-{TILE_DIM}, GTX1080; "
                f"install = delta build + plan warm)"
            ),
        )
        + "\n\n"
        + format_table(
            ["t ms", "version", "+ins", "-del", "rebuilt"],
            serve_rows,
            title=(
                f"epoch swaps under load: {rep.served} served across "
                f"{rep.swaps} swaps, SLO attainment "
                f"{100 * rep.slo_attainment:.1f}%, {mixed} mixed-version "
                f"batches, verified={rep.verified}"
            ),
        )
    )
    write_artifact(results_dir, "dynamic_graphs.txt", text)
    json_report.emit(
        BENCH, {"servers": 2}, "slo_attainment", rep.slo_attainment
    )
    json_report.emit(BENCH, {"servers": 2}, "swaps", float(rep.swaps))
    json_report.emit(
        BENCH, {"servers": 2}, "mixed_version_batches", float(mixed)
    )

    # --- acceptance: the delta path wins every small batch…
    small = [c for c in delta_cells if c[0] <= SMALL_BATCH_MAX]
    assert small, "sweep has no small-batch cells"
    for size, stats, delta_us, full_us in small:
        assert delta_us < full_us, (size, delta_us, full_us)
        assert stats.rebuilt_fraction < 1.0, (size, stats)
    # …because the rebuilt-tile fraction is the driver: it grows with
    # the batch and the advantage shrinks with it.
    fracs = [stats.rebuilt_fraction for _, stats, _, _ in delta_cells]
    assert fracs == sorted(fracs), fracs
    speedups = [full / delta for _, _, delta, full in delta_cells]
    assert speedups[0] == max(speedups), speedups
    # --- acceptance: serving survives the swaps.
    assert rep.swaps >= 2, rep
    assert rep.verified, rep
    assert rep.slo_attainment >= 0.95, rep
    assert mixed == 0
    versions = {o.version for o in outcomes if o.arrival.graph == "g0"}
    assert 0 in versions and max(versions) == rep.swaps, versions


def test_dynamic_graphs(benchmark, results_dir, json_report):
    def _run():
        return _delta_sweep(), _serving_sweep()

    delta_cells, serving = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    _report(delta_cells, serving, results_dir, json_report)
