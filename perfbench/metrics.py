"""Metric definitions: the names, units and directions the benchmark
prints, in the order it prints them.

``BENCHMARK.json`` at the repository root lists the same metrics;
``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

#: End-to-end metrics of an untraced run: (name, unit, better, bound).
#: ``bound`` is the share of the parent's median by which a later change
#: may worsen the metric.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("wall_qps", "queries/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("served_fraction", "ratio", "higher", 0.01),
    ("modeled_attainment", "ratio", "higher", 0.2),
    ("modeled_latency_p50_ms", "modeled-ms", "lower", 0.2),
    ("modeled_latency_p95_ms", "modeled-ms", "lower", 0.25),
    ("modeled_makespan_ms", "modeled-ms", "lower", 0.2),
)

KINDS = ("bfs", "sssp", "cc")
KERNELS = (
    "bmv_bin_full_full_multi",
    "bmv_bin_full_full",
    "bmv_bin_bin_bin_multi_masked",
    "bmv_bin_bin_bin_masked",
)


def _layer_rows() -> list[tuple[str, str, str, bool]]:
    rows = [
        ("cluster.self_s", "s", "lower", False),
        ("cluster.self_us_per_arrival", "us", "lower", False),
        ("cluster.launches", "count", "lower", True),
        ("cluster.mean_batch_width", "queries", "higher", True),
        ("cluster.joins", "count", "higher", True),
        ("cluster.modeled_queue_p95_ms", "modeled-ms", "lower", True),
        ("cluster.failed", "count", "lower", True),
        ("cluster.requeues", "count", "lower", True),
        ("batcher.launch_wall_p50_ms", "ms", "lower", False),
        ("batcher.launch_wall_tail_ms", "ms", "lower", False),
        ("batcher.launch_wall_tail_pct", "percentile", "higher", True),
        ("batcher.launch_wall_samples", "count", "higher", True),
        ("batcher.self_s", "s", "lower", False),
    ]
    for kind in KINDS:
        rows += [
            (f"algorithms.{kind}.calls", "count", "lower", True),
            (f"algorithms.{kind}.rounds", "count", "lower", True),
            (f"algorithms.{kind}.wall_s", "s", "lower", False),
            (f"algorithms.{kind}.self_s", "s", "lower", False),
        ]
    rows += [
        ("engines.calls", "count", "lower", True),
        ("engines.self_s", "s", "lower", False),
        ("engines.auto_dense_rounds", "count", "higher", True),
    ]
    for kernel in KERNELS:
        rows += [
            (f"kernels.{kernel}.calls", "count", "lower", True),
            (f"kernels.{kernel}.wall_s", "s", "lower", False),
            (f"kernels.{kernel}.tile_visits", "count", "lower", True),
            (f"kernels.{kernel}.active_fraction", "ratio", "higher", True),
        ]
    rows += [
        ("costmodel.calls", "count", "lower", True),
        ("costmodel.wall_s", "s", "lower", False),
        ("formats.register_s", "s", "lower", False),
        ("formats.mutate_calls", "count", "lower", True),
        ("formats.mutate_s", "s", "lower", False),
        ("formats.rebuilt_fraction", "ratio", "lower", True),
        ("formats.epochs_retained", "count", "lower", True),
        ("parallel.spawn_attach_s", "s", "lower", False),
        ("parallel.drain_s", "s", "lower", False),
        ("parallel.worker_busy_s", "s", "lower", False),
        ("parallel.worker_utilisation", "ratio", "higher", False),
        ("parallel.wait_overhead_s", "s", "lower", False),
        ("parallel.publish_calls", "count", "lower", True),
        ("parallel.publish_s", "s", "lower", False),
        ("parallel.reexecutions", "count", "lower", True),
        ("parallel.failed_launches", "count", "lower", True),
        ("parallel.worker_peak_rss_mb", "MB", "lower", False),
        ("verify.calls", "count", "lower", True),
        ("verify.solo_runs", "count", "lower", True),
        ("verify.hit_ratio", "ratio", "higher", True),
        ("verify.wall_s", "s", "lower", False),
    ]
    rows += [
        (f"gap.{kind}.wall_over_modeled", "ratio", "lower", False)
        for kind in KINDS
    ]
    rows.append(("trace.overhead_fraction", "ratio", "lower", False))
    return rows


#: Per-layer metrics of a traced run: (name, unit, better, exact).
#: ``exact`` metrics are counts that must repeat bit-for-bit for a seed.
PER_LAYER: tuple[tuple[str, str, str, bool], ...] = tuple(_layer_rows())

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
EXACT_LAYER = tuple(name for name, _, _, exact in PER_LAYER if exact)
