"""Span tracing from outside the program.

:meth:`Tracer.install` wraps the public entry points of each serving
layer where its caller looks them up (module globals and class
attributes), so the program runs unmodified and untraced runs pay
nothing.  A span is recorded per call: layer name, start, duration, the
enclosing span and the phase (``setup`` or ``run``).  Spans stay in
memory; :meth:`Tracer.write_chrome` writes them as Chrome trace-event
JSON, which opens in Perfetto or ``chrome://tracing``.

A span's *self* time is its duration minus the time its direct child
spans cover, so each layer's self time excludes the traced layers below
it.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from perfbench.metrics import KERNELS, KINDS

_KIND_OF = {
    "multi_source_bfs": "bfs",
    "bfs": "bfs",
    "multi_source_sssp": "sssp",
    "sssp": "sssp",
    "connected_components": "cc",
}
_ENGINE_METHODS = (
    "frontier_expand",
    "frontier_expand_multi",
    "pull",
    "pull_multi",
)


class Tracer:
    """In-memory span recorder and per-layer accumulator."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.origin = perf_counter()
        # Closed spans: (name, start_s, dur_s, span_id, parent_id, phase).
        self.spans: list[tuple[str, float, float, int, int, str]] = []
        # Open spans: [span_id, start_s, child_s].
        self._open: list[list] = []
        self._next_id = 0
        # (phase, layer) -> [calls, wall_s, self_s]
        self.totals: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        # (phase, counter) -> value, for counts taken at the boundaries.
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # Run-phase flushes: (kind, wall_s) per launch.
        self.launches: list[tuple[str, float]] = []
        self.rebuilt: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, layer, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1][0] if tracer._open else -1
            frame = [span_id, perf_counter(), 0.0]
            tracer._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                dur = end - frame[1]
                if tracer._open:
                    tracer._open[-1][2] += dur
                tot = tracer.totals[(tracer.phase, layer)]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[2]
                tracer.spans.append(
                    (layer, frame[1], dur, span_id, parent, tracer.phase)
                )
            if after is not None:
                after(dur, token, result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, layer, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, before, after))

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, key)] += value

    # -- the layer boundaries -----------------------------------------
    def install(self) -> None:
        """Wrap every traced entry point (undone by :meth:`uninstall`)."""
        from repro.engines import bit
        from repro.serving import batcher, cluster, parallel

        self._patch(cluster.Router, "run", "cluster")
        self._patch(
            batcher.QueryBatcher, "flush", "batcher",
            after=self._after_flush,
        )
        for attr, kind in _KIND_OF.items():
            self._patch(
                batcher, attr, f"algorithms.{kind}",
                after=self._counter(f"algorithms.{kind}.rounds",
                                    lambda r: r[1].iterations),
            )
        for method in _ENGINE_METHODS:
            self._patch(
                bit.BitEngine, method, "engines",
                before=lambda a, kw: a[0].auto_dense_rounds,
                after=self._after_engine,
            )
        for kernel in KERNELS:
            self._patch(
                bit, kernel, f"kernels.{kernel}",
                after=self._kernel_counters(kernel),
            )
        self._patch(bit, "bmv_stats", "costmodel")
        self._patch(cluster.GraphRegistry, "add", "formats.register")
        self._patch(
            cluster.GraphStore, "mutate", "formats.mutate",
            after=lambda d, t, r, a, kw: self.rebuilt.append(
                r[1].rebuilt_fraction
            ),
        )
        for method in ("submit", "drain", "publish"):
            self._patch(parallel.WorkerPool, method, f"parallel.{method}")
        self._patch(
            cluster, "solo_reference", "verify",
            before=lambda a, kw: (a[2], a[3]) not in a[4],
            after=lambda d, miss, r, a, kw: self.count(
                "verify.solo_runs", float(miss)
            ),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _counter(self, key, value_of):
        return lambda d, t, r, a, kw: self.count(key, value_of(r))

    def _after_flush(self, dur, token, result, args, kwargs) -> None:
        _, reports = result
        if self.phase == "run" and reports:
            self.launches.append((reports[0].kind, dur))

    def _after_engine(self, dur, dense_before, result, args, kwargs):
        self.count(
            "engines.auto_dense_rounds",
            args[0].auto_dense_rounds - dense_before,
        )

    def _kernel_counters(self, kernel):
        def after(dur, token, result, args, kwargs):
            counters = kwargs.get("counters") or {}
            self.count(
                f"kernels.{kernel}.tile_visits",
                counters.get("tile_visits", 0.0),
            )
            self.count(
                f"kernels.{kernel}.active_tiles",
                counters.get("active_tiles", 0.0),
            )

        return after

    # -- export --------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        pid = os.getpid()
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"id": sid, "parent": parent, "phase": phase},
            }
            for layer, start, dur, sid, parent, phase in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

    # -- per-layer metrics ---------------------------------------------
    def total(self, layer: str, phase: str = "run") -> tuple[int, float, float]:
        calls, wall, self_s = self.totals.get((phase, layer), (0, 0.0, 0.0))
        return calls, wall, self_s

    def counted(self, key: str, phase: str = "run") -> float:
        return self.counts.get((phase, key), 0.0)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of ``n`` samples
    beyond it (0 when there are too few samples for any)."""
    if n <= 10:
        return 0
    return int(np.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(
    tracer: Tracer,
    *,
    report,
    outcomes: list,
    registry,
    run_wall_s: float,
    spawn_attach_s: float,
    worker_peak_rss_mb: float,
) -> dict[str, float]:
    """Fold the traced run into the per-layer metrics (all but
    ``trace.overhead_fraction``, which needs an untraced run too)."""
    m: dict[str, float] = {}
    attempted = len(outcomes)

    _, _, cluster_self = tracer.total("cluster")
    m["cluster.self_s"] = cluster_self
    m["cluster.self_us_per_arrival"] = cluster_self / attempted * 1e6
    m["cluster.launches"] = report.batches
    m["cluster.mean_batch_width"] = report.mean_batch_width
    m["cluster.joins"] = report.joins
    m["cluster.modeled_queue_p95_ms"] = report.p95_queue_ms
    m["cluster.failed"] = report.failed
    m["cluster.requeues"] = report.requeues

    walls_ms = np.array([w for _, w in tracer.launches]) * 1e3
    pct = tail_percentile(walls_ms.size)
    m["batcher.launch_wall_p50_ms"] = (
        float(np.percentile(walls_ms, 50)) if walls_ms.size else 0.0
    )
    m["batcher.launch_wall_tail_ms"] = (
        float(np.percentile(walls_ms, pct)) if pct else 0.0
    )
    m["batcher.launch_wall_tail_pct"] = pct
    m["batcher.launch_wall_samples"] = walls_ms.size
    m["batcher.self_s"] = tracer.total("batcher")[2]

    for kind in KINDS:
        calls, wall, self_s = tracer.total(f"algorithms.{kind}")
        m[f"algorithms.{kind}.calls"] = calls
        m[f"algorithms.{kind}.rounds"] = tracer.counted(
            f"algorithms.{kind}.rounds"
        )
        m[f"algorithms.{kind}.wall_s"] = wall
        m[f"algorithms.{kind}.self_s"] = self_s

    calls, _, self_s = tracer.total("engines")
    m["engines.calls"] = calls
    m["engines.self_s"] = self_s
    m["engines.auto_dense_rounds"] = tracer.counted("engines.auto_dense_rounds")

    for kernel in KERNELS:
        calls, wall, _ = tracer.total(f"kernels.{kernel}")
        visits = tracer.counted(f"kernels.{kernel}.tile_visits")
        active = tracer.counted(f"kernels.{kernel}.active_tiles")
        m[f"kernels.{kernel}.calls"] = calls
        m[f"kernels.{kernel}.wall_s"] = wall
        m[f"kernels.{kernel}.tile_visits"] = visits
        m[f"kernels.{kernel}.active_fraction"] = (
            active / visits if visits else 0.0
        )

    calls, wall, _ = tracer.total("costmodel")
    m["costmodel.calls"] = calls
    m["costmodel.wall_s"] = wall

    m["formats.register_s"] = tracer.total("formats.register", "setup")[1]
    calls, wall, _ = tracer.total("formats.mutate")
    m["formats.mutate_calls"] = calls
    m["formats.mutate_s"] = wall
    m["formats.rebuilt_fraction"] = (
        float(np.mean(tracer.rebuilt)) if tracer.rebuilt else 0.0
    )
    m["formats.epochs_retained"] = sum(
        len(registry.versions(name)) if registry.versioned else 1
        for name in registry.names
    )

    plane = report.extra.get("data_plane") or {}
    rows = plane.get("launches", [])
    busy: dict[int, float] = defaultdict(float)
    for row in rows:
        busy[row["sid"]] += row["wall_ms"] / 1e3
    processes = plane.get("processes", 0)
    drain_s = tracer.total("parallel.drain")[1]
    m["parallel.spawn_attach_s"] = spawn_attach_s
    m["parallel.drain_s"] = drain_s
    m["parallel.worker_busy_s"] = sum(busy.values())
    m["parallel.worker_utilisation"] = (
        sum(busy.values()) / (processes * run_wall_s) if processes else 0.0
    )
    m["parallel.wait_overhead_s"] = (
        drain_s - max(busy.values()) if busy else 0.0
    )
    calls, wall, _ = tracer.total("parallel.publish")
    m["parallel.publish_calls"] = calls
    m["parallel.publish_s"] = wall
    m["parallel.reexecutions"] = plane.get("reexecutions", 0)
    m["parallel.failed_launches"] = len(plane.get("failed", []))
    m["parallel.worker_peak_rss_mb"] = worker_peak_rss_mb

    calls, wall, _ = tracer.total("verify")
    solo = tracer.counted("verify.solo_runs")
    m["verify.calls"] = calls
    m["verify.solo_runs"] = solo
    m["verify.hit_ratio"] = 1.0 - solo / calls if calls else 0.0
    m["verify.wall_s"] = wall

    # Measured launch wall over the modeled service the event loop
    # charged that launch, per query kind.  A server runs one launch at
    # a time, so (server, launch instant) names a launch.
    launches = {
        (o.server, o.launch_ms): (o.arrival.kind, o.service_ms)
        for o in outcomes if o.failure is None
    }
    modeled: dict[str, float] = defaultdict(float)
    for kind, service_ms in launches.values():
        modeled[kind] += service_ms
    measured: dict[str, float] = defaultdict(float)
    if rows:
        for row in rows:
            measured[row["kind"]] += row["wall_ms"]
    else:
        for kind, wall in tracer.launches:
            measured[kind] += wall * 1e3
    for kind in KINDS:
        m[f"gap.{kind}.wall_over_modeled"] = (
            measured[kind] / modeled[kind] if modeled[kind] else 0.0
        )
    return {k: float(v) for k, v in m.items()}
