"""One cold-start serving process: set up, serve one stream, check it.

``python -m perfbench.serve --workload NAME --seed N [--part P]
[--trace 0|1]`` (with the repository's ``src`` and root on
``PYTHONPATH``) imports the program, builds the workload's registry (and
worker pool), times one ``Router.run`` over part ``P`` of the seeded
inputs, checks every served answer
against the oracle and prints one JSON object on its last stdout line.
It exits 3 when an answer is wrong or unaccounted for.

``setup_s`` runs from the first ``import repro`` until the process can
serve: imports, registry build (B2SR conversion and plan warm-up) and,
for the pool, both workers spawned, attached and through one warm
launch each.  Drawing the inputs from the seed is not part of it.

Worker processes re-import this module, so it imports only the
standard library at module level.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _modeled(outcomes: list, report) -> dict[str, float]:
    """This stream's modeled metrics (a run pools its parts' metrics
    from ``latencies_ms`` and ``slo_met``; these check that repetitions
    of one part agree)."""
    import numpy as np

    served = [o for o in outcomes if o.failure is None]
    latency = np.array([o.latency_ms for o in served])
    return {
        "served_fraction": len(served) / len(outcomes),
        "modeled_attainment": float(report.slo_attainment),
        "modeled_latency_p50_ms": (
            float(np.percentile(latency, 50)) if served else 0.0
        ),
        "modeled_latency_p95_ms": (
            float(np.percentile(latency, 95)) if served else 0.0
        ),
        "modeled_makespan_ms": float(report.makespan_ms),
    }


def serve(workload_name: str, seed: int, *, part: int, trace: bool,
          scale: float, trace_path: str | None,
          setup_only: bool) -> tuple[dict, bool]:
    """Run the workload once; returns ``(result row, answers ok)``.
    ``setup_only`` stops once the process could serve and reports the
    set-up time alone."""
    t0 = time.perf_counter()
    from repro.gpusim import GTX1080
    from repro.serving import (
        GraphRegistry,
        GraphStore,
        LaunchSpec,
        Router,
        WorkerPool,
    )

    import_s = time.perf_counter() - t0

    from perfbench import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    inputs = wl.make_inputs(workload, seed, part, scale)
    tracer = None
    if trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    registry = (GraphStore if workload.swaps else GraphRegistry)(
        max_batch=wl.MAX_BATCH
    )
    for name, graph in inputs.graphs.items():
        registry.add(name, graph, device=GTX1080, tile_dim=wl.TILE_DIM)
    pool = None
    spawn_attach_s = 0.0
    if workload.pool:
        t_pool = time.perf_counter()
        pool = WorkerPool(registry, processes=wl.POOL_PROCESSES)
        first = registry.names[0]
        for sid in range(wl.POOL_PROCESSES):
            pool.submit(sid, LaunchSpec(
                batch_id=pool.next_batch_id(), graph=first, version=0,
                kind="bfs", sources=(0,), width=1,
            ))
        warm = pool.drain()
        bad = [r.error for r in warm.values() if r.error is not None]
        if len(warm) != wl.POOL_PROCESSES or bad:
            raise RuntimeError(f"worker warm-up failed: {bad}")
        spawn_attach_s = time.perf_counter() - t_pool
    setup_s = import_s + (time.perf_counter() - t1)
    if setup_only:
        if pool is not None:
            pool.close()
        return {"workload": workload_name, "seed": seed, "part": part,
                "setup_s": setup_s, "import_s": import_s}, True

    router = Router(
        registry, n_servers=wl.N_SERVERS, placement=wl.PLACEMENT, seed=0
    )
    if tracer is not None:
        tracer.phase = "run"
    try:
        t_run = time.perf_counter()
        outcomes, report = router.run(
            inputs.stream,
            verify=workload.verify,
            mutations=inputs.mutations or None,
            data_plane=pool,
        )
        run_wall_s = time.perf_counter() - t_run
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    finally:
        if pool is not None:
            pool.close()
    # The workers have been joined: their peak is the children's.
    worker_peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if pool is not None else 0.0
    )

    from perfbench.oracle import Oracle, digest

    if tracer is not None:
        tracer.uninstall()
    served, failed, errors = Oracle(inputs.graphs, inputs.mutations).check(
        outcomes
    )
    attempted = len(inputs.stream)
    ok = not errors and served + failed == attempted == len(outcomes)
    row = {
        "workload": workload_name,
        "seed": seed,
        "part": part,
        "setup_s": setup_s,
        "import_s": import_s,
        "run_wall_s": run_wall_s,
        "attempted": attempted,
        "served": served,
        "failed": failed,
        "errors": errors[:5],
        "wall_qps": served / run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "modeled": _modeled(outcomes, report),
        "latencies_ms": [o.latency_ms for o in outcomes if o.failure is None],
        "slo_met": sum(o.slo_met for o in outcomes),
        "swaps": report.swaps,
        "digest": digest(outcomes),
    }
    if tracer is not None:
        from perfbench.tracer import layer_metrics

        row["layers"] = layer_metrics(
            tracer,
            report=report,
            outcomes=outcomes,
            registry=registry,
            run_wall_s=run_wall_s,
            spawn_attach_s=spawn_attach_s,
            worker_peak_rss_mb=worker_peak_rss_mb,
        )
        if trace_path:
            tracer.write_chrome(trace_path)
    return row, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-path", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    row, ok = serve(
        args.workload, args.seed, part=args.part, trace=bool(args.trace),
        scale=args.scale, trace_path=args.trace_path,
        setup_only=args.setup_only,
    )
    print(json.dumps(row))
    if not ok:
        print(
            f"{args.workload} seed {args.seed}: wrong or unaccounted "
            f"answers: {row['errors']}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
