"""Command-line interface.

``python -m repro <command>`` exposes the library's day-to-day workflows
without writing Python:

* ``profile``  — run the Algorithm 1 sampling profile / format advisor on
  a MatrixMarket file or a named/generated matrix;
* ``stats``    — storage statistics across every B2SR variant (the Fig 5
  per-matrix view) plus the Table V pattern class;
* ``run``      — execute a graph algorithm on both backends and report
  modeled latencies (a one-matrix Table VII row);
* ``multi``    — batched multi-source algorithms (one sweep, k queries);
* ``cluster``  — register one or more serving graphs and dispatch a
  Poisson stream with per-query latency SLOs and urgent/bulk priority
  lanes across N servers, comparing placement policies (and the
  single-server scheduler) at equal aggregate rate under one admission
  ``--policy`` (``slo``, ``flush`` or ``fcfs``); answers are verified
  bit-identical to their standalone runs unless ``--no-verify``;
* ``ingest``   — apply a seeded edge-mutation trace to a serving graph,
  either live (epoch swaps interleaved with a served stream, batches
  never mixing versions) or offline through the bounded-retry
  ingestion loop;
* ``lint``     — the repo-specific invariant linter: per-file AST rules
  plus cross-module call-graph rules (``repro lint --list-rules`` prints
  the registry), with per-rule inline suppressions, ``--baseline``
  diffing and text/JSON/SARIF reports;
* ``matrices`` — list the named paper-matrix stand-ins;
* ``suite``    — describe the 521-matrix evaluation suite.

Matrices are specified as ``name:<named-matrix>``, ``mtx:<path>`` or
``gen:<category>:<n>[:seed]``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis.classify import classify_pattern
from repro.analysis.report import format_table
from repro.datasets.named import NAMED_MATRICES, load_named
from repro.formats.b2sr import TILE_DIMS
from repro.formats.mmio import read_matrix_market
from repro.formats.stats import stats_for_all_tile_dims
from repro.graph import Graph
from repro.gpusim.device import device_by_name
from repro.profiling import recommend_format

ALGORITHMS = ("bfs", "sssp", "pagerank", "cc", "tc", "mis", "coloring",
              "diameter")


def load_matrix(spec: str) -> Graph:
    """Resolve a matrix spec (``name:``, ``mtx:`` or ``gen:``)."""
    kind, _, rest = spec.partition(":")
    if kind == "name":
        return load_named(rest)
    if kind == "mtx":
        csr = read_matrix_market(rest).binarize()
        return Graph(csr, name=rest, category="unknown")
    if kind == "gen":
        from repro.datasets import generators as gen

        parts = rest.split(":")
        if len(parts) < 2:
            raise ValueError(
                "gen spec must be gen:<category>:<n>[:seed]"
            )
        category, n = parts[0], int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        builders = {
            "dot": lambda: gen.dot_pattern(n, 0.005, seed=seed),
            "diagonal": lambda: gen.diagonal_pattern(n, seed=seed),
            "block": lambda: gen.block_pattern(n, seed=seed),
            "stripe": lambda: gen.stripe_pattern(n, seed=seed),
            "road": lambda: gen.road_pattern(n, seed=seed),
            "hybrid": lambda: gen.hybrid_pattern(n, seed=seed),
        }
        if category not in builders:
            raise ValueError(
                f"unknown category {category!r}; valid: "
                f"{sorted(builders)}"
            )
        return builders[category]()
    raise ValueError(
        f"matrix spec must start with name:/mtx:/gen:, got {spec!r}"
    )


def cmd_profile(args: argparse.Namespace) -> int:
    g = load_matrix(args.matrix)
    rec = recommend_format(
        g.csr, sample_rows=args.sample_rows, seed=args.seed
    )
    print(f"matrix: {g.name} (n={g.n}, nnz={g.nnz})")
    rows = [
        [f"{d}x{d}", f"{rec.profile.est_compression[d]:.3f}",
         f"{rec.profile.est_nnz_per_bitrow[d]:.2f}"]
        for d in TILE_DIMS
    ]
    print(
        format_table(
            ["tile", "est. B2SR/CSR bytes", "est. nnz/bit-row"], rows,
            title=f"Algorithm 1 sampling profile "
                  f"({rec.profile.sample_rows} rows)",
        )
    )
    print(f"\nverdict: {rec.reason}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    g = load_matrix(args.matrix)
    stats = stats_for_all_tile_dims(g.csr)
    rows = []
    for d in TILE_DIMS:
        s = stats[d]
        rows.append(
            [
                f"{d}x{d}", s.n_tiles,
                f"{100 * s.nonempty_tile_ratio:.1f}%",
                f"{100 * s.tile_occupancy:.2f}%",
                f"{s.b2sr_bytes / 1024:.1f}",
                f"{100 * s.compression_ratio:.1f}%",
            ]
        )
    print(f"matrix: {g.name} (n={g.n}, nnz={g.nnz})")
    print(f"pattern class: {classify_pattern(g.csr)}")
    print(
        format_table(
            ["tile", "tiles", "non-empty", "occupancy", "B2SR KB",
             "vs CSR"],
            rows,
            title=f"storage (float CSR = "
                  f"{stats[4].csr_bytes / 1024:.1f} KB)",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.algorithms import (
        bfs, connected_components, greedy_coloring,
        maximal_independent_set, pagerank, pseudo_diameter, sssp,
        triangle_count,
    )
    from repro.engines import BitEngine, GraphBLASTEngine

    g = load_matrix(args.matrix)
    if args.algorithm in ("cc", "tc", "mis", "coloring"):
        g = g.symmetrized()
    device = device_by_name(args.device)

    def execute(engine):
        if args.algorithm == "bfs":
            out, rep = bfs(engine, args.source)
            summary = f"reached {(out >= 0).sum()} vertices"
        elif args.algorithm == "sssp":
            out, rep = sssp(engine, args.source)
            summary = f"{np.isfinite(out).sum()} reachable"
        elif args.algorithm == "pagerank":
            out, rep = pagerank(engine)
            summary = f"top vertex {int(np.argmax(out))}"
        elif args.algorithm == "cc":
            out, rep = connected_components(engine)
            summary = f"{len(np.unique(out))} components"
        elif args.algorithm == "tc":
            out, rep = triangle_count(engine)
            summary = f"{out} triangles"
        elif args.algorithm == "mis":
            out, rep = maximal_independent_set(engine, seed=args.seed)
            summary = f"|MIS| = {int(out.sum())}"
        elif args.algorithm == "coloring":
            out, rep = greedy_coloring(engine, seed=args.seed)
            summary = f"{int(out.max()) + 1} colors"
        else:
            out, rep = pseudo_diameter(engine, source=args.source)
            summary = f"diameter >= {out}"
        return summary, rep

    # Backend comparison stays paper-faithful: the paper's kernels sweep
    # every stored tile, so the active-tile skip the serving commands use
    # is disabled here (cf. bench/harness.py reproduction rows).
    bit_summary, bit_rep = execute(
        BitEngine(
            g, device=device, tile_dim=args.tile_dim, skip_inactive=False
        )
    )
    gb_summary, gb_rep = execute(GraphBLASTEngine(g, device=device))
    if bit_summary != gb_summary:
        print(
            f"warning: backend summaries differ: {bit_summary!r} vs "
            f"{gb_summary!r}",
            file=sys.stderr,
        )
    print(f"matrix: {g.name} (n={g.n}, nnz={g.nnz})  device: {device.name}")
    print(f"result: {bit_summary}")
    rows = [
        ["Bit-GraphBLAS", f"{bit_rep.algorithm_ms:.4f}",
         f"{bit_rep.kernel_ms:.4f}", bit_rep.iterations],
        ["GraphBLAST", f"{gb_rep.algorithm_ms:.4f}",
         f"{gb_rep.kernel_ms:.4f}", gb_rep.iterations],
        ["speedup",
         f"{gb_rep.algorithm_ms / max(bit_rep.algorithm_ms, 1e-12):.1f}x",
         f"{gb_rep.kernel_ms / max(bit_rep.kernel_ms, 1e-12):.1f}x", ""],
    ]
    print(
        format_table(
            ["backend", "algorithm ms", "kernel ms", "iterations"], rows,
            title=f"{args.algorithm} (modeled)",
        )
    )
    return 0


def _combined_report(engine, reports):
    """Sum per-query reports into one (the honest k-independent-runs
    baseline: each query pays its own full cost, finished queries pay
    nothing)."""
    from repro.engines import EngineReport
    from repro.gpusim.counters import KernelStats

    alg, ker, iters = KernelStats(), KernelStats(), 0
    for rep in reports:
        alg += rep.algorithm_stats
        ker += rep.kernel_stats
        iters += rep.iterations
    return EngineReport(
        device=engine.device,
        iterations=iters,
        algorithm_stats=alg,
        kernel_stats=ker,
        backend=engine.backend_name,
    )


def cmd_multi(args: argparse.Namespace) -> int:
    from repro.algorithms import (
        bfs, landmark_diameter, multi_source_bfs, multi_source_sssp,
        pagerank_multi, pseudo_diameter, sssp,
    )
    from repro.engines import BitEngine, GraphBLASTEngine

    if args.sources < 1:
        print("error: --sources must be >= 1", file=sys.stderr)
        return 2
    g = load_matrix(args.matrix)
    device = device_by_name(args.device)
    rng = np.random.default_rng(args.seed)
    k = min(args.sources, g.n)
    sources = np.sort(rng.choice(g.n, size=k, replace=False))

    # Cross-backend comparison: keep the paper's dense sweeps on the bit
    # side (see cmd_run) so batched-vs-singles speedups are not conflated
    # with the serving stack's active-tile skip.
    bit = BitEngine(
        g, device=device, tile_dim=args.tile_dim, skip_inactive=False
    )
    gb = GraphBLASTEngine(g, device=device)
    if args.algorithm == "bfs":
        db, bit_rep = multi_source_bfs(bit, sources)
        singles = []
        for j, s in enumerate(sources):
            d1, r1 = bfs(gb, int(s))
            singles.append(r1)
            if not np.array_equal(db[:, j], d1):
                print(
                    f"warning: backends disagree on depths from {s}",
                    file=sys.stderr,
                )
        gb_rep = _combined_report(gb, singles)
        reached = int((db >= 0).sum())
        summary = f"{reached} (vertex, source) pairs reached"
    elif args.algorithm == "sssp":
        dist, bit_rep = multi_source_sssp(bit, sources)
        singles = []
        for j, s in enumerate(sources):
            d1, r1 = sssp(gb, int(s))
            singles.append(r1)
            if not np.array_equal(dist[:, j], d1, equal_nan=True):
                print(
                    f"warning: backends disagree on distances from {s}",
                    file=sys.stderr,
                )
        gb_rep = _combined_report(gb, singles)
        summary = (
            f"{int(np.isfinite(dist).sum())} (vertex, source) pairs "
            f"reachable"
        )
    elif args.algorithm == "diameter":
        est_b, bit_rep = landmark_diameter(
            bit, landmarks=k, seed=args.seed
        )
        # Baseline: one independent double-sweep probe per landmark.
        probes = [pseudo_diameter(gb, source=int(s)) for s in sources]
        est_g = max(est for est, _ in probes)
        gb_rep = _combined_report(gb, [rep for _, rep in probes])
        summary = (
            f"diameter >= {est_b} ({k} landmarks; "
            f"{k} independent double-sweeps give >= {est_g})"
        )
    else:  # pagerank
        rb, bit_rep = pagerank_multi(bit, sources)
        singles = []
        for j, s in enumerate(sources):
            r1, rep1 = pagerank_multi(gb, np.array([s]))
            singles.append(rep1)
            if not np.allclose(rb[:, j], r1[:, 0], atol=1e-4):
                print(
                    f"warning: backends disagree on ranks for seed {s}",
                    file=sys.stderr,
                )
        gb_rep = _combined_report(gb, singles)
        summary = f"top vertex {int(np.argmax(rb.sum(axis=1)))}"
    print(
        f"matrix: {g.name} (n={g.n}, nnz={g.nnz})  device: {device.name}  "
        f"batch k={k}"
    )
    print(f"result: {summary}")
    rows = [
        ["Bit-GraphBLAS (batched)", f"{bit_rep.algorithm_ms:.4f}",
         f"{bit_rep.kernel_ms:.4f}", bit_rep.kernel_stats.launches,
         bit_rep.iterations],
        ["GraphBLAST (k singles)", f"{gb_rep.algorithm_ms:.4f}",
         f"{gb_rep.kernel_ms:.4f}", gb_rep.kernel_stats.launches,
         gb_rep.iterations],
        ["speedup",
         f"{gb_rep.algorithm_ms / max(bit_rep.algorithm_ms, 1e-12):.1f}x",
         f"{gb_rep.kernel_ms / max(bit_rep.kernel_ms, 1e-12):.1f}x",
         "", ""],
    ]
    print(
        format_table(
            ["backend", "algorithm ms", "kernel ms", "launches",
             "iterations"],
            rows,
            title=f"multi-source {args.algorithm} (modeled, k={k})",
        )
    )
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    import warnings

    from repro.serving import (
        FaultPlan,
        GraphRegistry,
        PLACEMENTS,
        Router,
        WorkerPool,
        multi_graph_poisson_stream,
        parse_speed_spec,
    )
    from repro.serving import parallel

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.servers < 1:
        print("error: --servers must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if not args.rate > 0:
        print("error: --rate must be > 0", file=sys.stderr)
        return 2
    if not (args.slo > 0 and args.urgent_slo > 0):
        print("error: --slo/--urgent-slo must be > 0", file=sys.stderr)
        return 2
    if not 0 <= args.urgent_fraction <= 1:
        print("error: --urgent-fraction must be in [0, 1]",
              file=sys.stderr)
        return 2
    if not args.slack_factor >= 1.0:
        print("error: --slack-factor must be >= 1.0", file=sys.stderr)
        return 2
    faults = None
    if args.fail or args.recover:
        try:
            faults = FaultPlan.from_specs(
                fail=args.fail, recover=args.recover
            )
            faults.validate(args.servers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    speeds: dict[int, float] = {}
    try:
        for spec in args.speed:
            sid, factor = parse_speed_spec(spec)
            if sid >= args.servers:
                raise ValueError(
                    f"speed spec {spec!r} targets server {sid} but "
                    f"--servers is {args.servers}"
                )
            speeds[sid] = factor
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    device = device_by_name(args.device)

    registry = GraphRegistry(max_batch=args.max_batch)
    sizes: dict[str, int] = {}
    for spec in args.matrix:
        g = load_matrix(spec)
        name = g.name
        suffix = 2
        while name in registry:
            name = f"{g.name}#{suffix}"
            suffix += 1
        registry.add(name, g, device=device, tile_dim=args.tile_dim)
        sizes[name] = g.n
    stream = multi_graph_poisson_stream(
        sizes,
        requests=args.requests,
        rate_qps=args.rate,
        slo_ms=args.slo,
        urgent_slo_ms=args.urgent_slo,
        urgent_fraction=args.urgent_fraction,
        seed=args.seed,
    )
    placements = (
        tuple(PLACEMENTS) if args.placement == "all"
        else (args.placement,)
    )
    verify = not args.no_verify

    print(
        f"graphs: {', '.join(f'{n} (n={s})' for n, s in sizes.items())}  "
        f"device: {device.name}\n"
        f"stream: {args.requests} Poisson arrivals @ {args.rate:g} q/s "
        f"aggregate, SLO {args.slo:g} ms bulk / {args.urgent_slo:g} ms "
        f"urgent ({100 * args.urgent_fraction:.0f}% urgent), "
        f"max batch {args.max_batch}"
    )
    rows = []
    base_estimates = registry.estimator_state()
    # With faults or an explicit speed map, the 1-server comparison row
    # is meaningless (the faults target the full fleet) — run only the
    # requested fleet size.
    if faults is not None or speeds:
        server_counts = [args.servers]
    else:
        server_counts = [1] if args.servers == 1 else [1, args.servers]
    # --workers 0 (or no --workers) serves in-process; so does any N
    # on a host without POSIX shared memory, with one warning.
    pool = None
    if args.workers:
        if parallel.shm_available():
            pool = WorkerPool(registry, processes=args.workers)
        else:
            warnings.warn(
                "POSIX shared memory is unavailable; serving in-process "
                f"instead of on {args.workers} worker processes",
                RuntimeWarning,
                stacklevel=1,
            )
    planes: list[dict] = []
    fault_lines: list[str] = []
    try:
        for n_servers in server_counts:
            router = Router(
                registry,
                n_servers=n_servers,
                slack_factor=args.slack_factor,
                seed=args.seed,
            )
            names = ("affinity",) if n_servers == 1 else placements
            for name in names:
                # Every row starts from identical estimator state so the
                # compared cells are run under equal conditions.
                registry.restore_estimator_state(base_estimates)
                _, rep = router.run(
                    stream, policy=args.policy, placement=name,
                    verify=verify, data_plane=pool,
                    faults=faults, speeds=speeds or None,
                )
                if faults is not None or speeds:
                    fault_lines.append(
                        f"  {name}: faults={rep.faults} "
                        f"requeues={rep.requeues} steals={rep.steals} "
                        f"failed={rep.failed} "
                        f"speed-norm util={100 * rep.speed_utilization:.1f}%"
                    )
                if "data_plane" in rep.extra:
                    planes.append(rep.extra["data_plane"])
                graphs = " ".join(
                    f"{g}={100 * att:.0f}%"
                    for g, att in sorted(rep.graph_attainment.items())
                )
                label = "single" if n_servers == 1 else name
                rows.append(
                    [
                        label,
                        n_servers,
                        f"{100 * rep.slo_attainment:.1f}%",
                        graphs,
                        rep.batches,
                        f"{rep.mean_batch_width:.1f}",
                        rep.joins,
                        f"{rep.mean_queue_ms:.2f}",
                        f"{rep.busy_ms:.2f}",
                        f"{rep.imbalance:.2f}",
                    ]
                )
    finally:
        if pool is not None:
            pool.close()
    title = (
        f"sharded cluster serving ({len(registry)} graphs, policy "
        f"{args.policy})"
    )
    if verify:
        title += "; every answer verified bit-identical to its solo run"
    print(
        format_table(
            ["placement", "servers", "SLO att.", "per graph", "batches",
             "mean k", "joins", "queue ms", "busy ms", "imbalance"],
            rows,
            title=title,
        )
    )
    if fault_lines:
        print("fault tolerance (every served answer still verified):")
        for line in fault_lines:
            print(line)
    if planes:
        launches = sum(len(p["launches"]) for p in planes)
        wall = sum(p["wall_ms_total"] for p in planes)
        reexec = sum(p.get("reexecutions", 0) for p in planes)
        p0 = planes[0]
        print(
            f"data plane: {p0['processes']} worker processes over shared "
            f"memory — {launches} real launches across {len(planes)} rows, "
            f"{wall:.1f} ms wall-clock kernel time"
            + (f", {reexec} re-executions after worker loss"
               if reexec else "")
        )
        measured = planes[-1].get("measured_speeds") or {}
        if measured and (faults is not None or speeds):
            pairs = " ".join(
                f"w{w}={f:.2f}x" for w, f in sorted(measured.items())
            )
            print(f"measured worker speeds (fleet-mean-normalized): {pairs}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.serving import (
        GraphRegistry,
        Ingester,
        Router,
        mutation_trace,
        poisson_stream,
    )

    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 2
    if args.batches < 1:
        print("error: --batches must be >= 1", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if not args.rate > 0:
        print("error: --rate must be > 0", file=sys.stderr)
        return 2
    if not 0 <= args.insert_fraction <= 1:
        print("error: --insert-fraction must be in [0, 1]",
              file=sys.stderr)
        return 2
    device = device_by_name(args.device)

    g = load_matrix(args.matrix)
    store = GraphRegistry(max_batch=args.max_batch)
    store.add(g.name, g, device=device, tile_dim=args.tile_dim)

    # Spread the mutation batches across the expected stream horizon so
    # swaps land mid-stream, with in-flight batches on both sides.
    horizon_ms = 1000.0 * args.requests / args.rate
    gap_ms = horizon_ms / (args.batches + 1)
    trace = mutation_trace(
        g,
        batches=args.batches,
        batch_size=args.batch_size,
        insert_fraction=args.insert_fraction,
        start_ms=gap_ms,
        gap_ms=gap_ms,
        seed=args.seed,
        name=g.name,
    )
    print(
        f"graph: {g.name} (n={g.n}, nnz={g.nnz})  device: {device.name}\n"
        f"mutations: {args.batches} batches x {args.batch_size} edits "
        f"({100 * args.insert_fraction:.0f}% inserts), one every "
        f"{gap_ms:.2f} ms"
    )

    if args.offline:
        report = Ingester(store, max_retries=args.max_retries).run(trace)
        rows = [
            [
                f"{r.time_ms:.2f}",
                r.version if r.ok else "-",
                r.inserts,
                r.deletes,
                f"{100 * r.rebuilt_fraction:.1f}%" if r.ok else "-",
                r.attempts,
                "ok" if r.ok else (r.error or "failed"),
            ]
            for r in report.records
        ]
        print(
            format_table(
                ["t ms", "version", "+ins", "-del", "rebuilt",
                 "attempts", "status"],
                rows,
                title=(
                    f"offline ingest: {report.applied} applied, "
                    f"{report.retried} retried, {report.failed} failed; "
                    f"mean rebuilt fraction "
                    f"{100 * report.mean_rebuilt_fraction:.1f}%"
                ),
            )
        )
        return 0 if report.failed == 0 else 1

    stream = poisson_stream(
        g.n,
        requests=args.requests,
        rate_qps=args.rate,
        slo_ms=args.slo,
        seed=args.seed,
        graph=g.name,
    )
    router = Router(store, n_servers=args.servers, seed=args.seed)
    outcomes, rep = router.run(
        stream, verify=not args.no_verify, mutations=trace
    )
    mixed = 0
    by_launch: dict[tuple[int, float], set[int]] = {}
    for o in outcomes:
        by_launch.setdefault((o.server, o.launch_ms), set()).add(
            o.version
        )
    mixed = sum(1 for v in by_launch.values() if len(v) > 1)
    rows = [
        [
            f"{s.time_ms:.2f}",
            s.version,
            s.inserts,
            s.deletes,
            f"{100 * s.rebuilt_fraction:.1f}%",
        ]
        for s in rep.extra.get("swaps", [])
    ]
    title = (
        f"live ingest across {rep.swaps} epoch swaps: "
        f"{rep.served} served, SLO attainment "
        f"{100 * rep.slo_attainment:.1f}%, {mixed} mixed-version batches"
    )
    if rep.verified:
        title += "; every answer verified on its admitted epoch"
    print(
        format_table(
            ["t ms", "version", "+ins", "-del", "rebuilt"],
            rows,
            title=title,
        )
    )
    return 0 if mixed == 0 else 1


def cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import (
        ALL_RULES,
        LintPathError,
        apply_baseline,
        get_rules,
        lint_project,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        rows = [[r.id, r.scope, r.description] for r in ALL_RULES]
        print(format_table(["rule", "scope", "invariant"], rows,
                           title="registered invariant rules"))
        return 0
    try:
        rules = get_rules(args.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(
                Path(args.baseline).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        report = lint_project(args.paths, rules=rules)
    except LintPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = report.violations
    if baseline is not None:
        violations, _matched = apply_baseline(violations, baseline)
    if args.format == "json":
        print(render_json(violations, files_scanned=report.files_scanned))
    elif args.format == "sarif":
        print(render_sarif(violations, ALL_RULES))
    else:
        print(
            render_text(
                violations,
                files_scanned=report.files_scanned,
                show_suppressed=args.show_suppressed,
            )
        )
    if args.stats:
        print(_json.dumps(report.stats.to_row(), sort_keys=True))
    return 1 if any(not v.suppressed for v in violations) else 0


def cmd_matrices(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(NAMED_MATRICES):
        if args.build:
            g = load_named(name)
            rows.append([name, g.n, g.nnz, g.category])
        else:
            rows.append([name, "-", "-", "-"])
    print(
        format_table(
            ["name", "n", "nnz", "category"], rows,
            title="named paper-matrix stand-ins",
        )
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.datasets.suite import CATEGORY_WEIGHTS, evaluation_suite

    entries = evaluation_suite()
    counts: dict[str, int] = {}
    for e in entries:
        counts[e.category] = counts.get(e.category, 0) + 1
    rows = [
        [cat, counts.get(cat, 0), f"{100 * w:.1f}%"]
        for cat, w in CATEGORY_WEIGHTS.items()
    ]
    print(
        format_table(
            ["category", "matrices", "target share"], rows,
            title=f"evaluation suite: {len(entries)} matrices "
                  f"(sizes {min(e.n for e in entries)}–"
                  f"{max(e.n for e in entries)})",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Bit-GraphBLAS reproduction CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="Algorithm 1 sampling profile")
    sp.add_argument("matrix")
    sp.add_argument("--sample-rows", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("stats", help="B2SR storage statistics")
    sp.add_argument("matrix")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("run", help="run an algorithm on both backends")
    sp.add_argument("algorithm", choices=ALGORITHMS)
    sp.add_argument("matrix")
    sp.add_argument("--source", type=int, default=0)
    sp.add_argument("--tile-dim", type=int, default=32,
                    choices=list(TILE_DIMS))
    sp.add_argument("--device", default="pascal")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser(
        "multi", help="batched multi-source algorithms (one sweep, k queries)"
    )
    sp.add_argument("matrix")
    sp.add_argument("--algorithm", default="bfs",
                    choices=("bfs", "sssp", "diameter", "pagerank"))
    sp.add_argument("--sources", type=int, default=32,
                    help="batch width k (sources / landmarks / seeds)")
    sp.add_argument("--tile-dim", type=int, default=32,
                    choices=list(TILE_DIMS))
    sp.add_argument("--device", default="pascal")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_multi)

    sp = sub.add_parser(
        "cluster",
        help="dispatch one cross-graph Poisson stream across N servers; "
             "compare placement policies against the single-server "
             "scheduler at equal aggregate rate",
    )
    sp.add_argument("matrix", nargs="+",
                    help="one spec per serving graph (>= 2 for sharding "
                         "to matter)")
    sp.add_argument("--servers", type=int, default=2,
                    help="cluster size N")
    sp.add_argument("--requests", type=int, default=48,
                    help="total Poisson arrivals across all graphs")
    sp.add_argument("--rate", type=float, default=4000.0,
                    help="aggregate arrival rate in queries per second "
                         "(split across graphs)")
    sp.add_argument("--slo", type=float, default=20.0,
                    help="bulk-lane latency budget in modeled ms")
    sp.add_argument("--urgent-slo", type=float, default=5.0,
                    help="urgent-lane latency budget in modeled ms")
    sp.add_argument("--urgent-fraction", type=float, default=0.1,
                    help="fraction of requests in the urgent lane")
    sp.add_argument("--max-batch", type=int, default=32,
                    help="widest coalesced launch / join capacity")
    sp.add_argument("--slack-factor", type=float, default=1.5,
                    help="safety multiplier on service estimates when "
                         "computing launch deadlines")
    sp.add_argument("--policy", default="slo",
                    choices=("slo", "flush", "fcfs"))
    sp.add_argument("--placement", default="all",
                    choices=("all", "affinity", "least-loaded", "p2c",
                             "speed-aware"))
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the standalone bitwise-equality check")
    sp.add_argument("--fail", action="append", default=[],
                    metavar="SID@T_MS",
                    help="crash server SID at modeled time T_MS "
                         "(repeatable); with --workers the pinned worker "
                         "process is SIGKILLed at the same instant")
    sp.add_argument("--recover", action="append", default=[],
                    metavar="SID@T_MS",
                    help="bring a crashed server SID back at modeled "
                         "time T_MS (repeatable)")
    sp.add_argument("--speed", action="append", default=[],
                    metavar="SID=F",
                    help="server SID runs at speed factor F — a "
                         "heterogeneous fleet (repeatable; pairs with "
                         "--placement speed-aware)")
    sp.add_argument("--workers", type=int, default=None,
                    help="execute committed batches on N real worker "
                         "processes over zero-copy shared memory; 0 or "
                         "omitted serves in-process (as does any N, with "
                         "a warning, when POSIX shm is unavailable)")
    sp.add_argument("--tile-dim", type=int, default=32,
                    choices=list(TILE_DIMS))
    sp.add_argument("--device", default="pascal")
    sp.add_argument("--seed", type=int, default=0,
                    help="seeds the Poisson stream and randomized "
                         "placement (reproducible runs)")
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser(
        "ingest",
        help="apply a seeded edge-mutation trace to a versioned graph "
             "store: live (epoch swaps interleaved with a served Poisson "
             "stream) or --offline (bounded-retry ingestion loop)",
    )
    sp.add_argument("matrix", help="the serving graph to mutate")
    sp.add_argument("--batches", type=int, default=4,
                    help="number of mutation batches in the trace")
    sp.add_argument("--batch-size", type=int, default=8,
                    help="edge edits per mutation batch")
    sp.add_argument("--insert-fraction", type=float, default=0.5,
                    help="fraction of each batch that inserts edges "
                         "(the rest deletes existing ones)")
    sp.add_argument("--offline", action="store_true",
                    help="apply the trace through the retrying ingester "
                         "without serving a query stream")
    sp.add_argument("--max-retries", type=int, default=2,
                    help="ingestion retries per batch (offline mode)")
    sp.add_argument("--servers", type=int, default=2,
                    help="cluster size for the live serving run")
    sp.add_argument("--requests", type=int, default=48,
                    help="Poisson arrivals in the live serving run")
    sp.add_argument("--rate", type=float, default=4000.0,
                    help="arrival rate in queries per second")
    sp.add_argument("--slo", type=float, default=20.0,
                    help="latency budget in modeled ms")
    sp.add_argument("--max-batch", type=int, default=32,
                    help="widest coalesced launch / join capacity")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the standalone bitwise-equality check")
    sp.add_argument("--tile-dim", type=int, default=32,
                    choices=list(TILE_DIMS))
    sp.add_argument("--device", default="pascal")
    sp.add_argument("--seed", type=int, default=0,
                    help="seeds the stream and the mutation trace")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser(
        "lint",
        help="invariant linter: per-file AST rules plus cross-module "
             "call-graph rules (see --list-rules)",
    )
    sp.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src); "
                         "a missing path is an error (exit 2)")
    sp.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text", help="report format")
    sp.add_argument("--select", default=None,
                    help="comma-separated rule ids (default: all)")
    sp.add_argument("--show-suppressed", action="store_true",
                    help="also list sanctioned (suppressed) exceptions")
    sp.add_argument("--list-rules", action="store_true",
                    help="print the rule registry and exit")
    sp.add_argument("--baseline", default=None, metavar="FILE",
                    help="previous --format json report; only findings "
                         "not present in it are reported")
    sp.add_argument("--stats", action="store_true",
                    help="append per-rule timings as a JSON row")
    sp.set_defaults(func=cmd_lint)

    sp = sub.add_parser("matrices", help="list named stand-ins")
    sp.add_argument("--build", action="store_true",
                    help="materialise each matrix for sizes")
    sp.set_defaults(func=cmd_matrices)

    sp = sub.add_parser("suite", help="describe the evaluation suite")
    sp.set_defaults(func=cmd_suite)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
