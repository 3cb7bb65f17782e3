"""The benchmark's own checks: determinism, oracle sensitivity and
agreement with ``BENCHMARK.json``.

    python3 perfbench/selftest.py               (from the repository root)
    python -m pytest perfbench/selftest.py -q   (same checks under pytest)

Each workload runs twice at a tenth of its stream, traced, in fresh
processes; the two runs must agree bit-for-bit on the modeled metrics,
every exact per-layer count (launches, rounds, tile visits, solo runs,
swaps) and the digest of every answer.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from perfbench.metrics import END_TO_END, EXACT_LAYER, PER_LAYER  # noqa: E402
from perfbench.run import serve_once  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

REDUCED = 0.1


def test_metrics_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [row[:3] for row in PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def _exact(row: dict) -> dict:
    return {
        "modeled": row["modeled"],
        "digest": row["digest"],
        "swaps": row["swaps"],
        "attempted": row["attempted"],
        "layers": {name: row["layers"][name] for name in EXACT_LAYER},
    }


def check_reduced_runs_repeat(workload: str) -> None:
    first, second = (
        serve_once(workload, 7, trace=True, scale=REDUCED) for _ in range(2)
    )
    assert first["ok"] and second["ok"], (first["errors"], second["errors"])
    assert first["served"] == first["attempted"]
    a, b = _exact(first), _exact(second)
    diff = {k: (a["layers"][k], b["layers"][k])
            for k in a["layers"] if a["layers"][k] != b["layers"][k]}
    assert a == b, diff or (a, b)
    # The counts the determinism claim rests on were actually exercised.
    layers = a["layers"]
    assert layers["cluster.launches"] > 0
    assert sum(layers[f"algorithms.{k}.rounds"] for k in ("bfs", "sssp", "cc")) \
        + layers["verify.solo_runs"] > 0
    if WORKLOADS[workload].swaps:
        assert a["swaps"] == layers["formats.mutate_calls"] > 0


def test_sssp_overload_repeats() -> None:
    check_reduced_runs_repeat("sssp-overload")


def test_bfs_cc_flood_repeats() -> None:
    check_reduced_runs_repeat("bfs-cc-flood")


def test_churn_verified_pool_repeats() -> None:
    check_reduced_runs_repeat("churn-verified-pool")


def test_oracle_rejects_corrupted_answers() -> None:
    from repro.gpusim import GTX1080
    from repro.serving import GraphStore, Router

    from perfbench.oracle import Oracle
    from perfbench.workloads import make_inputs

    # A versioned in-process run with swaps, so answers on later epochs
    # are checked against their own edge sets too.
    workload = dataclasses.replace(
        WORKLOADS["churn-verified-pool"], pool=False, requests=40
    )
    inputs = make_inputs(workload, seed=3)
    store = GraphStore(max_batch=32)
    for name, graph in inputs.graphs.items():
        store.add(name, graph, device=GTX1080, tile_dim=32)
    outcomes, report = Router(store, n_servers=2).run(
        inputs.stream, mutations=inputs.mutations
    )
    assert report.swaps == len(inputs.mutations)
    oracle = Oracle(inputs.graphs, inputs.mutations)
    assert oracle.check(outcomes) == (len(outcomes), 0, [])
    assert any(o.version > 0 for o in outcomes)

    for kind in ("bfs", "sssp", "cc"):
        seq = next(i for i, o in enumerate(outcomes) if o.arrival.kind == kind)
        good = outcomes[seq].result
        bad = good.copy()
        # The source's own entry (vertex 0's label for cc) is finite.
        bad[outcomes[seq].arrival.source or 0] += 1
        outcomes[seq].result = bad
        _, _, errors = oracle.check(outcomes)
        assert len(errors) == 1 and f"arrival {seq}:" in errors[0], errors
        outcomes[seq].result = good.astype(np.float64)
        assert len(oracle.check(outcomes)[2]) == 1, "dtype change accepted"
        outcomes[seq].result = good

    # An answer served on a later epoch must not pass as epoch 0's.
    def differs(o) -> bool:
        a = o.arrival
        old = oracle.answers(a.graph, 0, a.kind, [a.source])[a.source]
        return not np.array_equal(old, o.result)

    seq = next(
        i for i, o in enumerate(outcomes) if o.version > 0 and differs(o)
    )
    outcomes[seq].version = 0
    assert oracle.check(outcomes)[2], "stale-epoch answer accepted"


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
