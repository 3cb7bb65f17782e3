"""Tests for the bench harness helpers, the committed ``BENCH_*.json``
baselines and the new mxm_structural op."""

import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import KernelSpeedup, suite_subset
from repro.datasets.generators import diagonal_pattern, dot_pattern
from repro.graph import Graph
from repro.graphblas import Descriptor, mxm_structural


class TestKernelSpeedupRecord:
    def test_speedup_zero_guard(self):
        r = KernelSpeedup(
            name="x", category="dot", density=0.1, tile_dim=8,
            scheme="s", device="d", baseline_ms=1.0, b2sr_ms=0.0,
        )
        assert r.speedup == 0.0

    def test_speedup_ratio(self):
        r = KernelSpeedup(
            name="x", category="dot", density=0.1, tile_dim=8,
            scheme="s", device="d", baseline_ms=3.0, b2sr_ms=1.5,
        )
        assert r.speedup == pytest.approx(2.0)


class TestSuiteSubset:
    def test_deterministic(self):
        a = suite_subset(40)
        b = suite_subset(40)
        assert [e.name for e in a] == [e.name for e in b]

    def test_respects_max_n(self):
        for e in suite_subset(40, max_n=512):
            assert e.n <= 512

    def test_different_counts_nested_categories(self):
        small = suite_subset(20)
        cats_small = {e.category for e in small}
        assert len(cats_small) >= 4


class TestMxmStructural:
    def test_bit_matches_csr_backend(self):
        rng = np.random.default_rng(1)
        dense_a = (rng.random((48, 48)) < 0.15).astype(np.float32)
        dense_b = (rng.random((48, 48)) < 0.15).astype(np.float32)
        ga = Graph.from_dense(dense_a)
        gb = Graph.from_dense(dense_b)
        c_bit = mxm_structural(
            ga.csr, gb.csr, desc=Descriptor(backend="bit", tile_dim=8)
        )
        c_csr = mxm_structural(
            ga.csr, gb.csr, desc=Descriptor(backend="csr")
        )
        expect = ((dense_a @ dense_b) > 0).astype(np.float32)
        assert np.array_equal(c_bit.to_dense(), expect)
        assert np.array_equal(c_csr.to_dense(), expect)

    def test_multi_hop_reachability_chain(self):
        """A³ in the bit domain: three-hop reachability of a path."""
        n = 16
        dense = np.zeros((n, n), dtype=np.float32)
        for i in range(n - 1):
            dense[i, i + 1] = 1.0
        g = Graph.from_dense(dense)
        desc = Descriptor(backend="bit", tile_dim=4)
        a2 = mxm_structural(g.csr, g.csr, desc=desc)
        a3 = mxm_structural(a2, g.csr, desc=desc)
        out = a3.to_dense()
        expect = np.zeros((n, n), dtype=np.float32)
        for i in range(n - 3):
            expect[i, i + 3] = 1.0
        assert np.array_equal(out, expect)

    def test_b2sr_input_retiled(self):
        rng = np.random.default_rng(2)
        dense = (rng.random((20, 20)) < 0.2).astype(np.float32)
        g = Graph.from_dense(dense)
        c = mxm_structural(
            g.b2sr(32), g.b2sr(32),
            desc=Descriptor(backend="bit", tile_dim=8),
        )
        expect = ((dense @ dense) > 0).astype(np.float32)
        assert np.array_equal(c.to_dense(), expect)

    def test_type_error(self):
        g = diagonal_pattern(16, seed=1)
        with pytest.raises(TypeError):
            mxm_structural("bad", g.csr)


class TestJsonReporter:
    def test_rows_roundtrip(self, tmp_path):
        import json

        from repro.bench import JsonReporter

        rep = JsonReporter()
        rep.emit("plans", {"tile_dim": 8}, "speedup", 2.5)
        rep.emit("plans", {"tile_dim": 32}, "speedup", 2.1)
        rep.emit("wallclock kernels", {"case": "spmv"}, "median_s", 1e-3)
        assert len(rep.rows()) == 3
        assert len(rep.rows("plans")) == 2
        written = rep.write_dir(tmp_path / "json")
        names = sorted(p.name for p in written)
        assert names == [
            "BENCH_plans.json", "BENCH_wallclock_kernels.json",
        ]
        rows = json.loads((tmp_path / "json" / "BENCH_plans.json")
                          .read_text())
        assert rows == [
            {"bench": "plans", "config": {"tile_dim": 8},
             "metric": "speedup", "value": 2.5},
            {"bench": "plans", "config": {"tile_dim": 32},
             "metric": "speedup", "value": 2.1},
        ]

    def test_empty_bench_name_rejected(self):
        from repro.bench import JsonReporter

        with pytest.raises(ValueError):
            JsonReporter().emit("", {}, "m", 1.0)

    def test_write_empty_reporter_writes_nothing(self, tmp_path):
        from repro.bench import JsonReporter

        assert JsonReporter().write_dir(tmp_path) == []


ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"


class TestCommittedResults:
    """The committed baselines: every ``BENCH_*.json`` holds the rows
    ``JsonReporter`` writes, and ``BENCH_e2e.json`` holds alternating
    parent/change pairs of ``perfbench/run.py`` end-to-end metrics."""

    def test_every_file_parses_to_rows(self):
        files = sorted(RESULTS.glob("BENCH_*.json"))
        assert RESULTS / "BENCH_e2e.json" in files
        for path in files:
            rows = json.loads(path.read_text())
            assert isinstance(rows, list) and rows, path.name
            for row in rows:
                assert set(row) == {"bench", "config", "metric", "value"}
                assert isinstance(row["bench"], str) and row["bench"]
                assert isinstance(row["config"], dict)
                assert isinstance(row["metric"], str) and row["metric"]
                assert isinstance(row["value"], (int, float)), path.name

    def test_e2e_rows_are_paired_benchmark_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        metrics = {m["name"] for m in spec["end_to_end"]}
        sides = defaultdict(set)
        for row in json.loads((RESULTS / "BENCH_e2e.json").read_text()):
            cfg = row["config"]
            assert row["bench"] == "e2e"
            assert set(cfg) == {
                "workload", "seed", "seconds", "side", "commit", "base",
                "pair", "nproc", "cpu_model", "python", "numpy",
            }
            assert cfg["workload"] in workloads
            assert row["metric"] in metrics
            assert cfg["side"] in ("parent", "change")
            key = (cfg["base"], cfg["workload"], cfg["seed"],
                   cfg["seconds"], cfg["pair"], row["metric"])
            assert cfg["side"] not in sides[key], key
            sides[key].add(cfg["side"])
        assert sides
        assert all(s == {"parent", "change"} for s in sides.values())


class TestDiagonalVsDotOrdering:
    def test_banded_beats_scattered_in_modeled_speedup(self):
        """The structural claim behind Figures 6/7: the same kernel at the
        same tile size gains more on banded matrices than on scattered
        ones of comparable nnz."""
        from repro.bench import bmv_speedup
        from repro.gpusim import GTX1080

        banded = diagonal_pattern(2048, bandwidth=3, seed=5)
        scattered = dot_pattern(
            2048, banded.nnz / 2048 ** 2, seed=5
        )
        sb = bmv_speedup(banded, "bin_bin_bin", 32, GTX1080).speedup
        ss = bmv_speedup(scattered, "bin_bin_bin", 32, GTX1080).speedup
        assert sb > ss
