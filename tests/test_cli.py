"""CLI tests (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, load_matrix, main
from repro.formats.convert import csr_from_dense
from repro.formats.mmio import write_matrix_market


class TestLoadMatrix:
    def test_named(self):
        g = load_matrix("name:ash292")
        assert g.name == "ash292"

    def test_generated(self):
        g = load_matrix("gen:diagonal:128:3")
        assert g.category == "diagonal"
        assert g.n == 128

    def test_generated_default_seed(self):
        a = load_matrix("gen:dot:64")
        b = load_matrix("gen:dot:64:0")
        assert np.array_equal(a.csr.indices, b.csr.indices)

    def test_mtx(self, tmp_path):
        dense = np.zeros((6, 6), dtype=np.float32)
        dense[0, 1] = dense[1, 2] = 1.0
        path = tmp_path / "g.mtx"
        write_matrix_market(path, csr_from_dense(dense))
        g = load_matrix(f"mtx:{path}")
        assert g.nnz == 2

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            load_matrix("weird:thing")

    def test_bad_category(self):
        with pytest.raises(ValueError):
            load_matrix("gen:spiral:64")

    def test_gen_missing_n(self):
        with pytest.raises(ValueError):
            load_matrix("gen:dot")


class TestCommands:
    def test_profile(self, capsys):
        assert main(["profile", "gen:diagonal:256:1"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "sampling profile" in out

    def test_stats(self, capsys):
        assert main(["stats", "gen:block:256:1"]) == 0
        out = capsys.readouterr().out
        assert "pattern class" in out
        assert "32x32" in out

    @pytest.mark.parametrize(
        "alg", ["bfs", "sssp", "pagerank", "cc", "tc", "mis",
                "coloring", "diameter"],
    )
    def test_run_all_algorithms(self, capsys, alg):
        assert main(["run", alg, "gen:road:196:1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Bit-GraphBLAS" in out

    def test_run_volta(self, capsys):
        assert main(
            ["run", "bfs", "gen:diagonal:128:2", "--device", "volta"]
        ) == 0
        assert "TitanV" in capsys.readouterr().out

    def test_run_tile_dim(self, capsys):
        assert main(
            ["run", "bfs", "gen:diagonal:128:2", "--tile-dim", "8"]
        ) == 0

    def test_multi_sssp(self, capsys):
        assert main(
            ["multi", "gen:hybrid:200:1", "--algorithm", "sssp",
             "--sources", "12"]
        ) == 0
        out = capsys.readouterr().out
        assert "multi-source sssp" in out
        assert "speedup" in out

    def test_multi_sssp_wider_than_word_plane(self, capsys):
        """Batch width past the 32-bit tile word: stripes across planes
        and must still agree with the k independent baseline runs (the
        command warns on stderr if any column disagrees)."""
        assert main(
            ["multi", "gen:hybrid:200:1", "--algorithm", "sssp",
             "--sources", "40"]
        ) == 0
        captured = capsys.readouterr()
        assert "batch k=40" in captured.out
        assert "disagree" not in captured.err

    def test_cluster(self, capsys):
        assert main(
            ["cluster", "gen:hybrid:200:1", "gen:road:200:1",
             "--servers", "2", "--requests", "12", "--rate", "3000"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded cluster serving (2 graphs" in out
        assert "verified bit-identical" in out
        assert "single" in out
        for placement in ("affinity", "least-loaded", "p2c"):
            assert placement in out

    def test_cluster_seed_reproducible(self, capsys):
        args = ["cluster", "gen:hybrid:200:1", "gen:road:200:1",
                "--servers", "2", "--requests", "10", "--rate", "3000",
                "--placement", "p2c", "--no-verify"]
        assert main(args + ["--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert main(args + ["--seed", "4"]) == 0
        third = capsys.readouterr().out
        assert first == second
        assert first != third

    @pytest.mark.parametrize("policy", ["slo", "flush", "fcfs"])
    def test_cluster_single_server_still_reports(self, capsys, policy):
        """--servers 1 must produce the single-server row, not an
        empty table, under every admission policy."""
        assert main(
            ["cluster", "gen:hybrid:200:1", "gen:road:200:1",
             "--servers", "1", "--requests", "8", "--rate", "2000",
             "--policy", policy, "--no-verify"]
        ) == 0
        out = capsys.readouterr().out
        assert f"policy {policy})" in out
        assert "single" in out
        assert "100.0%" in out or "%" in out.split("single", 1)[1]

    def test_cluster_duplicate_graph_names_disambiguated(self, capsys):
        assert main(
            ["cluster", "gen:hybrid:200:1", "gen:hybrid:200:1",
             "--requests", "8", "--rate", "2000", "--no-verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "#2" in out

    def test_cluster_rejects_bad_args(self, capsys):
        assert main(
            ["cluster", "gen:hybrid:64:1", "--requests", "0"]
        ) == 2
        assert main(
            ["cluster", "gen:hybrid:64:1", "--servers", "0"]
        ) == 2
        assert main(
            ["cluster", "gen:hybrid:64:1", "--rate", "0"]
        ) == 2
        for spec in (["--fail", "1@nan"], ["--speed", "1=inf"]):
            assert main(["cluster", "gen:hybrid:64:1", *spec]) == 2

    def test_ingest_live(self, capsys):
        assert main(
            ["ingest", "gen:hybrid:300:1", "--requests", "16",
             "--rate", "3000", "--batches", "2", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "live ingest across 2 epoch swaps" in out
        assert "0 mixed-version batches" in out
        assert "verified on its admitted epoch" in out

    def test_ingest_offline(self, capsys):
        assert main(
            ["ingest", "gen:road:300:1", "--offline", "--batches", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "offline ingest: 3 applied, 0 retried, 0 failed" in out
        assert "rebuilt" in out

    def test_ingest_rejects_bad_args(self, capsys):
        assert main(["ingest", "gen:hybrid:64:1", "--requests", "0"]) == 2
        assert main(["ingest", "gen:hybrid:64:1", "--batches", "0"]) == 2
        assert main(
            ["ingest", "gen:hybrid:64:1", "--insert-fraction", "2"]
        ) == 2

    def test_matrices_listing(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "mycielskian9" in out
        assert "minnesota" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "521 matrices" in out
        assert "diagonal" in out

    def test_parser_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dijkstra", "name:uk"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
