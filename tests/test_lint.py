"""Tests for the invariant linter (repro.lint): each rule against
minimal fixtures, the suppression grammar (including malformed
directives), the JSON report schema, the CLI subcommand, and the
self-clean gate over the repo's own ``src/`` tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    MALFORMED_RULE_ID,
    LintPathError,
    apply_baseline,
    iter_python_files,
    lint_paths,
    lint_project_sources,
    lint_source,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    rule_ids,
)
from repro.lint.rules import ALL_RULES, get_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def active(violations):
    return [v for v in violations if not v.suppressed]


def ids(violations):
    return [v.rule for v in active(violations)]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_at_least_six_rules(self):
        assert len(ALL_RULES) >= 6

    def test_ids_unique_and_kebab(self):
        seen = rule_ids()
        assert len(seen) == len(set(seen))
        for rid in seen:
            assert rid == rid.lower() and " " not in rid

    def test_get_rules_select(self):
        (rule,) = get_rules("numeric-cliff")
        assert rule.id == "numeric-cliff"
        two = get_rules("numeric-cliff, seeded-rng")
        assert [r.id for r in two] == ["numeric-cliff", "seeded-rng"]

    def test_get_rules_unknown_raises(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            get_rules("no-such-rule")


# ----------------------------------------------------------------------
# numeric-cliff
# ----------------------------------------------------------------------
class TestNumericCliff:
    PATH = "src/repro/algorithms/fake.py"

    def test_flags_astype_float32(self):
        src = "import numpy as np\nx = ids.astype(np.float32)\n"
        assert ids(lint_source(src, self.PATH)) == ["numeric-cliff"]

    def test_flags_dtype_kwarg(self):
        src = "import numpy as np\nx = np.zeros(4, dtype=np.float32)\n"
        assert ids(lint_source(src, self.PATH)) == ["numeric-cliff"]

    def test_tracks_import_alias(self):
        src = "from numpy import float32 as f32\nx = a.astype(f32)\n"
        assert ids(lint_source(src, self.PATH)) == ["numeric-cliff"]

    def test_tracks_assigned_alias(self):
        src = (
            "import numpy as np\nDTYPE = np.float32\n"
            "x = np.zeros(4, dtype=DTYPE)\n"
        )
        assert ids(lint_source(src, self.PATH)) == ["numeric-cliff"]

    def test_float64_clean(self):
        src = "import numpy as np\nx = ids.astype(np.float64)\n"
        assert ids(lint_source(src, self.PATH)) == []

    def test_out_of_scope_path_clean(self):
        src = "import numpy as np\nx = ids.astype(np.float32)\n"
        assert ids(lint_source(src, "src/repro/formats/fake.py")) == []

    def test_tests_exempt(self):
        src = "import numpy as np\nx = ids.astype(np.float32)\n"
        assert ids(lint_source(src, "tests/test_fake.py")) == []


# ----------------------------------------------------------------------
# b2sr-immutability
# ----------------------------------------------------------------------
class TestB2SRImmutability:
    PATH = "src/repro/engines/fake.py"

    def test_flags_setflags_write(self):
        src = "m.tiles.setflags(write=True)\n"
        assert ids(lint_source(src, self.PATH)) == ["b2sr-immutability"]

    def test_flags_item_assignment(self):
        src = "m.tiles[3] = 0\n"
        assert ids(lint_source(src, self.PATH)) == ["b2sr-immutability"]

    def test_flags_augmented_assignment(self):
        src = "m.indices[i] |= 1\n"
        assert ids(lint_source(src, self.PATH)) == ["b2sr-immutability"]

    def test_flags_ufunc_at(self):
        src = "import numpy as np\nnp.add.at(m.tiles, idx, 1)\n"
        assert ids(lint_source(src, self.PATH)) == ["b2sr-immutability"]

    def test_guarded_field_as_index_is_a_read(self):
        # `out[m.indices] = v` writes *out*, not the frozen field.
        src = "out[m.indices] = v\n"
        assert ids(lint_source(src, self.PATH)) == []

    def test_owner_modules_exempt(self):
        src = "m.tiles[3] = 0\n"
        assert ids(lint_source(src, "src/repro/formats/b2sr.py")) == []
        assert ids(lint_source(src, "src/repro/kernels/plan.py")) == []


# ----------------------------------------------------------------------
# b2sr-from-tiles
# ----------------------------------------------------------------------
class TestB2SRFromTiles:
    PATH = "src/repro/kernels/fake.py"

    def test_flags_raw_construction(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix\n"
            "m = B2SRMatrix(8, 8, 8, indptr, cols, tiles)\n"
        )
        assert ids(lint_source(src, self.PATH)) == ["b2sr-from-tiles"]

    def test_flags_aliased_construction(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix as BM\n"
            "m = BM(8, 8, 8, indptr, cols, tiles)\n"
        )
        assert ids(lint_source(src, self.PATH)) == ["b2sr-from-tiles"]

    def test_flags_dotted_construction(self):
        src = (
            "from repro.formats import b2sr\n"
            "m = b2sr.B2SRMatrix(8, 8, 8, indptr, cols, tiles)\n"
        )
        assert ids(lint_source(src, self.PATH)) == ["b2sr-from-tiles"]

    def test_from_tiles_and_empty_are_sanctioned(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix\n"
            "a = B2SRMatrix.from_tiles(8, 8, 8, tr, tc, tiles)\n"
            "b = B2SRMatrix.from_tiles(8, 8, 8, tr, tc, w, packed=True)\n"
            "c = B2SRMatrix.empty(8, 8, 8)\n"
        )
        assert ids(lint_source(src, self.PATH)) == []

    def test_annotations_and_isinstance_not_flagged(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix\n"
            "def f(m: B2SRMatrix) -> B2SRMatrix:\n"
            "    return m if isinstance(m, B2SRMatrix) else m\n"
        )
        assert ids(lint_source(src, self.PATH)) == []

    def test_formats_modules_exempt(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix\n"
            "m = B2SRMatrix(8, 8, 8, indptr, cols, tiles)\n"
        )
        assert ids(lint_source(src, "src/repro/formats/delta.py")) == []
        assert ids(lint_source(src, "src/repro/formats/convert.py")) == []

    def test_tests_exempt(self):
        src = (
            "from repro.formats.b2sr import B2SRMatrix\n"
            "m = B2SRMatrix(8, 8, 8, indptr, cols, tiles)\n"
        )
        assert ids(lint_source(src, "tests/test_fake.py")) == []


# ----------------------------------------------------------------------
# seeded-rng
# ----------------------------------------------------------------------
class TestSeededRng:
    PATH = "src/repro/serving/fake.py"

    def test_flags_global_state_call(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert ids(lint_source(src, self.PATH)) == ["seeded-rng"]

    def test_flags_argless_default_rng(self):
        src = "import numpy as np\nr = np.random.default_rng()\n"
        assert ids(lint_source(src, self.PATH)) == ["seeded-rng"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nr = np.random.default_rng(7)\n"
        assert ids(lint_source(src, self.PATH)) == []

    def test_seed_sequence_clean(self):
        src = "import numpy as np\ns = np.random.SeedSequence(0)\n"
        assert ids(lint_source(src, self.PATH)) == []

    def test_tests_exempt(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert ids(lint_source(src, "tests/test_fake.py")) == []


# ----------------------------------------------------------------------
# paper-faithful-skip
# ----------------------------------------------------------------------
class TestPaperFaithfulSkip:
    def test_harness_engine_without_kwarg_flagged(self):
        src = "e = BitEngine(g, tile_dim=32)\n"
        path = "src/repro/bench/harness.py"
        assert ids(lint_source(src, path)) == ["paper-faithful-skip"]

    def test_harness_explicit_false_clean(self):
        src = "e = BitEngine(g, skip_inactive=False)\n"
        path = "src/repro/bench/harness.py"
        assert ids(lint_source(src, path)) == []

    def test_harness_true_flagged(self):
        src = "e = BitEngine(g, skip_inactive=True)\n"
        path = "src/repro/bench/harness.py"
        assert ids(lint_source(src, path)) == ["paper-faithful-skip"]

    def test_cli_repro_surface_flagged(self):
        src = "def cmd_run(args):\n    e = BitEngine(g)\n"
        assert ids(lint_source(src, "src/repro/cli.py")) == [
            "paper-faithful-skip"
        ]

    def test_cli_other_function_clean(self):
        src = "def cmd_profile(args):\n    e = BitEngine(g)\n"
        assert ids(lint_source(src, "src/repro/cli.py")) == []


# ----------------------------------------------------------------------
# verify-contract
# ----------------------------------------------------------------------
class TestVerifyContract:
    PATH = "src/repro/serving/fake_bench.py"

    def test_flush_without_verify_flagged(self):
        src = "batcher.flush(now)\n"
        assert ids(lint_source(src, self.PATH)) == ["verify-contract"]

    def test_run_without_verify_flagged(self):
        src = "out, rep = scheduler.run(stream, policy='slo')\n"
        assert ids(lint_source(src, self.PATH)) == ["verify-contract"]

    def test_explicit_verify_clean(self):
        src = (
            "batcher.flush(now, verify=True)\n"
            "scheduler.run(stream, verify=False)\n"
            "self.router.run(stream, verify=flag)\n"
        )
        assert ids(lint_source(src, self.PATH)) == []

    def test_unrelated_receiver_clean(self):
        src = "loop.run(stream)\n"
        assert ids(lint_source(src, self.PATH)) == []


# ----------------------------------------------------------------------
# hot-path-scatter
# ----------------------------------------------------------------------
class TestHotPathScatter:
    PATH = "src/repro/kernels/fake.py"

    def test_flags_ufunc_at(self):
        src = "import numpy as np\nnp.add.at(y, rows, vals)\n"
        assert ids(lint_source(src, self.PATH)) == ["hot-path-scatter"]

    def test_flags_per_tile_loop(self):
        src = "for tile in range(A.n_tiles):\n    pass\n"
        assert ids(lint_source(src, self.PATH)) == ["hot-path-scatter"]

    def test_flags_per_tile_comprehension(self):
        src = "xs = [f(t) for t in range(A.n_tiles)]\n"
        assert ids(lint_source(src, self.PATH)) == ["hot-path-scatter"]

    def test_chunk_loop_clean(self):
        src = "for lo, hi in plan.chunks(step):\n    pass\n"
        assert ids(lint_source(src, self.PATH)) == []

    def test_planless_exempt(self):
        src = "import numpy as np\nnp.add.at(y, rows, vals)\n"
        path = "src/repro/kernels/planless.py"
        assert ids(lint_source(src, path)) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    PATH = "src/repro/algorithms/fake.py"
    BAD = "import numpy as np\nx = ids.astype(np.float32)"

    def test_trailing_suppression(self):
        src = (
            "import numpy as np\n"
            "x = v.astype(np.float32)"
            "  # repro-lint: ignore[numeric-cliff] — value payload\n"
        )
        out = lint_source(src, self.PATH)
        assert ids(out) == []
        (v,) = out
        assert v.suppressed and v.reason == "value payload"

    def test_standalone_suppression_covers_next_line(self):
        src = (
            "import numpy as np\n"
            "# repro-lint: ignore[numeric-cliff] — value payload\n"
            "x = v.astype(np.float32)\n"
        )
        assert ids(lint_source(src, self.PATH)) == []

    def test_ascii_separators_accepted(self):
        for sep in ("--", "-", ":"):
            src = (
                "import numpy as np\n"
                "x = v.astype(np.float32)"
                f"  # repro-lint: ignore[numeric-cliff] {sep} payload\n"
            )
            assert ids(lint_source(src, self.PATH)) == [], sep

    def test_suppression_is_rule_specific(self):
        # A numeric-cliff pardon does not silence other rules.
        src = (
            "import numpy as np\n"
            "np.random.rand(3)"
            "  # repro-lint: ignore[numeric-cliff] — wrong rule\n"
        )
        assert ids(lint_source(src, "src/repro/serving/f.py")) == [
            "seeded-rng"
        ]

    def test_missing_reason_is_malformed(self):
        src = (
            self.BAD + "  # repro-lint: ignore[numeric-cliff]\n"
        )
        out = lint_source(src, self.PATH)
        assert sorted(ids(out)) == [MALFORMED_RULE_ID, "numeric-cliff"]

    def test_unknown_rule_id_is_malformed(self):
        src = (
            self.BAD
            + "  # repro-lint: ignore[not-a-rule] — whatever\n"
        )
        out = lint_source(src, self.PATH)
        assert MALFORMED_RULE_ID in ids(out)
        assert "numeric-cliff" in ids(out)  # not silenced

    def test_garbled_directive_is_malformed(self):
        src = "x = 1  # repro-lint: please ignore this\n"
        assert ids(lint_source(src, self.PATH)) == [MALFORMED_RULE_ID]

    def test_empty_id_list_is_malformed(self):
        src = "x = 1  # repro-lint: ignore[] — nothing\n"
        assert ids(lint_source(src, self.PATH)) == [MALFORMED_RULE_ID]

    def test_multi_rule_directive(self):
        src = (
            "import numpy as np\n"
            "# repro-lint: ignore[numeric-cliff, seeded-rng] — fixture\n"
            "x = np.random.rand(3).astype(np.float32)\n"
        )
        assert ids(lint_source(src, "src/repro/engines/f.py")) == []

    def test_rule_subset_runners_agree(self):
        # A directive naming a rule outside the selection is still
        # well-formed, and the one-module and project runners share one
        # path, so they agree finding for finding.
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()"
            "  # repro-lint: ignore[seeded-rng] — fixture draws\n"
            "x = ids.astype(np.float32)\n"
        )
        rules = get_rules("numeric-cliff")
        single = lint_source(src, self.PATH, rules=rules)
        assert ids(single) == ["numeric-cliff"]
        assert single == lint_project_sources({self.PATH: src}, rules=rules)

    def test_multiline_statement_continuation_line(self):
        # A trailing directive on the continuation line that carries
        # the flagged expression matches (spans are node-based).
        src = (
            "import numpy as np\n"
            "x = np.zeros(\n"
            "    4, dtype=np.float32"
            "  # repro-lint: ignore[numeric-cliff] — v\n"
            ")\n"
        )
        assert ids(lint_source(src, self.PATH)) == []


# ----------------------------------------------------------------------
# Parse errors
# ----------------------------------------------------------------------
class TestParseError:
    def test_syntax_error_reported_not_raised(self):
        out = lint_source("def broken(:\n", "src/repro/fake.py")
        assert [v.rule for v in out] == ["parse-error"]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    SRC = (
        "import numpy as np\n"
        "a = v.astype(np.float32)\n"
        "b = w.astype(np.float32)"
        "  # repro-lint: ignore[numeric-cliff] — value payload\n"
    )

    def _violations(self):
        return lint_source(self.SRC, "src/repro/algorithms/fake.py")

    def test_text_report(self):
        text = render_text(self._violations(), files_scanned=1)
        assert "fake.py:2" in text
        assert "numeric-cliff" in text
        assert "1 violation(s), 1 suppressed across 1 files" in text

    def test_text_show_suppressed(self):
        text = render_text(self._violations(), show_suppressed=True)
        # The suppressed finding (line 3) renders under the allowlist
        # header; without the flag it is omitted entirely.
        assert text.index("sanctioned exceptions") < text.index("fake.py:3")
        assert "fake.py:3" not in render_text(self._violations())

    def test_json_schema(self):
        payload = json.loads(render_json(self._violations(), files_scanned=1))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {
            "violations": 1,
            "suppressed": 1,
            "by_rule": {"numeric-cliff": 1},
        }
        assert len(payload["violations"]) == 2
        for row in payload["violations"]:
            assert set(row) == {
                "path", "line", "col", "rule", "message", "hint",
                "suppressed", "reason",
            }
        suppressed = [r for r in payload["violations"] if r["suppressed"]]
        assert suppressed[0]["reason"] == "value payload"

    def test_json_clean_tree(self):
        payload = json.loads(render_json([], files_scanned=3))
        assert payload["counts"]["violations"] == 0
        assert payload["violations"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )

    def test_violating_file_exits_nonzero(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "algorithms" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = v.astype(np.float32)\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "bad.py:2" in proc.stdout
        assert "numeric-cliff" in proc.stdout

    def test_json_format(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "kernels" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nnp.add.at(y, r, v)\n")
        proc = self._run(str(bad), "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["counts"]["by_rule"] == {"hot-path-scatter": 1}

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rid in rule_ids():
            assert rid in proc.stdout

    def test_unknown_rule_select_exits_2(self):
        proc = self._run("--select", "bogus-rule", "src")
        assert proc.returncode == 2


# ----------------------------------------------------------------------
# Self-clean gate: the repo's own source must lint clean.
# ----------------------------------------------------------------------
class TestSelfClean:
    def test_src_tree_is_clean(self):
        violations, scanned = lint_paths([SRC])
        assert scanned > 50
        offenders = active(violations)
        assert offenders == [], "\n".join(v.format() for v in offenders)

    def test_every_suppression_has_a_reason(self):
        violations, _ = lint_paths([SRC])
        for v in violations:
            if v.suppressed:
                assert v.reason.strip(), v.format()

    def test_full_tree_is_clean(self):
        # The CI invocation: src, tests and benchmarks all lint clean
        # under every rule, cross-module ones included.
        violations, scanned = lint_paths(
            [SRC, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
        )
        assert scanned > 100
        offenders = active(violations)
        assert offenders == [], "\n".join(v.format() for v in offenders)


# ----------------------------------------------------------------------
# Missing lint targets are a hard error (satellite bugfix)
# ----------------------------------------------------------------------
class TestMissingPath:
    def test_iter_python_files_raises(self, tmp_path):
        with pytest.raises(LintPathError, match="no-such-dir"):
            list(iter_python_files([tmp_path / "no-such-dir"]))

    def test_lint_paths_raises(self, tmp_path):
        with pytest.raises(LintPathError):
            lint_paths([tmp_path / "gone.py"])

    def test_cli_missing_path_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             "definitely/not/here"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "definitely/not/here" in proc.stderr
        assert proc.stdout == ""

    def test_existing_paths_still_work_alongside(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("x = 1\n")
        violations, scanned = lint_paths([good])
        assert scanned == 1
        assert active(violations) == []


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------
class TestSarif:
    SRC_BAD = "import numpy as np\nx = v.astype(np.float32)\n"

    def _violations(self):
        return lint_source(
            self.SRC_BAD, "src/repro/algorithms/fake.py"
        )

    def test_sarif_shape(self):
        payload = json.loads(
            render_sarif(self._violations(), ALL_RULES)
        )
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "numeric-cliff"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == (
            "src/repro/algorithms/fake.py"
        )
        assert loc["region"]["startLine"] == 2
        assert "suppressions" not in result

    def test_rule_metadata_included(self):
        payload = json.loads(
            render_sarif(self._violations(), ALL_RULES)
        )
        driver_rules = payload["runs"][0]["tool"]["driver"]["rules"]
        by_id = {r["id"]: r for r in driver_rules}
        assert "numeric-cliff" in by_id
        assert by_id["numeric-cliff"]["shortDescription"]["text"]

    def test_suppressed_findings_carry_justification(self):
        src = (
            "import numpy as np\n"
            "x = v.astype(np.float32)"
            "  # repro-lint: ignore[numeric-cliff] — bounded payload\n"
        )
        violations = lint_source(src, "src/repro/algorithms/fake.py")
        payload = json.loads(render_sarif(violations, ALL_RULES))
        (result,) = payload["runs"][0]["results"]
        (sup,) = result["suppressions"]
        assert sup["kind"] == "inSource"
        assert sup["justification"] == "bounded payload"

    def test_cli_sarif_format(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "algorithms" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.SRC_BAD)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad),
             "--format", "sarif"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["runs"][0]["results"][0]["ruleId"] == (
            "numeric-cliff"
        )


# ----------------------------------------------------------------------
# Baseline diff mode
# ----------------------------------------------------------------------
class TestBaseline:
    OLD = "import numpy as np\nx = v.astype(np.float32)\n"
    NEW = (
        "import numpy as np\n"
        "x = v.astype(np.float32)\n"
        "y = w.astype(np.float32)\n"
    )

    def test_baselined_findings_are_dropped(self):
        old = lint_source(self.OLD, "src/repro/algorithms/fake.py")
        baseline = load_baseline(render_json(old, files_scanned=1))
        new = lint_source(self.OLD, "src/repro/algorithms/fake.py")
        remaining, matched = apply_baseline(new, baseline)
        assert matched == 1
        assert active(remaining) == []

    def test_new_findings_survive(self):
        old = lint_source(self.OLD, "src/repro/algorithms/fake.py")
        baseline = load_baseline(render_json(old, files_scanned=1))
        new = lint_source(self.NEW, "src/repro/algorithms/fake.py")
        remaining, matched = apply_baseline(new, baseline)
        assert matched == 1
        assert len(active(remaining)) == 1
        assert active(remaining)[0].line == 3

    def test_cli_baseline_round_trip(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "algorithms" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.OLD)
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
        first = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad),
             "--format", "json"],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        assert first.returncode == 1
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(first.stdout)
        second = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad),
             "--baseline", str(baseline_file)],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        assert second.returncode == 0, second.stdout
        assert "0 violation(s)" in second.stdout

    def test_cli_unreadable_baseline_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src",
             "--baseline", str(tmp_path / "missing.json")],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "missing.json" in proc.stderr


# ----------------------------------------------------------------------
# --stats
# ----------------------------------------------------------------------
class TestCliStats:
    def test_stats_row_on_stdout(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(clean), "--stats"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(row) == {
            "bench", "files", "project_modules", "fixpoint_passes",
            "rule_ms", "total_ms",
        }
        assert row["bench"] == "lint"
        assert row["files"] == 1
