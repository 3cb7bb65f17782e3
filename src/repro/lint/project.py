"""Project-level analysis: call graph, effect fixpoint, and runners.

The per-file rules in :mod:`repro.lint.rules` see one module at a time;
the contracts PR 6 left open (EventLoop hook ordering, estimator
snapshot/restore hygiene, the wall-clock ban in the modeled-millisecond
domain) are *properties of call paths*, not of single files.  This
module closes that gap:

* :class:`ProjectIndex` — parse-once summaries of every module
  (:mod:`repro.lint.summary`) stitched into a call graph.  Edges come
  from statically-resolvable spellings only (imports, module-local
  names, ``self.m()``, known-constructor receivers); everything dynamic
  resolves to *no* edge, so path-based rules under-approximate rather
  than guess.
* an **effect-inference fixpoint** — every function's transitive
  effect set (wall clock, unseeded RNG, B2SR mutation, dispatch) with
  provenance, so a violation message can print the offending call
  chain across files.
* :class:`ProjectRule` — the registry face of a cross-module rule:
  same ``id``/``description``/``hint`` surface as per-file rules, but
  checked per *module* against the full index.
* the one lint path — :func:`analyze_file` parses a file and runs the
  per-file rules, then :func:`_finish` builds the index, runs the
  project rules and folds suppressions over both families.  Every
  runner goes through it: :func:`lint_source` (one in-memory module,
  file rules only), :func:`lint_project_sources` (in-memory fixtures),
  and :func:`lint_project` / :func:`lint_paths` (files on disk).
"""

from __future__ import annotations

import ast
import time
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.core import (
    PARSE_ERROR_RULE_ID,
    LintContext,
    Rule,
    RuleVisitor,
    Violation,
    apply_suppressions,
    iter_python_files,
    normalize_path,
    read_lint_target,
)
from repro.lint.suppress import (
    MALFORMED_RULE_ID,
    Suppression,
    scan_suppressions,
)
from repro.lint.summary import (
    ClassSummary,
    FunctionSummary,
    GlobalBinding,
    ModuleSummary,
    summarize_module,
)

#: Safety valve on fixpoint iterations — effects are monotone over a
#: finite lattice so the worklist always converges, but a bound turns a
#: future non-monotonicity bug into a loud flag instead of a hang.
MAX_FIXPOINT_PASSES_PER_FUNCTION = 64


# ----------------------------------------------------------------------
# Project rules
# ----------------------------------------------------------------------
class ProjectRule(Rule):
    """A rule over the whole-project index instead of one file's AST.

    Subclasses implement :meth:`check_module`, returning the violations
    *reported in* ``module`` (their facts may span the whole index), so
    they fold through that module's suppression table.
    """

    scope = "project"

    def check_module(
        self, project: "ProjectIndex", module: ModuleSummary
    ) -> list[Violation]:
        raise NotImplementedError

    def visitor(self, ctx: LintContext) -> RuleVisitor:  # pragma: no cover
        raise TypeError(f"{self.id} is a project-scope rule")


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
class ProjectIndex:
    """Call graph + transitive effects over a set of module summaries."""

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for m in modules:
            self.modules[m.module] = m
        self.functions: dict[str, FunctionSummary] = {}
        self.function_module: dict[str, str] = {}
        self.class_index: dict[str, tuple[ModuleSummary, ClassSummary]] = {}
        for m in self.modules.values():
            for qual, fn in m.functions.items():
                self.functions[qual] = fn
                self.function_module[qual] = m.module
            for cname, cls in m.classes.items():
                self.class_index[f"{m.module}.{cname}"] = (m, cls)
        #: qualname → [(callee qualname, call line)]
        self.edges: dict[str, list[tuple[str, int]]] = {}
        #: qualname → transitive effect set
        self.effects: dict[str, set[str]] = {}
        #: provenance: qualname → effect → (callee qualname, call line)
        self.effect_via: dict[str, dict[str, tuple[str, int]]] = {}
        #: functions forward-reachable from serving ``dispatch`` hooks,
        #: with the edge they were first reached through.
        self.dispatch_reachable: dict[str, tuple[str | None, int]] = {}
        #: Functions reachable from a worker-process entry point
        #: (``worker_main`` in non-test serving code), with the edge
        #: they were first reached through.
        self.worker_reachable: dict[str, tuple[str | None, int]] = {}
        self.fixpoint_passes = 0
        self.fixpoint_bounded = False
        self._build_edges()
        self._run_fixpoint()
        self._compute_dispatch_reach()
        self._compute_worker_reach()

    # -- resolution ----------------------------------------------------
    def resolve_method(
        self, class_key: str, method: str, _seen: frozenset[str] | None = None
    ) -> str | None:
        """Qualname of ``method`` on ``class_key`` (walking static base
        candidates), or ``None``."""
        if _seen is None:
            _seen = frozenset()
        if class_key in _seen or class_key not in self.class_index:
            return None
        mod, cls = self.class_index[class_key]
        if method in cls.methods:
            return f"{class_key}.{method}"
        seen = _seen | {class_key}
        for base in cls.bases:
            found = self.resolve_method(base, method, seen)
            if found is not None:
                return found
        return None

    def _resolve_call(
        self, site_kind: str, target: str, caller: FunctionSummary
    ) -> str | None:
        if site_kind == "dot":
            if target in self.functions:
                return target
            if target in self.class_index:
                return self.resolve_method(target, "__init__")
            head, _, last = target.rpartition(".")
            if head and head in self.class_index:
                return self.resolve_method(head, last)
            return None
        if site_kind == "self":
            if caller.cls is None:
                return None
            module = self.function_module.get(caller.qualname, "")
            return self.resolve_method(f"{module}.{caller.cls}", target)
        if site_kind == "onattr":
            class_key, _, method = target.partition("::")
            return self.resolve_method(class_key, method)
        return None

    def find_global(self, dotted: str) -> tuple[str, GlobalBinding] | None:
        """``(module, binding)`` for a dotted module-global, if indexed."""
        head, _, name = dotted.rpartition(".")
        if head in self.modules:
            binding = self.modules[head].mutable_globals.get(name)
            if binding is not None:
                return head, binding
        return None

    def path_of(self, qualname: str) -> str:
        return self.modules[self.function_module[qualname]].path

    # -- graph build ---------------------------------------------------
    def _build_edges(self) -> None:
        for fn in self.functions.values():
            out: list[tuple[str, int]] = []
            for site in fn.calls:
                callee = self._resolve_call(site.kind, site.target, fn)
                if callee is not None and callee != fn.qualname:
                    out.append((callee, site.line))
            self.edges[fn.qualname] = out

    def _run_fixpoint(self) -> None:
        callers: dict[str, list[tuple[str, int]]] = {
            q: [] for q in self.functions
        }
        for caller, outs in self.edges.items():
            for callee, line in outs:
                callers[callee].append((caller, line))
        for qual, fn in self.functions.items():
            self.effects[qual] = set(fn.direct_effects)
            self.effect_via[qual] = {}
        work = deque(self.functions)
        queued = set(work)
        bound = MAX_FIXPOINT_PASSES_PER_FUNCTION * max(
            1, len(self.functions)
        )
        while work:
            self.fixpoint_passes += 1
            if self.fixpoint_passes > bound:  # pragma: no cover - valve
                self.fixpoint_bounded = True
                break
            qual = work.popleft()
            queued.discard(qual)
            mine = self.effects[qual]
            grew = False
            for callee, line in self.edges[qual]:
                for effect in self.effects[callee] - mine:
                    mine.add(effect)
                    self.effect_via[qual].setdefault(
                        effect, (callee, line)
                    )
                    grew = True
            if grew:
                for caller, _line in callers[qual]:
                    if caller not in queued:
                        queued.add(caller)
                        work.append(caller)

    def _compute_dispatch_reach(self) -> None:
        roots = [
            qual
            for qual, fn in self.functions.items()
            if fn.name == "dispatch"
            and "serving/" in self.path_of(qual)
            and not Rule.in_tests(self.path_of(qual))
        ]
        work = deque()
        for root in sorted(roots):
            if root not in self.dispatch_reachable:
                self.dispatch_reachable[root] = (None, 0)
                work.append(root)
        while work:
            qual = work.popleft()
            for callee, line in self.edges[qual]:
                if callee not in self.dispatch_reachable:
                    self.dispatch_reachable[callee] = (qual, line)
                    work.append(callee)

    def _compute_worker_reach(self) -> None:
        roots = [
            qual
            for qual, fn in self.functions.items()
            if fn.name == "worker_main"
            and "serving/" in self.path_of(qual)
            and not Rule.in_tests(self.path_of(qual))
        ]
        work = deque()
        for root in sorted(roots):
            if root not in self.worker_reachable:
                self.worker_reachable[root] = (None, 0)
                work.append(root)
        while work:
            qual = work.popleft()
            for callee, line in self.edges[qual]:
                if callee not in self.worker_reachable:
                    self.worker_reachable[callee] = (qual, line)
                    work.append(callee)

    # -- provenance rendering ------------------------------------------
    def effect_chain(
        self, qualname: str, effect: str, limit: int = 12
    ) -> list[str]:
        """Human-readable hop list from ``qualname`` to the effect's
        direct witness, each hop as ``"callee (path:line)"``."""
        hops: list[str] = []
        seen: set[str] = set()
        current = qualname
        while len(hops) < limit and current not in seen:
            seen.add(current)
            fn = self.functions[current]
            direct = fn.direct_effects.get(effect)
            if direct is not None:
                hops.append(
                    f"{direct.detail} ({self.path_of(current)}:{direct.line})"
                )
                return hops
            via = self.effect_via.get(current, {}).get(effect)
            if via is None:
                break
            callee, line = via
            hops.append(
                f"{self._short(callee)} ({self.path_of(current)}:{line})"
            )
            current = callee
        return hops

    def dispatch_path(self, qualname: str, limit: int = 12) -> list[str]:
        """Hop list from the dispatch root down to ``qualname``."""
        hops: list[str] = []
        current: str | None = qualname
        while current is not None and len(hops) < limit:
            parent, _line = self.dispatch_reachable.get(
                current, (None, 0)
            )
            hops.append(self._short(current))
            current = parent
        return list(reversed(hops))

    def worker_path(self, qualname: str, limit: int = 12) -> list[str]:
        """Hop list from the worker entry point down to ``qualname``."""
        hops: list[str] = []
        current: str | None = qualname
        while current is not None and len(hops) < limit:
            parent, _line = self.worker_reachable.get(
                current, (None, 0)
            )
            hops.append(self._short(current))
            current = parent
        return list(reversed(hops))

    @staticmethod
    def _short(qualname: str) -> str:
        parts = qualname.split(".")
        return ".".join(parts[-2:]) if len(parts) > 1 else qualname

    def decorator_map_for(self, module: ModuleSummary) -> dict[int, tuple[int, ...]]:
        return {
            fn.line: fn.decorator_lines
            for fn in module.functions.values()
            if fn.decorator_lines
        }


# ----------------------------------------------------------------------
# Per-file analysis products
# ----------------------------------------------------------------------
@dataclass
class FileRecord:
    """Everything one parse of one file yields."""

    norm_path: str
    summary: ModuleSummary
    raw_violations: list[Violation]
    suppressions: dict[int, list[Suppression]]
    malformed: list[tuple[int, int, str]]


def _known_rule_ids() -> frozenset[str]:
    """Every registered rule id — the vocabulary suppressions may name.

    Deliberately the *full* registry, not the ``--select`` subset: a
    suppression for a deselected rule is still well-formed.
    """
    from repro.lint.rules import ALL_RULES

    return frozenset(r.id for r in ALL_RULES)


def _file_rules(rules: Sequence[Rule]) -> list[Rule]:
    return [r for r in rules if r.scope == "file"]


def _project_rules(rules: Sequence[Rule]) -> list[ProjectRule]:
    return [r for r in rules if isinstance(r, ProjectRule)]


def analyze_file(
    source: str,
    path: str | Path,
    file_rules: Sequence[Rule],
    rule_ms: dict[str, float] | None = None,
) -> FileRecord:
    """Parse one file and run every per-file rule over it.

    The returned record carries *raw* (pre-suppression) violations —
    suppression folding happens once, after project rules contribute
    their findings, so both families share one suppression path.
    """
    norm = normalize_path(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return FileRecord(
            norm_path=norm,
            summary=ModuleSummary(
                module=f"<unparsed:{norm}>", path=norm
            ),
            raw_violations=[
                Violation(
                    path=norm,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR_RULE_ID,
                    message=f"could not parse: {exc.msg}",
                )
            ],
            suppressions={},
            malformed=[],
        )
    ctx = LintContext(norm, tree, source)
    for rule in file_rules:
        if rule.scope != "file" or not rule.applies_to(ctx.path):
            continue
        t0 = time.perf_counter()
        rule.visitor(ctx).visit(tree)
        if rule_ms is not None:
            rule_ms[rule.id] = rule_ms.get(rule.id, 0.0) + (
                time.perf_counter() - t0
            )
    summary = summarize_module(norm, tree)
    suppressions, malformed = scan_suppressions(source, _known_rule_ids())
    return FileRecord(
        norm_path=norm,
        summary=summary,
        raw_violations=ctx.violations,
        suppressions=suppressions,
        malformed=malformed,
    )


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class LintStats:
    """One run's cost accounting (the ``--stats`` JSON row)."""

    files: int = 0
    project_modules: int = 0
    rule_ms: dict[str, float] = field(default_factory=dict)
    fixpoint_passes: int = 0
    total_ms: float = 0.0

    def to_row(self) -> dict:
        """BENCH_-style machine-readable row."""
        return {
            "bench": "lint",
            "files": self.files,
            "project_modules": self.project_modules,
            "fixpoint_passes": self.fixpoint_passes,
            "rule_ms": {
                k: round(v * 1e3, 3)
                for k, v in sorted(self.rule_ms.items())
            },
            "total_ms": round(self.total_ms, 3),
        }


@dataclass
class ProjectReport:
    """Result of one project lint run."""

    violations: list[Violation]
    files_scanned: int
    stats: LintStats


# ----------------------------------------------------------------------
# Shared back half: index build → project rules → suppression folding
# ----------------------------------------------------------------------
def _finish(
    records: list[FileRecord],
    rules: Sequence[Rule],
    stats: LintStats,
) -> list[Violation]:
    project_rules = _project_rules(rules)
    selected_ids = {r.id for r in rules}
    index = ProjectIndex(r.summary for r in records)
    stats.fixpoint_passes = index.fixpoint_passes
    stats.project_modules = len(index.modules)

    project_found: dict[str, list[Violation]] = {}
    for module in index.modules.values():
        found: list[Violation] = []
        for rule in project_rules:
            t0 = time.perf_counter()
            if rule.applies_to(module.path):
                found.extend(rule.check_module(index, module))
            stats.rule_ms[rule.id] = stats.rule_ms.get(rule.id, 0.0) + (
                time.perf_counter() - t0
            )
        project_found[module.module] = found

    # Fold suppressions per file over both rule families at once.
    out: list[Violation] = []
    for record in records:
        module = record.summary
        decorator_map = index.decorator_map_for(module)
        raw = list(record.raw_violations) + project_found.get(
            module.module, []
        )
        raw = [
            v
            for v in raw
            if v.rule in selected_ids or v.rule == PARSE_ERROR_RULE_ID
        ]
        out.extend(
            apply_suppressions(raw, record.suppressions, decorator_map)
        )
        for line, col, message in record.malformed:
            out.append(
                Violation(
                    path=record.norm_path,
                    line=line,
                    col=col,
                    rule=MALFORMED_RULE_ID,
                    message=message,
                    hint="write: # repro-lint: ignore[rule-id] — reason",
                )
            )
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def _default_rules() -> Sequence[Rule]:
    from repro.lint.rules import ALL_RULES

    return ALL_RULES


def lint_source(
    source: str,
    path: str | Path,
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Lint one module's source as if it lived at ``path``.

    Runs the file-scope rules among ``rules`` (project rules need the
    other modules; see :func:`lint_project_sources`).  Returns **all**
    findings, suppressed ones included (marked) — the reporters and
    exit-code logic filter on :attr:`Violation.suppressed`.
    """
    file_rules = _file_rules(_default_rules() if rules is None else rules)
    record = analyze_file(source, path, file_rules)
    return _finish([record], file_rules, LintStats())


def lint_project_sources(
    sources: dict[str, str],
    rules: Sequence[Rule] | None = None,
) -> list[Violation]:
    """Project-lint a set of in-memory modules (fixture entry point).

    ``sources`` maps repo-relative paths to source text; the modules see
    each other through the same import resolution as a disk run.
    """
    if rules is None:
        rules = _default_rules()
    file_rules = _file_rules(rules)
    records = [
        analyze_file(text, path, file_rules)
        for path, text in sorted(sources.items())
    ]
    return _finish(records, rules, LintStats())


def lint_project(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
) -> ProjectReport:
    """Project-lint every ``.py`` file under ``paths``.

    Raises :class:`repro.lint.core.LintPathError` on missing targets.
    """
    if rules is None:
        rules = _default_rules()
    t_start = time.perf_counter()
    stats = LintStats()
    file_rules = _file_rules(rules)
    records = [
        analyze_file(read_lint_target(f), f, file_rules, stats.rule_ms)
        for f in iter_python_files(paths)
    ]
    stats.files = len(records)
    violations = _finish(records, rules, stats)
    stats.total_ms = (time.perf_counter() - t_start) * 1e3
    return ProjectReport(
        violations=violations, files_scanned=stats.files, stats=stats
    )


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(violations, files_scanned)``; violations include
    suppressed findings (marked) in ``(path, line)`` order.  Runs the
    full analysis — per-file rules *and* the cross-module project
    rules; :func:`lint_project` also returns the ``--stats`` row.
    """
    report = lint_project(paths, rules)
    return report.violations, report.files_scanned


__all__ = [
    "FileRecord",
    "LintStats",
    "MAX_FIXPOINT_PASSES_PER_FUNCTION",
    "ProjectIndex",
    "ProjectReport",
    "ProjectRule",
    "analyze_file",
    "lint_paths",
    "lint_project",
    "lint_project_sources",
    "lint_source",
]
