"""Rule framework for the invariant linter.

The moving parts:

* :class:`Violation` — one finding: ``file:line``, rule id, message and
  fix hint, plus the node span (so a suppression anywhere on a
  multi-line statement matches) and its suppression state.
* :class:`Rule` — a registered invariant.  A rule declares which
  repo-relative paths it polices (:meth:`Rule.applies_to`) and returns
  an AST visitor per file (:meth:`Rule.visitor`).
* :class:`RuleVisitor` — the shared visitor base: tracks the enclosing
  function stack (rules scope findings to e.g. ``cmd_run``) and funnels
  findings through :meth:`RuleVisitor.report`.
* :func:`apply_suppressions` — folds a file's suppression table
  (:mod:`repro.lint.suppress`) over its findings.

The runners that drive all of this live in :mod:`repro.lint.project`.

Paths are matched as normalized POSIX substrings (``"kernels/"``,
``"bench/harness.py"``), so the same rules fire whether the linter is
invoked on ``src``, ``src/repro`` or an absolute path — and fixture
files in tests can impersonate any location via ``lint_source(...,
path=...)``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from repro.lint.resolve import AliasResolver

#: Rule id reported for files the parser rejects.
PARSE_ERROR_RULE_ID = "parse-error"


class LintPathError(Exception):
    """A lint target does not exist or cannot be read.

    Carries the offending path so the CLI can name it; ``repro lint``
    maps this to exit code 2 (a misuse, distinct from exit 1 = findings).
    """

    def __init__(self, path: str | Path, detail: str) -> None:
        self.path = str(path)
        self.detail = detail
        super().__init__(f"{detail}: {self.path}")


@dataclass(frozen=True)
class Violation:
    """One lint finding, optionally neutralized by a suppression."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    end_line: int | None = None
    suppressed: bool = False
    reason: str = ""

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}{tag}: {self.message}"
        if self.suppressed and self.reason:
            text += f" [reason: {self.reason}]"
        elif self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def normalize_path(path: str | Path) -> str:
    """POSIX form with no leading ``./`` — the form rules match on."""
    text = Path(path).as_posix()
    return text[2:] if text.startswith("./") else text


class LintContext:
    """Per-file state shared by every rule's visitor."""

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = normalize_path(path)
        self.tree = tree
        self.source = source
        self.resolver = AliasResolver.from_tree(tree)
        self.violations: list[Violation] = []

    def report(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule.id,
                message=message,
                hint=rule.hint if hint is None else hint,
                end_line=getattr(node, "end_lineno", None),
            )
        )


class Rule:
    """One registered invariant.

    Subclasses set ``id`` / ``description`` / ``hint``, narrow
    :meth:`applies_to`, and return a visitor from :meth:`visitor`.

    ``scope`` distinguishes the two rule families: ``"file"`` rules see
    one module at a time through an AST visitor; ``"project"`` rules
    (:class:`repro.lint.project.ProjectRule`) run over the whole-tree
    call-graph/effect index instead of a visitor.
    """

    id: str = ""
    description: str = ""
    hint: str = ""
    scope: str = "file"

    def applies_to(self, path: str) -> bool:
        return True

    def visitor(self, ctx: LintContext) -> "RuleVisitor":
        raise NotImplementedError

    @staticmethod
    def in_tests(path: str) -> bool:
        name = path.rsplit("/", 1)[-1]
        return (
            "tests/" in path
            or name.startswith("test_")
            or name == "conftest.py"
        )


class RuleVisitor(ast.NodeVisitor):
    """Shared visitor base: function-scope tracking + reporting."""

    def __init__(self, rule: Rule, ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.func_stack: list[str] = []

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.AST) -> None:
        self.func_stack.append(getattr(node, "name", "<lambda>"))
        try:
            self.generic_visit(node)
        finally:
            self.func_stack.pop()

    @property
    def enclosing_functions(self) -> tuple[str, ...]:
        return tuple(self.func_stack)

    # -- reporting -----------------------------------------------------
    def report(
        self, node: ast.AST, message: str, hint: str | None = None
    ) -> None:
        self.ctx.report(self.rule, node, message, hint)


# ----------------------------------------------------------------------
# Suppression folding and file discovery
# ----------------------------------------------------------------------
def apply_suppressions(
    violations: Iterable[Violation],
    suppressions: dict[int, list],
    decorator_map: dict[int, tuple[int, ...]] | None = None,
) -> list[Violation]:
    """Mark violations matched by the file's suppression table.

    Candidate lines for each violation are its node span plus — when
    the violation anchors to a decorated ``def`` line — the decorator
    lines above it (``decorator_map``: ``def`` line → decorator lines).
    A directive naturally lands on whichever of the two lines the
    author is looking at, so both must match.
    """
    out: list[Violation] = []
    for v in violations:
        span_end = v.end_line if v.end_line is not None else v.line
        candidates = list(range(v.line, span_end + 1))
        if decorator_map:
            candidates.extend(decorator_map.get(v.line, ()))
        match = None
        for line in candidates:
            for sup in suppressions.get(line, ()):
                if v.rule in sup.rules:
                    match = sup
                    break
            if match:
                break
        if match is not None:
            v = replace(v, suppressed=True, reason=match.reason)
        out.append(v)
    return out


def read_lint_target(path: str | Path) -> str:
    """Read a lint target, raising :class:`LintPathError` on failure."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LintPathError(path, f"cannot read ({exc.strerror})") from exc


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    A path that does not exist raises :class:`LintPathError`: an
    invocation naming a missing target must fail loudly (exit 2 in the
    CLI) instead of reporting a clean empty scan.
    """
    seen: set[Path] = set()
    for p in paths:
        root = Path(p)
        if root.is_dir():
            candidates: Iterable[Path] = sorted(root.rglob("*.py"))
        elif root.is_file():
            candidates = [root] if root.suffix == ".py" else []
        else:
            raise LintPathError(root, "no such file or directory")
        for f in candidates:
            if f not in seen:
                seen.add(f)
                yield f


__all__ = [
    "PARSE_ERROR_RULE_ID",
    "LintContext",
    "LintPathError",
    "Rule",
    "RuleVisitor",
    "Violation",
    "apply_suppressions",
    "iter_python_files",
    "normalize_path",
    "read_lint_target",
]
