"""Repo-specific static analysis: an AST linter for hand-paid invariants.

Every rule in :mod:`repro.lint.rules` mechanizes a contract this codebase
once enforced by review alone — and, in most cases, paid for as a shipped
bug first: the float32 id cliff, frozen B2SR tiles behind memoized sweep
plans, seeded RNG, paper-faithful skip, explicit ``verify=``, and the
cross-module call-path contracts of the serving stack.  Per-file rules
see one module's AST; project rules (:mod:`repro.lint.project`) run over
a whole-tree call graph.  ``repro lint --list-rules`` prints the
registry with each rule's scope and invariant.

Violations carry ``file:line``, a rule id and a fix hint; sanctioned
exceptions are inline suppressions that must state their reason::

    x = frontier.astype(np.float32)  # repro-lint: ignore[numeric-cliff] — 0/1 payload, no ids

Run it as ``repro lint [paths...]`` (text, ``--format json`` or
``--format sarif``) or via :func:`lint_paths` / :func:`lint_source`.
"""

from repro.lint.core import (
    LintContext,
    LintPathError,
    Rule,
    RuleVisitor,
    Violation,
    iter_python_files,
)
from repro.lint.project import (
    LintStats,
    ProjectIndex,
    ProjectReport,
    ProjectRule,
    lint_paths,
    lint_project,
    lint_project_sources,
    lint_source,
)
from repro.lint.reporters import (
    JSON_SCHEMA_VERSION,
    apply_baseline,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.rules import ALL_RULES, get_rules, rule_ids
from repro.lint.suppress import MALFORMED_RULE_ID, Suppression

__all__ = [
    "ALL_RULES",
    "JSON_SCHEMA_VERSION",
    "LintContext",
    "LintPathError",
    "LintStats",
    "MALFORMED_RULE_ID",
    "ProjectIndex",
    "ProjectReport",
    "ProjectRule",
    "Rule",
    "RuleVisitor",
    "Suppression",
    "Violation",
    "apply_baseline",
    "get_rules",
    "iter_python_files",
    "lint_paths",
    "lint_project",
    "lint_project_sources",
    "lint_source",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
]
