"""``paper-faithful-skip`` and ``verify-contract``: explicit over default.

Both rules police the same failure mode — a correctness-relevant keyword
left to its default at a call site where the default is wrong (or might
silently become wrong when the default changes).

**paper-faithful-skip.**  ``BitEngine`` defaults to the serving stack's
active-tile skip (``skip_inactive=True``); the paper's kernels sweep
every stored tile, so the reproduction surfaces — ``bench/harness.py``
and the ``repro run`` / ``repro multi`` CLI paths — must pin
``skip_inactive=False`` or the Table VII artifacts stop being
byte-identical.  The rule flags any ``BitEngine(...)`` construction in
those scopes that does not pass a literal ``skip_inactive=False``.

**verify-contract.**  Serving launch sites (``QueryBatcher.flush``,
``Router.run``) take ``verify=`` — the answer check (bitwise against a
solo run, or the router's shortest-path certificate for bfs/sssp).
Bench and smoke call sites must thread it
explicitly: relying on the default makes "was this run verified?"
unanswerable from the call site, and a flipped default would silently
change what CI asserts.  The rule flags ``.flush(...)`` / ``.run(...)``
calls on batcher/scheduler/router-named receivers that omit ``verify=``.
"""

from __future__ import annotations

import ast

from repro.lint.core import LintContext, Rule, RuleVisitor

#: cli.py functions that are reproduction surfaces (the serving
#: subcommands legitimately default to skip mode).
_CLI_REPRO_FUNCS = frozenset({"cmd_run", "cmd_multi"})


def _callee_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _SkipVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        if _callee_name(node.func) == "BitEngine" and self._in_scope():
            kw = next(
                (k for k in node.keywords if k.arg == "skip_inactive"),
                None,
            )
            if kw is None:
                self.report(
                    node,
                    "BitEngine on a paper-reproduction surface without "
                    "skip_inactive=False (the default enables the "
                    "serving stack's active-tile skip)",
                )
            elif not (
                isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                self.report(
                    kw.value,
                    "paper-reproduction surfaces must pin a literal "
                    "skip_inactive=False",
                )
        self.generic_visit(node)

    def _in_scope(self) -> bool:
        if self.ctx.path.endswith("cli.py"):
            return any(
                f in _CLI_REPRO_FUNCS for f in self.enclosing_functions
            )
        return True  # bench/harness.py: every construction is scoped


class PaperFaithfulSkipRule(Rule):
    id = "paper-faithful-skip"
    description = (
        "bench/harness.py and the repro run/multi CLI paths construct "
        "BitEngine with an explicit skip_inactive=False (Table VII "
        "artifacts must stay byte-identical)"
    )
    hint = (
        "pass skip_inactive=False; only serving surfaces (cluster/"
        "ingest) may take the skip default"
    )

    def applies_to(self, path: str) -> bool:
        return path.endswith("bench/harness.py") or path.endswith(
            "cli.py"
        )

    def visitor(self, ctx: LintContext) -> RuleVisitor:
        return _SkipVisitor(self, ctx)


# ----------------------------------------------------------------------
_LAUNCH_METHODS = frozenset({"flush", "run"})
_RECEIVER_HINTS = ("batcher", "scheduler", "router", "sched")


class _VerifyVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LAUNCH_METHODS
            and self._is_serving_receiver(func.value)
            and not any(k.arg == "verify" for k in node.keywords)
        ):
            self.report(
                node,
                f"serving launch .{func.attr}() without an explicit "
                "verify= — whether this run is bitwise-verified should "
                "be legible at the call site",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_serving_receiver(value: ast.AST) -> bool:
        name = None
        if isinstance(value, ast.Name):
            name = value.id
        elif isinstance(value, ast.Attribute):
            name = value.attr
        if name is None:
            return False
        lowered = name.lower()
        return any(h in lowered for h in _RECEIVER_HINTS)


class VerifyContractRule(Rule):
    id = "verify-contract"
    description = (
        "bench/smoke/serving call sites that flush() or run() a "
        "batcher/scheduler/router thread verify= explicitly instead of "
        "relying on the default"
    )
    hint = (
        "pass verify=True (bitwise-checked) or verify=False (and say "
        "why speed wins) at the call site"
    )

    def applies_to(self, path: str) -> bool:
        if self.in_tests(path):
            return False
        return (
            "serving/" in path
            or "bench" in path
            or path.endswith("cli.py")
        )

    def visitor(self, ctx: LintContext) -> RuleVisitor:
        return _VerifyVisitor(self, ctx)


__all__ = ["PaperFaithfulSkipRule", "VerifyContractRule"]
