"""``seeded-rng``: all randomness threads an explicitly seeded Generator.

The verify skill's first gotcha is the repo's determinism contract: two
identical invocations must produce identical stdout, serving answers are
verified (bitwise against solo re-runs, or by certificate), and every
bench artifact is reproducible from its seed.  One
``np.random.shuffle`` (global-state legacy API) or argless
``default_rng()`` (OS-entropy seeded) anywhere in
``src/`` quietly breaks all of it — and unlike a failing test, a
nondeterministic artifact only betrays itself when someone re-runs it.

Flagged outside tests:

* any call through the legacy global-state surface ``np.random.<fn>``
  (``seed``, ``rand``, ``randint``, ``choice``, ``shuffle``, ...) —
  everything except the seedable constructors
  (``default_rng`` / ``Generator`` / ``SeedSequence`` / bit
  generators);
* ``default_rng()`` with no arguments (any alias spelling), which
  seeds from OS entropy.
"""

from __future__ import annotations

import ast

from repro.lint.core import LintContext, Rule, RuleVisitor

#: Seedable constructors — the sanctioned ways into numpy.random.
ALLOWED_RANDOM_ATTRS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)
_DEFAULT_RNG = "numpy.random.default_rng"


class _Visitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.resolver.dotted(node.func)
        if dotted is not None and dotted.startswith("numpy.random."):
            attr = dotted[len("numpy.random."):]
            if "." not in attr and attr not in ALLOWED_RANDOM_ATTRS:
                self.report(
                    node,
                    f"np.random.{attr}() draws from global RNG state; "
                    "results depend on call order across the process",
                )
        if dotted == _DEFAULT_RNG and not node.args and not node.keywords:
            self.report(
                node,
                "default_rng() without a seed draws OS entropy; every "
                "run produces different output",
            )
        self.generic_visit(node)


class SeededRngRule(Rule):
    id = "seeded-rng"
    description = (
        "no global-state np.random calls and no argless default_rng() "
        "outside tests (identical invocations must produce identical "
        "output)"
    )
    hint = (
        "thread rng = np.random.default_rng(seed) from the caller (or "
        "spawn child seeds via SeedSequence)"
    )

    def applies_to(self, path: str) -> bool:
        return not self.in_tests(path)

    def visitor(self, ctx: LintContext) -> RuleVisitor:
        return _Visitor(self, ctx)


__all__ = ["ALLOWED_RANDOM_ATTRS", "SeededRngRule"]
