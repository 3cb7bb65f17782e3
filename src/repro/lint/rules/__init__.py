"""Rule registry: every invariant the linter enforces, by id.

Adding a rule = subclass :class:`repro.lint.core.Rule` in a module
here, instantiate it in :data:`ALL_RULES`.  Ids are kebab-case and
stable — they appear in suppression comments, so renaming one breaks
every sanctioned exception that cites it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.lint.core import Rule
from repro.lint.rules.construction import B2SRFromTilesRule
from repro.lint.rules.crossmodule import (
    FailurePathVerifyRule,
    HookOrderingRule,
    ModeledTimePurityRule,
    SharedStateDeterminismRule,
    WorkerQueueDisciplineRule,
)
from repro.lint.rules.hotpath import HotPathScatterRule
from repro.lint.rules.immutability import B2SRImmutabilityRule
from repro.lint.rules.numeric import NumericCliffRule
from repro.lint.rules.paper import PaperFaithfulSkipRule, VerifyContractRule
from repro.lint.rules.rng import SeededRngRule

#: Every registered rule, in reporting-priority order (per-file rules
#: first, then the cross-module project rules).
ALL_RULES: tuple[Rule, ...] = (
    NumericCliffRule(),
    B2SRImmutabilityRule(),
    B2SRFromTilesRule(),
    SeededRngRule(),
    PaperFaithfulSkipRule(),
    VerifyContractRule(),
    HotPathScatterRule(),
    HookOrderingRule(),
    ModeledTimePurityRule(),
    SharedStateDeterminismRule(),
    WorkerQueueDisciplineRule(),
    FailurePathVerifyRule(),
)

RULES_BY_ID: dict[str, Rule] = {r.id: r for r in ALL_RULES}


def rule_ids() -> tuple[str, ...]:
    return tuple(RULES_BY_ID)


def get_rules(select: str | Sequence[str] | None = None) -> tuple[Rule, ...]:
    """Resolve a rule selection (comma-separated string, id sequence, or
    ``None`` for all) into rule instances; unknown ids raise."""
    if select is None:
        return ALL_RULES
    if isinstance(select, str):
        wanted = [s.strip() for s in select.split(",") if s.strip()]
    else:
        wanted = list(select)
    unknown = [w for w in wanted if w not in RULES_BY_ID]
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {unknown}; known: {sorted(RULES_BY_ID)}"
        )
    return tuple(RULES_BY_ID[w] for w in wanted)


__all__ = [
    "ALL_RULES",
    "B2SRFromTilesRule",
    "B2SRImmutabilityRule",
    "FailurePathVerifyRule",
    "HookOrderingRule",
    "HotPathScatterRule",
    "ModeledTimePurityRule",
    "NumericCliffRule",
    "PaperFaithfulSkipRule",
    "RULES_BY_ID",
    "SeededRngRule",
    "SharedStateDeterminismRule",
    "VerifyContractRule",
    "WorkerQueueDisciplineRule",
    "get_rules",
    "rule_ids",
]
