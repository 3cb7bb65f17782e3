"""Cross-module rules over the call-graph/effect index.

These are the contracts per-file pattern matching cannot see — each one
is a property of a *path* through the call graph, witnessed across
files.  All five ride :class:`repro.lint.project.ProjectRule`: they run
once per module against the whole-project :class:`ProjectIndex`, and
their messages carry the offending call chain so a finding in
``serving/cluster.py`` can point at the wall-clock read three hops away.

* ``hook-ordering`` — an ``on_arrival`` hook must never reach
  ``dispatch``: the EventLoop re-arms timers *after* the arrival hook
  returns, so dispatching from inside it runs against stale timer
  state (and double-dispatches the admitting batch).
* ``modeled-time-purity`` — the serving/kernels hot path lives in
  modeled milliseconds derived from operation counts; a wall-clock
  read anywhere in its transitive closure makes results
  machine-dependent.  ``bench_*`` wall-clock mode is the sanctioned
  exception.
* ``shared-state-determinism`` — module-level mutable state written by
  code reachable from serving dispatch is exactly what stops being
  safe when the planned multiprocessing data plane makes dispatch
  paths truly concurrent; flag it now, while every occurrence is still
  a deliberate choice.
* ``worker-queue-discipline`` — code reachable from a worker-process
  entry point (``worker_main``) runs in a spawned child that shares
  nothing with the router: module-global writes silently diverge per
  process, wall-clock reads outside the designated timing hooks make
  launch timings unattributable, and any call into the host-side graph
  owners (``serving/cluster``, ``serving/batcher``, ``serving/ingest``,
  ``repro.graph``) means the worker is touching objects that were never
  exported across the queue.
* ``failure-path-verify`` — a serving function that re-queues or
  re-executes work after a fault must feed a flush/install call that
  spells ``verify=`` explicitly (itself, via its dispatch root, or in
  a direct caller): a recovery path that silently drops verification
  is exactly how a fault-masking wrong answer ships.
"""

from __future__ import annotations

from repro.lint.core import Rule, Violation
from repro.lint.project import ProjectIndex, ProjectRule
from repro.lint.summary import (
    CALLS_DISPATCH,
    VERIFY_EXPLICIT,
    ModuleSummary,
    WALL_CLOCK,
)


def _chain_text(hops: list[str]) -> str:
    return " -> ".join(hops) if hops else "(direct)"


class HookOrderingRule(ProjectRule):
    id = "hook-ordering"
    description = (
        "controller on_arrival hooks must not reach dispatch (timers "
        "re-arm only after the hook returns)"
    )
    hint = (
        "record the arrival and return; let the event loop's timer "
        "re-arm path invoke dispatch"
    )

    def applies_to(self, path: str) -> bool:
        return not Rule.in_tests(path)

    def check_module(
        self, project: ProjectIndex, module: ModuleSummary
    ) -> list[Violation]:
        out: list[Violation] = []
        for fn in module.functions.values():
            if fn.name != "on_arrival" or fn.cls is None:
                continue
            if CALLS_DISPATCH not in project.effects.get(fn.qualname, ()):
                continue
            chain = project.effect_chain(fn.qualname, CALLS_DISPATCH)
            out.append(
                Violation(
                    path=module.path,
                    line=fn.line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"'{fn.cls}.on_arrival' can reach dispatch "
                        f"before timers re-arm: {_chain_text(chain)}"
                    ),
                    hint=self.hint,
                )
            )
        return out


class ModeledTimePurityRule(ProjectRule):
    id = "modeled-time-purity"
    description = (
        "nothing reachable from serving/ or kernels/ hot paths may read "
        "the wall clock (modeled-ms domain; bench_* excepted)"
    )
    hint = (
        "derive timing from modeled operation counts "
        "(gpusim.timing) or move the measurement into a bench_* "
        "harness"
    )

    def applies_to(self, path: str) -> bool:
        name = path.rsplit("/", 1)[-1]
        if Rule.in_tests(path) or name.startswith("bench_"):
            return False
        return "serving/" in path or "kernels/" in path

    def check_module(
        self, project: ProjectIndex, module: ModuleSummary
    ) -> list[Violation]:
        out: list[Violation] = []
        for fn in module.functions.values():
            if fn.name.startswith("bench_"):
                continue  # sanctioned wall-clock mode
            if WALL_CLOCK not in project.effects.get(fn.qualname, ()):
                continue
            chain = project.effect_chain(fn.qualname, WALL_CLOCK)
            out.append(
                Violation(
                    path=module.path,
                    line=fn.line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"'{fn.qualname}' is on the modeled-time hot "
                        f"path but transitively reads the wall clock: "
                        f"{_chain_text(chain)}"
                    ),
                    hint=self.hint,
                )
            )
        return out


class SharedStateDeterminismRule(ProjectRule):
    id = "shared-state-determinism"
    description = (
        "module-level mutable state must not be written by code "
        "reachable from serving dispatch (hazard for the parallel "
        "data plane)"
    )
    hint = (
        "thread the state through the controller/server objects, or "
        "make the binding immutable at module scope"
    )

    def applies_to(self, path: str) -> bool:
        return not Rule.in_tests(path)

    def check_module(
        self, project: ProjectIndex, module: ModuleSummary
    ) -> list[Violation]:
        out: list[Violation] = []
        for fn in module.functions.values():
            if fn.qualname not in project.dispatch_reachable:
                continue
            for mut in fn.global_mutations:
                found = project.find_global(mut.target)
                head, _, _name = mut.target.rpartition(".")
                if found is not None:
                    gmod, binding = found
                    desc = (
                        f"module-level {binding.kind} "
                        f"(defined {project.modules[gmod].path}:"
                        f"{binding.line})"
                    )
                elif head in project.modules and mut.how in (
                    "assignment",
                    "augmented assignment",
                ):
                    desc = "module global"
                else:
                    continue
                path_text = " -> ".join(
                    project.dispatch_path(fn.qualname)
                )
                out.append(
                    Violation(
                        path=module.path,
                        line=mut.line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"'{fn.qualname}' mutates '{mut.target}' "
                            f"({mut.how}), a {desc}, while reachable "
                            f"from serving dispatch: {path_text}"
                        ),
                        hint=self.hint,
                    )
                )
        return out


class WorkerQueueDisciplineRule(ProjectRule):
    id = "worker-queue-discipline"
    description = (
        "worker-entry-reachable code must not write module globals, "
        "read wall clocks outside the designated timing hooks, or call "
        "into host-side graph owners"
    )
    hint = (
        "ship state through LaunchSpec/LaunchResult records and the "
        "exported shm segments; time through the sanctioned hook "
        "(_wall_ms)"
    )

    #: Function names sanctioned to read the wall clock directly on
    #: worker paths (mirrors ``repro.serving.parallel.TIMING_HOOKS``).
    _TIMING_HOOKS = frozenset({"_wall_ms"})

    #: Host-side modules a worker process must never call into: they
    #: own Graph/registry/batcher state that exists only in the router
    #: process and was never exported across the queue.
    _HOST_MODULES = frozenset(
        {
            "repro.graph",
            "repro.serving.batcher",
            "repro.serving.cluster",
            "repro.serving.ingest",
        }
    )

    def applies_to(self, path: str) -> bool:
        return not Rule.in_tests(path)

    def check_module(
        self, project: ProjectIndex, module: ModuleSummary
    ) -> list[Violation]:
        out: list[Violation] = []
        for fn in module.functions.values():
            if fn.qualname not in project.worker_reachable:
                continue
            path_text = " -> ".join(project.worker_path(fn.qualname))
            for mut in fn.global_mutations:
                found = project.find_global(mut.target)
                head, _, _name = mut.target.rpartition(".")
                if found is None and not (
                    head in project.modules
                    and mut.how in ("assignment", "augmented assignment")
                ):
                    continue
                out.append(
                    Violation(
                        path=module.path,
                        line=mut.line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"'{fn.qualname}' mutates module-level "
                            f"state '{mut.target}' ({mut.how}) while "
                            f"reachable from a worker entry point: "
                            f"{path_text} — spawned workers share no "
                            "module state with the router"
                        ),
                        hint=self.hint,
                    )
                )
            wall = fn.direct_effects.get(WALL_CLOCK)
            if wall is not None and fn.name not in self._TIMING_HOOKS:
                out.append(
                    Violation(
                        path=module.path,
                        line=wall.line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"'{fn.qualname}' reads the wall clock "
                            f"({wall.detail}) outside the designated "
                            f"timing hooks while reachable from a "
                            f"worker entry point: {path_text}"
                        ),
                        hint=self.hint,
                    )
                )
            for callee, line in project.edges.get(fn.qualname, ()):
                callee_mod = project.function_module.get(callee)
                if callee_mod not in self._HOST_MODULES:
                    continue
                out.append(
                    Violation(
                        path=module.path,
                        line=line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"'{fn.qualname}' calls "
                            f"'{callee}' in host-side module "
                            f"{callee_mod} while reachable from a "
                            f"worker entry point: {path_text} — that "
                            "state was never exported to the worker"
                        ),
                        hint=self.hint,
                    )
                )
        return out


class FailurePathVerifyRule(ProjectRule):
    id = "failure-path-verify"
    description = (
        "serving re-queue/re-execute recovery paths must reach a flush "
        "or install call with an explicit verify= keyword"
    )
    hint = (
        "route the recovered batch through the same verify=-explicit "
        "flush/install call the first launch used (or pass verify= at "
        "the re-execution site)"
    )

    #: Substrings that mark a function as a fault-recovery path.
    _RECOVERY_MARKS = (
        "requeue",
        "re_queue",
        "reexecute",
        "re_execute",
        "resubmit",
        "re_submit",
        "relaunch",
        "re_launch",
    )

    def applies_to(self, path: str) -> bool:
        return "serving/" in path and not Rule.in_tests(path)

    def check_module(
        self, project: ProjectIndex, module: ModuleSummary
    ) -> list[Violation]:
        out: list[Violation] = []
        callers: dict[str, list[str]] | None = None
        for fn in module.functions.values():
            name = fn.name.lower()
            if not any(m in name for m in self._RECOVERY_MARKS):
                continue
            # (1) The recovery path itself reaches a verify=-explicit
            # flush/install transitively.
            if VERIFY_EXPLICIT in project.effects.get(fn.qualname, ()):
                continue
            # (2) The dispatch root it hangs off does: the re-queued
            # batch goes back through the same launch path, and that
            # path spells verify=.
            root = self._dispatch_root(project, fn.qualname)
            if root is not None and VERIFY_EXPLICIT in project.effects.get(
                root, ()
            ):
                continue
            # (3) A direct caller does: the caller installs the
            # re-executed result itself, verify made explicit there.
            if callers is None:
                callers = {}
                for src, outs in project.edges.items():
                    for callee, _line in outs:
                        callers.setdefault(callee, []).append(src)
            if any(
                VERIFY_EXPLICIT in project.effects.get(c, ())
                for c in callers.get(fn.qualname, ())
            ):
                continue
            out.append(
                Violation(
                    path=module.path,
                    line=fn.line,
                    col=0,
                    rule=self.id,
                    message=(
                        f"'{fn.qualname}' re-queues or re-executes work "
                        "after a fault but neither it, its dispatch "
                        "root, nor any direct caller reaches a "
                        "verify=-explicit flush/install — recovered "
                        "answers would skip the bitwise check"
                    ),
                    hint=self.hint,
                )
            )
        return out

    @staticmethod
    def _dispatch_root(
        project: ProjectIndex, qualname: str, limit: int = 32
    ) -> str | None:
        """The dispatch root ``qualname`` was first reached from, or
        ``None`` when it is not dispatch-reachable."""
        if qualname not in project.dispatch_reachable:
            return None
        current = qualname
        for _ in range(limit):
            parent, _line = project.dispatch_reachable[current]
            if parent is None:
                return current
            current = parent
        return current


__all__ = [
    "FailurePathVerifyRule",
    "HookOrderingRule",
    "ModeledTimePurityRule",
    "SharedStateDeterminismRule",
    "WorkerQueueDisciplineRule",
]
