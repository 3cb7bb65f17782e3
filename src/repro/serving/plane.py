"""The data plane: where a committed batch executes.

The router (:mod:`repro.serving.cluster`) decides *when* and *where* a
batch runs, in modeled time.  A :class:`DataPlane` executes it.  Every
launch crosses the same boundary, a :class:`LaunchSpec` in and a
:class:`LaunchResult` out, whichever plane serves it:

* :class:`InProcessPlane`, the default, runs each launch through the
  owning graph's :class:`~repro.serving.batcher.QueryBatcher` and
  returns the finished result, modeled service time included.
* :class:`~repro.serving.parallel.WorkerPool` queues each launch on a
  worker process and returns nothing until :meth:`DataPlane.drain`.

The router books what a plane returned: a finished result's modeled
time, or, for a deferred launch, the service estimate.  Records carry
graph names and versions, never graph arrays, so both planes share them.

:func:`solo_reference` is the one standalone-run helper behind every
``verify=`` check: the router's install and ``QueryBatcher.flush``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.algorithms import bfs, connected_components, sssp
from repro.engines.base import Engine, EngineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import GraphEntry, GraphRegistry


@dataclass(frozen=True)
class LaunchSpec:
    """One committed batch: query kind, sources and width, plus the
    graph *name and version* the plane resolves them against."""

    batch_id: int
    graph: str
    version: int
    kind: str
    sources: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class LaunchResult:
    """One completed launch.

    ``columns`` is ``(n, width)`` for bfs/sssp and the label vector for
    cc (every rider shares it).  ``worker`` is the index of the worker
    process that ran the launch (0 in-process), not the server it was
    placed on.  An in-process launch reports ``modeled_ms`` and no wall
    time; a worker reports ``wall_ms`` and no modeled time.
    """

    batch_id: int
    worker: int
    pid: int
    wall_ms: float
    columns: np.ndarray | None
    iterations: int = 0
    error: str | None = None
    modeled_ms: float = 0.0


class DataPlane(Protocol):
    """What :meth:`repro.serving.cluster.Router.run` launches through."""

    def next_batch_id(self) -> int:
        """A fresh, run-unique :attr:`LaunchSpec.batch_id`."""
        ...

    def publish(self, entry: GraphEntry) -> None:
        """Make a graph version servable before any launch names it."""
        ...

    def retire(self, name: str, version: int) -> None:
        """Release a superseded version once its launches have drained."""
        ...

    def submit(self, sid: int, spec: LaunchSpec) -> LaunchResult | None:
        """Execute ``spec`` for server ``sid``: the finished result, or
        ``None`` when the result arrives at :meth:`drain`."""
        ...

    def drain(self) -> dict[int, LaunchResult]:
        """Every deferred result, keyed by batch id."""
        ...

    def kill_worker(self, sid: int) -> bool:
        """Kill the worker serving ``sid``; ``False`` if there is none."""
        ...

    def revive_worker(self, sid: int) -> bool:
        """Respawn a dead worker for ``sid``; ``True`` if one started."""
        ...

    def worker_alive(self, sid: int) -> bool:
        """Can ``sid``'s launches execute right now?"""
        ...

    def describe(self) -> dict[str, Any] | None:
        """Backend facts for ``report.extra["data_plane"]``, or ``None``
        for a plane with no per-launch wall timings to report."""
        ...


class InProcessPlane:
    """Serve every launch in this process, at once.

    :meth:`submit` runs the launch through the owning entry's
    ``QueryBatcher.flush`` and returns the finished result.  Versions
    resolve straight from the registry, so publishing and retiring are
    no-ops; there is no worker to kill and nothing is left to drain.
    No clock is read: the result carries modeled time only.
    """

    def __init__(self, registry: GraphRegistry) -> None:
        self.registry = registry
        self._next_batch_id = 0

    def next_batch_id(self) -> int:
        self._next_batch_id += 1
        return self._next_batch_id

    def publish(self, entry: GraphEntry) -> None:
        """Nothing to export: launches read the registry's entry."""

    def retire(self, name: str, version: int) -> None:
        """Nothing to release: the registry owns every version."""

    def submit(self, sid: int, spec: LaunchSpec) -> LaunchResult:
        batcher = self.registry.entry_for(spec.graph, spec.version).batcher
        if spec.kind == "cc":
            qids = [batcher.submit("cc") for _ in range(spec.width)]
        else:
            qids = [batcher.submit(spec.kind, s) for s in spec.sources]
        results, reports = batcher.flush(verify=False)
        answers = [results[q].result for q in qids]
        return LaunchResult(
            batch_id=spec.batch_id,
            worker=0,
            pid=0,
            wall_ms=0.0,
            columns=(
                answers[0] if spec.kind == "cc"
                else np.stack(answers, axis=1)
            ),
            iterations=sum(rep.iterations for rep in reports),
            modeled_ms=sum(rep.batched_ms for rep in reports),
        )

    def drain(self) -> dict[int, LaunchResult]:
        return {}

    def kill_worker(self, sid: int) -> bool:
        return False

    def revive_worker(self, sid: int) -> bool:
        return False

    def worker_alive(self, sid: int) -> bool:
        return True

    def describe(self) -> None:
        return None


def solo_reference(
    engine: Engine,
    cc_engine: Engine,
    kind: str,
    source: int | None,
    cache: dict[tuple[str, int | None], Any],
) -> tuple[np.ndarray, EngineReport]:
    """Standalone answer and report for one query, memoized in
    ``cache`` by ``(kind, source)`` (the engines are deterministic, so
    duplicate queries verify against one execution)."""
    key = (kind, source)
    if key not in cache:
        if kind == "bfs":
            cache[key] = bfs(engine, int(source))  # type: ignore[arg-type]
        elif kind == "sssp":
            cache[key] = sssp(engine, int(source))  # type: ignore[arg-type]
        else:
            cache[key] = connected_components(cc_engine)
    ref, rep = cache[key]
    return ref, rep


__all__ = [
    "DataPlane",
    "InProcessPlane",
    "LaunchResult",
    "LaunchSpec",
    "solo_reference",
]
