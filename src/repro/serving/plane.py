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

:func:`certify_hop_distances` is the router's ``verify=`` check for a
bfs/sssp launch: it proves the answer against the epoch's CSR, which no
kernel reads, instead of running the same kernels a second time.
:func:`solo_reference` is the one standalone-run helper behind every
other ``verify=`` check: the router's cc install and
``QueryBatcher.flush``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.algorithms import bfs, connected_components, sssp
from repro.engines.base import Engine, EngineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.csr import CSRMatrix
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


#: The answer dtype each certified kind must come back in.
_HOP_DTYPES = {"bfs": np.dtype(np.int64), "sssp": np.dtype(np.float32)}


def certify_hop_distances(
    csr_t: CSRMatrix,
    kind: str,
    sources: Sequence[int],
    columns: np.ndarray,
    where: str,
) -> None:
    """Prove a bfs/sssp launch's answer is the graph's hop distance, or
    raise ``AssertionError`` naming the kind, ``where`` (the graph and
    version), the column and the vertex.

    ``csr_t`` is the epoch's transposed CSR (row ``v`` lists the
    in-neighbours of ``v``) and ``columns`` the ``(n, k)`` answer, column
    ``j`` from ``sources[j]``: ``int64`` with ``-1`` for unreached for
    bfs, ``float32`` with ``inf`` for sssp.  Every stored bit is an edge
    of weight 1, so a correct column is the unique hop distance ``δ``.

    Let ``d`` be the columns as float64, BFS's ``-1`` read as ``inf``,
    and ``r[v] = min(d[u] + 1)`` over the in-neighbours ``u`` of ``v``
    (``inf`` for none).  The check passes iff ``d`` is 0 at the source,
    every entry is ``inf`` or in ``[0, n)`` (so NaN fails), ``r >= d``
    everywhere, ``r == d`` at every finite entry other than the source,
    and, for sssp, no entry has its sign bit set.  Why that is enough
    (the textbook shortest-path certificate; McConnell, Mehlhorn, Näher
    and Schweitzer, *Certifying algorithms*, 2011):

    * ``r >= d`` means no edge relaxes, so ``d <= δ`` along any shortest
      path from the source.
    * Below ``n`` the float64 arithmetic is exact, so each tight
      predecessor is exactly one lower: the chain of them cannot cycle
      and can end only at the source's 0, so ``d >= δ``.  (Without the
      bound, a value such as ``1e30`` on a self-loop is its own tight
      predecessor.)
    * With the dtype and sign-bit checks, a certified column is
      therefore *bitwise* equal to a correct solo run: an integer or
      ``inf`` has one float32 encoding, and one int64 encoding with
      ``-1`` for ``inf``.
    """
    n = csr_t.nrows
    src = np.asarray(sources, dtype=np.int64)
    k = src.shape[0]
    expected = _HOP_DTYPES[kind]
    if columns.dtype != expected or columns.shape != (n, k):
        raise AssertionError(
            f"{kind} answer on {where} is {columns.dtype} "
            f"{columns.shape}, not {expected} {(n, k)}"
        )
    d = columns.astype(np.float64)
    if kind == "bfs":
        d[columns == -1] = np.inf
    r = np.full_like(d, np.inf)
    # reduceat returns the start element for an empty segment, not the
    # identity, so only rows with in-neighbours are reduced.
    fed = np.flatnonzero(np.diff(csr_t.indptr))
    if fed.size:
        r[fed] = np.minimum.reduceat(
            d[csr_t.indices], csr_t.indptr[fed], axis=0
        ) + 1.0
    reached = np.isfinite(d)
    at_source = np.zeros(d.shape, dtype=bool)
    at_source[src, np.arange(k)] = True
    defects = [
        ("is not 0 at its source", at_source & (d != 0)),
        ("is neither unreached nor in [0, n)",
         ~((d >= 0) & ((d < n) | ~reached))),
        ("is lowered by an in-edge", r < d),
        ("has no in-neighbour one hop closer",
         reached & ~at_source & (r != d)),
    ]
    if kind == "sssp":
        defects.append(("has its sign bit set", np.signbit(columns)))
    for why, bad in defects:
        if bad.any():
            j, v = np.argwhere(bad.T)[0]
            raise AssertionError(
                f"{kind} answer on {where}, column {j} (source {src[j]}): "
                f"vertex {v} = {columns[v, j].item()!r} {why}"
            )


__all__ = [
    "DataPlane",
    "InProcessPlane",
    "LaunchResult",
    "LaunchSpec",
    "certify_hop_distances",
    "solo_reference",
]
