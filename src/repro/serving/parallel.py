"""Real-parallel data plane: worker processes under the serving cluster.

The cluster (:mod:`repro.serving.cluster`) is a discrete-event *model* —
admission, placement and SLO accounting all run in modeled milliseconds
inside one Python process.  This module puts real hardware under that
model: a :class:`WorkerPool` of spawned worker processes, each pinned to
a cluster :class:`~repro.serving.events.Server` (``sid %% processes``),
executing committed batches as **real kernel launches** against B2SR
tiles and set-bit indices shared zero-copy through
:mod:`repro.formats.shm`.  It is one of the two
:class:`~repro.serving.plane.DataPlane` implementations; the other
serves in-process.  A worker serves each attached graph version through
:meth:`BitEngine.from_operand <repro.engines.bit.BitEngine.from_operand>`
engines over the shared views, with the exporting engine's locality and
skip mode, so its launches sweep exactly as the in-process ones do.

Discipline (enforced by the ``worker-queue-discipline`` lint rule):

* Only picklable :class:`~repro.serving.plane.LaunchSpec` /
  :class:`~repro.serving.plane.LaunchResult` records cross the queues —
  never graph arrays.  Graphs travel once, by name, as shared-memory
  segments.
* Worker-reachable code touches no module-level mutable state, reads
  the wall clock only through the designated :func:`_wall_ms` hook, and
  never reaches host-side graph owners (`serving/cluster`,
  `serving/batcher`, `repro.graph`).
* Epoch swaps publish the new version's segments before any launch can
  reference it (attach and launch ride the same FIFO queue) and old
  segments are unlinked only after their last in-flight batch drains —
  the PR 7 epoch discipline, extended across processes.

A pool always means worker processes: it needs ``processes >= 1`` and
POSIX shared memory, and raises otherwise.  Without them, serve
in-process (``Router.run`` with no ``data_plane``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.algorithms import (
    connected_components,
    multi_source_bfs,
    multi_source_sssp,
)
from repro.engines.base import Engine
from repro.engines.bit import BitEngine
from repro.formats.shm import (
    AttachedGraph,
    ShmGraphExport,
    ShmManifest,
    attach,
    list_segments,
    shm_available,
)
from repro.gpusim.device import DeviceSpec
from repro.serving.plane import LaunchResult, LaunchSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.cluster import GraphEntry, GraphRegistry

#: Sanctioned wall-clock hook names (the ``worker-queue-discipline``
#: rule allows direct clock reads only here).
TIMING_HOOKS = frozenset({"_wall_ms"})

_POLL_S = 0.25


# repro-lint: ignore[modeled-time-purity] — the designated wall-clock hook: per-launch wall timings are this data plane's entire product
def _wall_ms() -> float:
    """Wall-clock milliseconds (monotonic).  The *only* sanctioned
    clock read on worker-reachable paths."""
    return time.perf_counter() * 1e3


@dataclass(frozen=True)
class GraphPayload:
    """Attach-time description of one exported graph version."""

    n: int
    device: DeviceSpec
    skip_inactive: bool
    manifest: ShmManifest
    cc_manifest: ShmManifest
    locality: float
    cc_locality: float


@dataclass
class _WorkerGraph:
    """One attached graph version inside a worker."""

    engine: BitEngine
    cc_engine: BitEngine
    attachments: tuple[AttachedGraph, ...] = ()

    def close(self) -> None:
        # Engines must drop their matrix references before the
        # attachments unmap (AttachedGraph.close collects the plan <->
        # matrix cycle and releases the shared buffer views).
        self.engine = None  # type: ignore[assignment]
        self.cc_engine = None  # type: ignore[assignment]
        for att in self.attachments:
            att.close()


def _engines_from_payload(payload: GraphPayload) -> _WorkerGraph:
    """Build the worker's engines for one graph version by attaching
    both exported segments (CRC-asserted bitwise-identical views,
    resource-tracker-unregistered)."""
    att = attach(payload.manifest, verify=True)
    cc_att = attach(payload.cc_manifest, verify=True)
    engine = BitEngine.from_operand(
        att.matrix, n=payload.n, device=payload.device,
        locality=payload.locality, skip_inactive=payload.skip_inactive,
    )
    cc_engine = BitEngine.from_operand(
        cc_att.matrix, n=payload.n, device=payload.device,
        locality=payload.cc_locality, skip_inactive=payload.skip_inactive,
    )
    return _WorkerGraph(engine, cc_engine, (att, cc_att))


# repro-lint: ignore[modeled-time-purity] — brackets the real kernel launch with the sanctioned timing hook; wall timings are the data plane's output
def _execute_spec(
    engine: Engine, cc_engine: Engine, spec: LaunchSpec
) -> tuple[np.ndarray, int, float]:
    """Run one batch for real; returns (columns, iterations, wall_ms).

    Mirrors ``QueryBatcher._serve`` exactly: bfs/sssp run the k-wide
    lockstep batch, cc computes the graph-global labels once (the
    caller broadcasts to riders).
    """
    t0 = _wall_ms()
    if spec.kind == "bfs":
        srcs = np.array(spec.sources, dtype=np.int64)
        out, rep = multi_source_bfs(engine, srcs)
    elif spec.kind == "sssp":
        srcs = np.array(spec.sources, dtype=np.int64)
        out, rep = multi_source_sssp(engine, srcs)
    elif spec.kind == "cc":
        out, rep = connected_components(cc_engine)
    else:
        raise ValueError(f"unknown query kind {spec.kind!r}")
    return out, rep.iterations, _wall_ms() - t0


# repro-lint: ignore[modeled-time-purity] — worker entry point: forwards per-launch wall timings measured by the sanctioned hook
def worker_main(wid: int, task_q: Any, result_q: Any) -> None:
    """Worker process entry point: attach graphs, serve launches.

    Message protocol (FIFO per worker, so an ``attach`` for a version
    always precedes any ``launch`` referencing it):

    * ``("attach", key, payload)`` — map a graph version.
    * ``("retire", key)`` — unmap a version (exporter unlinks).
    * ``("launch", spec)`` — run one batch.
    * ``("stop",)`` — clean shutdown.
    """
    import os

    pid = os.getpid()
    graphs: dict[tuple[str, int], _WorkerGraph] = {}
    attach_errors: dict[tuple[str, int], str] = {}
    while True:
        msg = task_q.get()
        tag = msg[0]
        if tag == "stop":
            break
        if tag == "attach":
            _, key, payload = msg
            try:
                graphs[key] = _engines_from_payload(payload)
            except Exception:  # pragma: no cover - surfaced per launch
                attach_errors[key] = traceback.format_exc()
            continue
        if tag == "retire":
            _, key = msg
            wg = graphs.pop(key, None)
            if wg is not None:
                wg.close()
            attach_errors.pop(key, None)
            continue
        if tag == "launch":
            _, spec = msg
            key = (spec.graph, spec.version)
            try:
                if key not in graphs:
                    raise RuntimeError(
                        attach_errors.get(
                            key, f"graph {key!r} was never attached"
                        )
                    )
                wg = graphs[key]
                out, iters, wall = _execute_spec(
                    wg.engine, wg.cc_engine, spec
                )
                result = LaunchResult(
                    batch_id=spec.batch_id, worker=wid, pid=pid,
                    wall_ms=wall, columns=out, iterations=iters,
                )
            except Exception:
                result = LaunchResult(
                    batch_id=spec.batch_id, worker=wid, pid=pid,
                    wall_ms=0.0, columns=None,
                    error=traceback.format_exc(),
                )
            result_q.put(result)
            continue
    for wg in graphs.values():
        wg.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class _Export:
    """Parent-side record of one published graph version."""

    payload: GraphPayload
    exports: tuple[ShmGraphExport, ...]
    inflight: int = 0
    retired: bool = False


class WorkerPool:
    """A pool of worker processes executing cluster launches for real.

    Parameters
    ----------
    registry:
        The serving graphs; every current entry is published (exported
        to shared memory and attached by every worker) at construction,
        and epoch swaps publish new versions via :meth:`publish`.
    processes:
        Worker count, at least 1 (default: one fewer than the CPUs).
    timeout_s:
        Drain gives up on a batch after this long without progress.

    Raises ``ValueError`` for ``processes < 1`` and ``RuntimeError`` on
    a host without POSIX shared memory.
    """

    def __init__(
        self,
        registry: "GraphRegistry",
        *,
        processes: int | None = None,
        timeout_s: float = 120.0,
    ) -> None:
        if processes is None:
            processes = max(1, (mp.cpu_count() or 1) - 1)
        if processes < 1:
            raise ValueError(
                f"WorkerPool needs processes >= 1, got {processes}; "
                "serve in-process by passing no data plane"
            )
        if not shm_available():
            raise RuntimeError(
                "WorkerPool needs POSIX shared memory, which this host "
                "lacks; serve in-process by passing no data plane"
            )
        self.processes = processes
        self.timeout_s = float(timeout_s)
        self._exports: dict[tuple[str, int], _Export] = {}
        self._results: dict[int, LaunchResult] = {}
        self._assigned: dict[int, int] = {}
        self._specs: dict[int, LaunchSpec] = {}
        self._next_batch_id = 0
        self._closed = False
        self._procs: list[Any] = []
        self._task_qs: list[Any] = []
        # Fault-injection bookkeeping: each revive bumps the worker's
        # incarnation so batches queued to a dead incarnation fail at
        # drain instead of hanging; per-worker wall timings accumulate
        # into online speed factors.
        self._worker_epoch: list[int] = [0] * processes
        self._launch_epoch: dict[int, int] = {}
        self._wall_stats: dict[int, tuple[float, int]] = {}
        self._result_q = mp.get_context("spawn").Queue()
        for wid in range(processes):
            self._spawn(wid)
        for name in registry.names:
            self.publish(registry[name])

    def _spawn(self, wid: int) -> Any:
        """Start worker ``wid`` on a fresh task queue; returns the
        queue it replaced (``None`` on first spawn)."""
        ctx = mp.get_context("spawn")
        tq = ctx.Queue()
        proc = ctx.Process(
            target=worker_main,
            args=(wid, tq, self._result_q),
            daemon=True,
            name=f"repro-worker-{wid}",
        )
        proc.start()
        if wid < len(self._procs):
            old_q, self._task_qs[wid] = self._task_qs[wid], tq
            self._procs[wid] = proc
            return old_q
        self._task_qs.append(tq)
        self._procs.append(proc)
        return None

    # -- lifecycle -----------------------------------------------------
    def publish(self, entry: "GraphEntry") -> None:
        """Export one graph version and broadcast the attach.

        Called for every entry at construction and again on each epoch
        swap *before* any launch can reference the new version (attach
        and launch share each worker's FIFO queue, so ordering is
        structural, not timing-dependent).  Idempotent per version.
        """
        key = (entry.name, entry.version)
        if key in self._exports or self._closed:
            return
        engine, cc_engine = entry.engine, entry.cc_engine
        exp, cc_exp = ShmGraphExport(engine._At), ShmGraphExport(cc_engine._At)
        payload = GraphPayload(
            n=engine.n, device=engine.device,
            skip_inactive=engine.skip_inactive,
            manifest=exp.manifest, cc_manifest=cc_exp.manifest,
            locality=engine._locality, cc_locality=cc_engine._locality,
        )
        self._exports[key] = _Export(payload=payload, exports=(exp, cc_exp))
        for tq in self._task_qs:
            tq.put(("attach", key, payload))

    def retire(self, name: str, version: int) -> None:
        """Schedule a version's segments for unlink.

        The unlink is deferred to the end of the next :meth:`drain` —
        the epoch discipline: a batch *admitted* against the old epoch
        before the swap is still entitled to launch against it after,
        so retired segments stay mapped until every launch of the run
        has drained.  A swap never yanks pages a worker is sweeping.
        """
        exp = self._exports.get((name, version))
        if exp is not None:
            exp.retired = True

    def _unlink(self, key: tuple[str, int]) -> None:
        exp = self._exports.pop(key, None)
        if exp is None:
            return
        for tq in self._task_qs:
            tq.put(("retire", key))
        for e in exp.exports:
            e.unlink()

    def close(self) -> None:
        """Stop workers and unlink every remaining segment
        (idempotent; crash-safe — runs even after worker death)."""
        if self._closed:
            return
        self._closed = True
        for tq in self._task_qs:
            try:
                tq.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
        for key in list(self._exports):
            exp = self._exports.pop(key)
            for e in exp.exports:
                e.unlink()
        for tq in self._task_qs:
            tq.close()
        self._result_q.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC order varies
        try:
            self.close()
        except Exception:
            pass

    def segments(self) -> list[str] | None:
        """Live ``/dev/shm`` segment names with this module's prefix
        (leak checks)."""
        return list_segments()

    def describe(self) -> dict[str, Any]:
        """Backend facts for ``report.extra["data_plane"]``."""
        return {
            "backend": "process",
            "processes": self.processes,
            "measured_speeds": self.measured_speeds(),
        }

    # -- fault injection -----------------------------------------------
    def kill_worker(self, sid: int) -> bool:
        """Fault injection: SIGKILL the worker process pinned to server
        ``sid`` (``sid % processes`` — with fewer workers than servers
        the kill hits every server sharing that worker).  The dead
        worker's unanswered batches surface as ``error`` results at the
        next :meth:`drain`; live workers are unaffected."""
        proc = self._procs[sid % self.processes]
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)
        return True

    def revive_worker(self, sid: int) -> bool:
        """Respawn a dead pinned worker with a *fresh* task queue and
        re-send attaches for every still-published graph version.
        Launches queued to the dead incarnation do not replay — they
        fail at the next :meth:`drain` (the router's recovery path
        re-executes them).  Returns ``True`` when a respawn happened."""
        wid = sid % self.processes
        if self._closed or self._procs[wid].is_alive():
            return False
        old_q = self._spawn(wid)
        self._worker_epoch[wid] += 1
        try:
            old_q.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        for key, exp in self._exports.items():
            self._task_qs[wid].put(("attach", key, exp.payload))
        return True

    def worker_alive(self, sid: int) -> bool:
        """Is the worker pinned to server ``sid`` alive?"""
        return bool(self._procs[sid % self.processes].is_alive())

    def measured_speeds(self) -> dict[int, float]:
        """Per-worker speed factors measured online from the per-launch
        wall timings: inverse mean wall ms per launch, normalized so
        the fleet mean is 1.0 (higher = faster).  Feed the dict into
        ``Router.run(speeds=...)`` to make the next run's placement
        speed-aware.  Workers with no successful launches are omitted;
        the estimate is coarse by construction (the launch mix is not
        width-normalized)."""
        means = {
            wid: total / n
            for wid, (total, n) in self._wall_stats.items()
            if n > 0 and total > 0.0
        }
        if not means:
            return {}
        fleet = sum(means.values()) / len(means)
        return {
            wid: fleet / mean for wid, mean in sorted(means.items())
        }

    # -- dispatch ------------------------------------------------------
    def next_batch_id(self) -> int:
        self._next_batch_id += 1
        return self._next_batch_id

    def submit(self, sid: int, spec: LaunchSpec) -> None:
        """Queue one committed batch on the worker pinned to server
        ``sid``; its result arrives at :meth:`drain`."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        key = (spec.graph, spec.version)
        exp = self._exports.get(key)
        if exp is None:
            raise KeyError(f"graph version {key!r} was never published")
        self._specs[spec.batch_id] = spec
        exp.inflight += 1
        wid = sid % self.processes
        self._assigned[spec.batch_id] = wid
        self._launch_epoch[spec.batch_id] = self._worker_epoch[wid]
        self._task_qs[wid].put(("launch", spec))

    def drain(self) -> dict[int, LaunchResult]:
        """Collect every outstanding result; returns results by
        ``batch_id`` (cleared from the pool).

        A dead worker fails only its own batches (as ``error`` results)
        — live workers keep draining.  Deferred retires whose last
        in-flight batch completes here are unlinked here.
        """
        idle_polls = 0
        max_polls = max(1, int(self.timeout_s / _POLL_S))
        while len(self._results) < len(self._specs):
            try:
                res: LaunchResult = self._result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                idle_polls += 1
                self._fail_dead_workers()
                if idle_polls >= max_polls:
                    self._fail_outstanding("drain timed out")
                continue
            idle_polls = 0
            self._record(res)
        results, self._results = self._results, {}
        self._specs.clear()
        self._assigned.clear()
        self._launch_epoch.clear()
        # The run's launches have all resolved: retired epochs can now
        # release their segments.
        for key in [
            k for k, e in self._exports.items()
            if e.retired and e.inflight == 0
        ]:
            self._unlink(key)
        return results

    def _record(self, res: LaunchResult) -> None:
        self._results[res.batch_id] = res
        if res.error is None and res.wall_ms > 0.0:
            # Fold the launch's wall timing into the per-worker speed
            # books (see measured_speeds).
            total, n = self._wall_stats.get(res.worker, (0.0, 0))
            self._wall_stats[res.worker] = (total + res.wall_ms, n + 1)
        spec = self._specs.get(res.batch_id)
        if spec is None:  # pragma: no cover - unknown batch
            return
        exp = self._exports.get((spec.graph, spec.version))
        if exp is not None:
            exp.inflight = max(0, exp.inflight - 1)

    def _fail_dead_workers(self) -> None:
        for bid, wid in list(self._assigned.items()):
            if bid in self._results:
                continue
            # A batch is lost when its worker died — or when the worker
            # was revived since submission (the fresh incarnation never
            # saw the old queue's messages).
            stale = (
                self._launch_epoch.get(bid, 0) != self._worker_epoch[wid]
            )
            if stale or not self._procs[wid].is_alive():
                self._record(
                    LaunchResult(
                        batch_id=bid, worker=wid, pid=0, wall_ms=0.0,
                        columns=None,
                        error=f"worker {wid} died mid-batch",
                    )
                )

    def _fail_outstanding(self, why: str) -> None:
        for bid in list(self._specs):
            if bid not in self._results:
                self._record(
                    LaunchResult(
                        batch_id=bid, worker=-1, pid=0, wall_ms=0.0,
                        columns=None, error=why,
                    )
                )


__all__ = [
    "TIMING_HOOKS",
    "GraphPayload",
    "WorkerPool",
    "worker_main",
]
