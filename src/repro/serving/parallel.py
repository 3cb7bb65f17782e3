"""Real-parallel data plane: worker processes under the serving cluster.

The cluster (:mod:`repro.serving.cluster`) is a discrete-event *model* —
admission, placement and SLO accounting all run in modeled milliseconds
inside one Python process.  This module puts real hardware under that
model: a :class:`WorkerPool` of spawned worker processes, each pinned to
a cluster :class:`~repro.serving.events.Server` (``sid %% processes``),
executing committed batches as **real kernel launches** against B2SR
tiles and set-bit indices shared zero-copy through
:mod:`repro.formats.shm`.

Discipline (enforced by the ``worker-queue-discipline`` lint rule):

* Only picklable :class:`LaunchSpec` / :class:`LaunchResult` records
  cross the queues — never graph arrays.  Graphs travel once, by name,
  as shared-memory segments (``transport="shm"``); the deliberately
  naive ``transport="pickle"`` ships the arrays *per launch* and exists
  so ``bench_cluster.py --wallclock`` can prove zero-copy wins.
* Worker-reachable code touches no module-level mutable state, reads
  the wall clock only through the designated :func:`_wall_ms` hook, and
  never reaches host-side graph owners (`serving/cluster`,
  `serving/batcher`, `repro.graph`).
* Epoch swaps publish the new version's segments before any launch can
  reference it (attach and launch ride the same FIFO queue) and old
  segments are unlinked only after their last in-flight batch drains —
  the PR 7 epoch discipline, extended across processes.

``WorkerPool(processes=0)`` — or any platform without POSIX shared
memory — degrades to an in-process serial backend (one warning): same
specs, same execution path, no processes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.algorithms import (
    bfs,
    connected_components,
    multi_source_bfs,
    multi_source_sssp,
    sssp,
)
from repro.engines.base import Engine
from repro.engines.bit import BitEngine
from repro.formats.b2sr import B2SRMatrix
from repro.formats.shm import (
    AttachedGraph,
    ShmGraphExport,
    ShmManifest,
    attach,
    list_segments,
    shm_available,
)
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import DeviceSpec

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


# ----------------------------------------------------------------------
# Queue records — specs and results, never arrays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaunchSpec:
    """One committed batch, as it crosses the task queue.

    Carries query kind/sources/width and the graph *name + version* —
    the worker resolves those against its attached segments; graph
    arrays never ride the queue (except under the pickle strawman
    transport, where they ride next to the spec, per launch, which is
    the point being benchmarked against).
    """

    batch_id: int
    graph: str
    version: int
    kind: str
    sources: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class LaunchResult:
    """One completed launch: answer columns plus wall-clock timing."""

    batch_id: int
    sid: int
    pid: int
    wall_ms: float
    columns: np.ndarray | None
    iterations: int = 0
    error: str | None = None


@dataclass(frozen=True)
class GraphPayload:
    """Attach-time description of one exported graph version."""

    graph: str
    version: int
    n: int
    tile_dim: int
    device: DeviceSpec
    skip_inactive: bool | str
    transport: str
    manifest: ShmManifest | None
    cc_manifest: ShmManifest | None
    locality: float
    cc_locality: float


# ----------------------------------------------------------------------
# Worker-side engine over attached shared memory
# ----------------------------------------------------------------------
class ShmBitEngine(BitEngine):
    """A :class:`BitEngine` whose B2SR operand is an attached
    shared-memory view instead of a Graph-built matrix.

    Workers have no :class:`~repro.graph.Graph` — only the exported
    arrays — so this bypasses ``BitEngine.__init__`` and installs the
    attached matrix plus the exporter-computed locality directly.
    Everything else (kernel dispatch, adaptive skip, modeled stats) is
    inherited unchanged.
    """

    def __init__(
        self,
        At: B2SRMatrix,
        n: int,
        device: DeviceSpec,
        locality: float,
        skip_inactive: bool | str,
    ) -> None:
        # Engine.__init__ wants a Graph; replicate its state instead.
        self.graph = None  # type: ignore[assignment]
        self.device = device
        self.algorithm_stats = KernelStats()
        self.kernel_stats = KernelStats()
        self._iterations = 0
        self.tile_dim = At.tile_dim
        if skip_inactive not in (True, False, "auto"):
            raise ValueError(
                f"skip_inactive must be True, False or 'auto', "
                f"got {skip_inactive!r}"
            )
        self.skip_inactive = skip_inactive
        self._At = At
        self._locality = float(locality)
        self._last_frac = {}
        self._crossover_cache = {}
        self.auto_dense_rounds = 0
        self._n = int(n)

    @property
    def n(self) -> int:
        return self._n

    def tc_count(self) -> float:  # pragma: no cover - not a query kind
        raise NotImplementedError(
            "tc_count needs the source Graph; workers serve bfs/sssp/cc"
        )


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


def _engines_from_payload(
    payload: GraphPayload,
    arrays: tuple[np.ndarray, ...] | None,
    cc_arrays: tuple[np.ndarray, ...] | None,
) -> _WorkerGraph:
    """Build the worker's engines for one graph version.

    ``transport="shm"``: attach both exported segments (CRC-asserted
    bitwise-identical views, resource-tracker-unregistered).
    ``transport="pickle"``: adopt the arrays that rode the queue.
    """
    if payload.transport == "shm":
        if payload.manifest is None or payload.cc_manifest is None:
            raise ValueError("shm transport needs manifests")
        att = attach(payload.manifest, verify=True)
        cc_att = attach(payload.cc_manifest, verify=True)
        engine = ShmBitEngine(
            att.matrix, payload.n, payload.device,
            payload.locality, payload.skip_inactive,
        )
        cc_engine = ShmBitEngine(
            cc_att.matrix, payload.n, payload.device,
            payload.cc_locality, payload.skip_inactive,
        )
        return _WorkerGraph(engine, cc_engine, (att, cc_att))
    if arrays is None or cc_arrays is None:
        raise ValueError("pickle transport needs per-launch arrays")
    mats: list[B2SRMatrix] = []
    for raw in (arrays, cc_arrays):
        indptr, indices, tiles = (a.copy() for a in raw)
        for a in (indptr, indices, tiles):
            a.flags.writeable = False
        mats.append(
            B2SRMatrix.from_shared_views(
                payload.n, payload.n, payload.tile_dim,
                indptr, indices, tiles,
            )
        )
    engine = ShmBitEngine(
        mats[0], payload.n, payload.device,
        payload.locality, payload.skip_inactive,
    )
    cc_engine = ShmBitEngine(
        mats[1], payload.n, payload.device,
        payload.cc_locality, payload.skip_inactive,
    )
    return _WorkerGraph(engine, cc_engine, ())


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
def worker_main(
    wid: int, task_q: Any, result_q: Any, transport: str
) -> None:
    """Worker process entry point: attach graphs, serve launches.

    Message protocol (FIFO per worker, so an ``attach`` for a version
    always precedes any ``launch`` referencing it):

    * ``("attach", key, payload)`` — map a graph version.
    * ``("retire", key)`` — unmap a version (exporter unlinks).
    * ``("launch", spec, arrays, cc_arrays)`` — run one batch; arrays
      are ``None`` except under the pickle strawman transport.
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
            if payload.transport == "pickle":
                continue  # pickle transport attaches per launch
            try:
                graphs[key] = _engines_from_payload(payload, None, None)
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
            _, spec, payload, arrays, cc_arrays = msg
            key = (spec.graph, spec.version)
            try:
                if arrays is not None:
                    wg = _engines_from_payload(payload, arrays, cc_arrays)
                elif key in graphs:
                    wg = graphs[key]
                else:
                    raise RuntimeError(
                        attach_errors.get(
                            key, f"graph {key!r} was never attached"
                        )
                    )
                out, iters, wall = _execute_spec(
                    wg.engine, wg.cc_engine, spec
                )
                result = LaunchResult(
                    batch_id=spec.batch_id, sid=wid, pid=pid,
                    wall_ms=wall, columns=out, iterations=iters,
                )
            except Exception:
                result = LaunchResult(
                    batch_id=spec.batch_id, sid=wid, pid=pid,
                    wall_ms=0.0, columns=None,
                    error=traceback.format_exc(),
                )
            result_q.put(result)
            continue
    for wg in graphs.values():
        wg.close()


# ----------------------------------------------------------------------
# Reference answers (verification across the process boundary)
# ----------------------------------------------------------------------
def solo_reference(
    engine: Engine,
    cc_engine: Engine,
    kind: str,
    source: int | None,
    cache: dict[tuple[str, int | None], Any],
) -> tuple[np.ndarray, float]:
    """Standalone answer + modeled ms for one query, memoized exactly
    like ``QueryBatcher._verify`` (same ``(kind, source)`` keys, so the
    pool shares the entry's ``singles_cache``)."""
    key = (kind, source)
    if key not in cache:
        if kind == "bfs":
            cache[key] = bfs(engine, int(source))  # type: ignore[arg-type]
        elif kind == "sssp":
            cache[key] = sssp(engine, int(source))  # type: ignore[arg-type]
        else:
            cache[key] = connected_components(cc_engine)
    ref, rep = cache[key]
    return ref, float(rep.algorithm_ms)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class _Export:
    """Parent-side record of one published graph version."""

    payload: GraphPayload
    exports: tuple[ShmGraphExport, ...]
    arrays: tuple[np.ndarray, ...] | None
    cc_arrays: tuple[np.ndarray, ...] | None
    inflight: int = 0
    retired: bool = False


@dataclass
class _Serial:
    """In-process fallback backend: same specs, same execution path."""

    entries: dict[tuple[str, int], "GraphEntry"] = field(
        default_factory=dict
    )

    # repro-lint: ignore[modeled-time-purity] — serial fallback runs the same wall-timed launch path as the workers
    def submit(self, spec: LaunchSpec) -> LaunchResult:
        entry = self.entries[(spec.graph, spec.version)]
        try:
            out, iters, wall = _execute_spec(
                entry.engine, entry.cc_engine, spec
            )
            return LaunchResult(
                batch_id=spec.batch_id, sid=0, pid=0,
                wall_ms=wall, columns=out, iterations=iters,
            )
        except Exception:
            return LaunchResult(
                batch_id=spec.batch_id, sid=0, pid=0,
                wall_ms=0.0, columns=None,
                error=traceback.format_exc(),
            )


class WorkerPool:
    """A pool of worker processes executing cluster launches for real.

    Parameters
    ----------
    registry:
        The serving graphs; every current entry is published (exported
        to shared memory and attached by every worker) at construction,
        and epoch swaps publish new versions via :meth:`publish`.
    processes:
        Worker count.  ``0`` — or an unavailable POSIX shm layer —
        falls back to the in-process serial backend with one warning.
    transport:
        ``"shm"`` (zero-copy, default) or ``"pickle"`` (arrays ride the
        queue per launch; the bench strawman).
    timeout_s:
        Drain gives up on a batch after this long without progress.
    """

    def __init__(
        self,
        registry: "GraphRegistry",
        *,
        processes: int | None = None,
        transport: str = "shm",
        timeout_s: float = 120.0,
    ) -> None:
        if transport not in ("shm", "pickle"):
            raise ValueError(
                f"transport must be 'shm' or 'pickle', got {transport!r}"
            )
        if processes is None:
            processes = max(1, (mp.cpu_count() or 1) - 1)
        if processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        if processes > 0 and transport == "shm" and not shm_available():
            warnings.warn(
                "POSIX shared memory is unavailable; WorkerPool falls "
                "back to the in-process serial backend",
                RuntimeWarning,
                stacklevel=2,
            )
            processes = 0
        elif processes == 0:
            warnings.warn(
                "WorkerPool(processes=0): running the in-process serial "
                "backend (no worker processes)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.registry = registry
        self.processes = processes
        self.transport = transport
        self.timeout_s = float(timeout_s)
        self.backend = "serial" if processes == 0 else "process"
        self._exports: dict[tuple[str, int], _Export] = {}
        self._serial = _Serial()
        self._results: dict[int, LaunchResult] = {}
        self._assigned: dict[int, int] = {}
        self._specs: dict[int, LaunchSpec] = {}
        self._next_batch_id = 0
        self._closed = False
        self._procs: list[Any] = []
        self._task_qs: list[Any] = []
        self._result_q: Any = None
        # Fault-injection bookkeeping: each revive bumps the worker's
        # incarnation so batches queued to a dead incarnation fail at
        # drain instead of hanging; per-worker wall timings accumulate
        # into online speed factors.
        self._worker_epoch: list[int] = [0] * processes
        self._launch_epoch: dict[int, int] = {}
        self._wall_stats: dict[int, tuple[float, int]] = {}
        if self.backend == "process":
            ctx = mp.get_context("spawn")
            self._result_q = ctx.Queue()
            for wid in range(processes):
                tq = ctx.Queue()
                proc = ctx.Process(
                    target=worker_main,
                    args=(wid, tq, self._result_q, transport),
                    daemon=True,
                    name=f"repro-worker-{wid}",
                )
                proc.start()
                self._task_qs.append(tq)
                self._procs.append(proc)
        for name in registry.names:
            self.publish(registry[name])

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
        engine = entry.engine
        cc_engine = entry.cc_engine
        At = getattr(engine, "_At", None)
        cc_At = getattr(cc_engine, "_At", None)
        if self.backend == "serial" or At is None or cc_At is None:
            # Serial fallback — and non-B2SR engines, which have no
            # exportable tile arrays — execute on the entry's own
            # in-process engines.
            self._serial.entries[key] = entry
            self._exports[key] = _Export(
                payload=GraphPayload(
                    graph=entry.name, version=entry.version,
                    n=engine.n, tile_dim=getattr(engine, "tile_dim", 32),
                    device=engine.device,
                    skip_inactive=getattr(engine, "skip_inactive", True),
                    transport="serial",
                    manifest=None, cc_manifest=None,
                    locality=0.0, cc_locality=0.0,
                ),
                exports=(), arrays=None, cc_arrays=None,
            )
            return
        exports: tuple[ShmGraphExport, ...] = ()
        manifest = cc_manifest = None
        arrays = cc_arrays = None
        if self.transport == "shm":
            exp = ShmGraphExport(At)
            cc_exp = ShmGraphExport(cc_At)
            exports = (exp, cc_exp)
            manifest, cc_manifest = exp.manifest, cc_exp.manifest
        else:
            arrays = (At.indptr, At.indices, At.tiles)
            cc_arrays = (cc_At.indptr, cc_At.indices, cc_At.tiles)
        payload = GraphPayload(
            graph=entry.name, version=entry.version,
            n=engine.n, tile_dim=At.tile_dim, device=engine.device,
            skip_inactive=getattr(engine, "skip_inactive", True),
            transport=self.transport,
            manifest=manifest, cc_manifest=cc_manifest,
            locality=float(getattr(engine, "_locality", 0.0)),
            cc_locality=float(getattr(cc_engine, "_locality", 0.0)),
        )
        self._exports[key] = _Export(
            payload=payload, exports=exports,
            arrays=arrays, cc_arrays=cc_arrays,
        )
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
        self._serial.entries.pop(key, None)

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
        self._serial.entries.clear()
        for tq in self._task_qs:
            tq.close()
        if self._result_q is not None:
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

    # -- fault injection -----------------------------------------------
    def kill_worker(self, sid: int) -> bool:
        """Fault injection: SIGKILL the worker process pinned to server
        ``sid`` (``sid % processes`` — with fewer workers than servers
        the kill hits every server sharing that worker).  The dead
        worker's unanswered batches surface as ``error`` results at the
        next :meth:`drain`; live workers are unaffected.  Returns
        ``False`` on the serial backend (nothing to kill)."""
        if self.backend != "process":
            return False
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
        if self.backend != "process" or self._closed:
            return False
        wid = sid % self.processes
        if self._procs[wid].is_alive():
            return False
        ctx = mp.get_context("spawn")
        old_q = self._task_qs[wid]
        tq = ctx.Queue()
        proc = ctx.Process(
            target=worker_main,
            args=(wid, tq, self._result_q, self.transport),
            daemon=True,
            name=f"repro-worker-{wid}",
        )
        proc.start()
        self._task_qs[wid] = tq
        self._procs[wid] = proc
        self._worker_epoch[wid] += 1
        try:
            old_q.close()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        for key, exp in self._exports.items():
            if exp.payload.transport != "serial":
                tq.put(("attach", key, exp.payload))
        return True

    def worker_alive(self, sid: int) -> bool:
        """Is the worker pinned to server ``sid`` alive?  (Serial
        backend: always — launches run in-process.)"""
        if self.backend != "process":
            return True
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

    # repro-lint: ignore[modeled-time-purity] — the serial fallback executes the wall-timed launch path inline; the process backend only enqueues
    def submit(self, sid: int, spec: LaunchSpec) -> None:
        """Queue one committed batch on the worker pinned to server
        ``sid`` (serial backend: execute immediately in-process)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        key = (spec.graph, spec.version)
        exp = self._exports.get(key)
        if exp is None:
            raise KeyError(f"graph version {key!r} was never published")
        self._specs[spec.batch_id] = spec
        if self.backend == "serial":
            res = self._serial.submit(spec)
            self._results[spec.batch_id] = res
            self._note_wall(res)
            return
        exp.inflight += 1
        wid = sid % self.processes
        self._assigned[spec.batch_id] = wid
        self._launch_epoch[spec.batch_id] = self._worker_epoch[wid]
        if self.transport == "pickle":
            self._task_qs[wid].put(
                ("launch", spec, exp.payload, exp.arrays, exp.cc_arrays)
            )
        else:
            self._task_qs[wid].put(("launch", spec, None, None, None))

    @property
    def outstanding(self) -> int:
        """Batches submitted but not yet collected by :meth:`drain`."""
        return len(self._specs) - len(self._results)

    def drain(self) -> dict[int, LaunchResult]:
        """Collect every outstanding result; returns results by
        ``batch_id`` (cleared from the pool).

        A dead worker fails only its own batches (as ``error`` results)
        — live workers keep draining.  Deferred retires whose last
        in-flight batch completes here are unlinked here.
        """
        idle_polls = 0
        max_polls = max(1, int(self.timeout_s / _POLL_S))
        while self.outstanding > 0:
            if self.backend == "serial":  # pragma: no cover - defensive
                break
            try:
                res: LaunchResult = self._result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                idle_polls += 1
                self._fail_dead_workers()
                if idle_polls >= max_polls:
                    self._fail_outstanding("drain timed out")
                break_out = self.outstanding == 0
                if break_out:
                    break
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
        self._note_wall(res)
        spec = self._specs.get(res.batch_id)
        if spec is None:  # pragma: no cover - unknown batch
            return
        exp = self._exports.get((spec.graph, spec.version))
        if exp is not None:
            exp.inflight = max(0, exp.inflight - 1)

    def _note_wall(self, res: LaunchResult) -> None:
        """Fold one successful launch's wall timing into the per-worker
        speed books (see :meth:`measured_speeds`)."""
        if res.error is None and res.wall_ms > 0.0:
            total, n = self._wall_stats.get(res.sid, (0.0, 0))
            self._wall_stats[res.sid] = (total + res.wall_ms, n + 1)

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
                        batch_id=bid, sid=wid, pid=0, wall_ms=0.0,
                        columns=None,
                        error=f"worker {wid} died mid-batch",
                    )
                )

    def _fail_outstanding(self, why: str) -> None:
        for bid in list(self._specs):
            if bid not in self._results:
                self._record(
                    LaunchResult(
                        batch_id=bid, sid=-1, pid=0, wall_ms=0.0,
                        columns=None, error=why,
                    )
                )


__all__ = [
    "TIMING_HOOKS",
    "GraphPayload",
    "LaunchSpec",
    "LaunchResult",
    "ShmBitEngine",
    "WorkerPool",
    "solo_reference",
    "worker_main",
]
