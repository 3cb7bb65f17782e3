"""Sharded multi-server serving cluster.

A production front end faces *many* named graphs and more aggregate
traffic than one server can clear.  This module runs the discrete-event
core (:mod:`repro.serving.events`) over N servers; one graph on one
server (``Router(registry, n_servers=1)``) is the single-backend online
scheduler:

* :class:`GraphRegistry` — named serving graphs, each a chain of
  immutable epochs (:meth:`GraphRegistry.mutate` appends the next one as
  a copy-on-write delta).  Each epoch owns its engines, its
  :class:`~repro.serving.batcher.QueryBatcher`, its per-kind
  :class:`~repro.serving.estimator.ServiceEstimator`, and its memoized
  standalone-run cache, so every graph's service profile and
  verification state are independent.
* :class:`Router` — dispatches a cross-graph arrival stream
  (:func:`repro.serving.arrivals.multi_graph_poisson_stream`) over N
  :class:`~repro.serving.events.Server` slots.  Admission rides one of
  the :data:`~repro.serving.admission.POLICIES`; batches never mix
  graphs (the coalesced kernels answer many queries against one
  matrix), and *where* a ready batch runs is a placement policy from
  :data:`PLACEMENTS`:

  - ``"affinity"`` — graph-affinity sharding: every graph has a fixed
    home server (registration order modulo cluster size), so a shard's
    working set — bit tiles, estimator, verification cache — stays
    resident on one server;
  - ``"least-loaded"`` — global shortest-queue: a ready batch commits
    to the server with the earliest availability (ties to the least
    cumulative busy time), the any-graph-anywhere baseline;
  - ``"p2c"`` — power-of-two-choices: sample two servers with the
    router's RNG and take the less loaded — the classic randomized
    load balancer that needs no global state.
  - ``"speed-aware"`` — earliest *speed-scaled* completion: score each
    server by when it would finish this batch given its speed factor,
    so heterogeneous fleets stop treating a half-speed machine as a
    full slot.

The cluster is fault-tolerant and elastic (``serving/faults.py``):
:class:`~repro.serving.faults.FaultPlan` events crash/recover/slow
servers at modeled times, interleaved deterministically with arrivals
and epoch swaps through the same due-event cursor.  A mid-flight crash
withdraws the victim batch and re-queues it through admission with
bounded retries (its queries re-land on survivors or fail closed with a
:class:`QueryOutcome` failure reason); committed-but-unstarted batches
are stolen off dead, draining, or — with ``steal=True`` — merely
backed-up servers; an optional :class:`Autoscaler` adds or drains
servers against observed SLO attainment (drain =
stop-placing-then-finish).

Every committed batch executes one way: as a
:class:`~repro.serving.plane.LaunchSpec` handed to a
:class:`~repro.serving.plane.DataPlane` — in-process by default, or a
:class:`~repro.serving.parallel.WorkerPool` of real worker processes.
Exactness survives sharding *and* recovery: every answer, from either
plane, goes through one install, and ``verify=True`` re-runs each query
solo on its graph's engines and raises unless the clustered answer is
bitwise identical — including answers that were re-queued or
re-executed after a crash.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engines.bit import BitEngine
from repro.formats.delta import DeltaReport, apply_edge_delta, delta_b2sr, edge_diff
from repro.serving.admission import (
    AdmissionContext,
    AdmissionPolicy,
    Batch,
    resolve_policy,
)
from repro.serving.arrivals import (
    LANES,
    Arrival,
    MutationBatch,
    StreamLike,
    trace_stream,
)
from repro.serving.batcher import QueryBatcher
from repro.serving.estimator import ServiceEstimator
from repro.serving.events import EPS, EventLoop, QueryOutcome, Server
from repro.serving.faults import FaultEvent, FaultPlan
from repro.serving.plane import (
    DataPlane,
    InProcessPlane,
    LaunchResult,
    LaunchSpec,
    solo_reference,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import DeviceSpec
    from repro.graph import Graph


# ----------------------------------------------------------------------
# Graph registry
# ----------------------------------------------------------------------
@dataclass
class GraphEntry:
    """One epoch of a registered serving graph with its private serving
    state.

    ``version`` counts mutations applied since registration,
    ``graph``/``sym_graph`` retain the source graphs so the next delta
    can be applied copy-on-write, and ``delta`` records the edit that
    produced this epoch (``None`` for epoch 0).  Every epoch is fully
    immutable once built — engines, batcher, warm plans and verification
    cache all belong to the epoch, which is what lets in-flight batches
    finish on their admitted version while new arrivals see the next
    one.
    """

    name: str
    engine: BitEngine
    cc_engine: BitEngine
    batcher: QueryBatcher
    estimator: ServiceEstimator
    graph: Graph = field(repr=False)
    sym_graph: Graph = field(repr=False)
    singles_cache: dict = field(default_factory=dict)
    version: int = 0
    delta: DeltaReport | None = field(default=None, repr=False)


class GraphRegistry:
    """Named serving graphs behind one router, each an epoch chain.

    :meth:`add` registers epoch 0 of a graph; :meth:`mutate` applies an
    edge-mutation batch as a copy-on-write delta
    (:func:`repro.formats.delta.apply_edge_delta`) and appends the next
    epoch.  Only touched B2SR tiles are rebuilt, every epoch warms its
    own kernel plans *before* it becomes servable, and earlier epochs
    stay in the chain so batches admitted against them finish
    unchanged.  The lookup surface (``registry[name]``, :meth:`resolve`,
    :meth:`current_version`) answers with the newest epoch;
    :meth:`entry_for` resolves any retained one.

    ``max_batch`` is the cluster-wide coalescing cap applied to every
    entry's batcher (and the routers' mid-flight-join capacity).
    """

    #: Every registry is versioned; perfbench/ still reads this flag.
    versioned = True

    def __init__(self, *, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        # Epochs are contiguous from 0 and never dropped, so a chain is
        # indexed by version.
        self._chains: dict[str, list[GraphEntry]] = {}

    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        graph: Graph,
        *,
        device: DeviceSpec | None = None,
        tile_dim: int = 32,
    ) -> GraphEntry:
        """Register ``graph`` under ``name`` as epoch 0, on the bit
        backend (plus a symmetrized engine for graph-global CC
        queries)."""
        if not name:
            raise ValueError("serving graphs need a non-empty name")
        if name in self._chains:
            raise ValueError(f"graph {name!r} is already registered")
        entry = self._epoch(
            name, graph, graph.symmetrized(), device=device,
            tile_dim=tile_dim,
        )
        self._chains[name] = [entry]
        return entry

    def mutate(
        self,
        name: str,
        inserts: np.ndarray | None = None,
        deletes: np.ndarray | None = None,
    ) -> tuple[GraphEntry, DeltaReport]:
        """Apply an edge-mutation batch to ``name`` and install the new
        epoch.

        The delta path: patch the directed graph's cached B2SR forms
        tile-by-tile, diff-and-patch the symmetrized view the CC engine
        serves, build and warm the new epoch, then append it to the
        chain.  Everything up to the append is off the serving hot path
        — a router applying a due mutation admits the very next arrival
        against fully warm plans.  The previous epoch's learned service
        estimates carry over (the graph changed by one small delta;
        relearning from scratch would thrash the admission deadlines).
        """
        if name not in self._chains:
            raise KeyError(
                f"unknown serving graph {name!r}; registered: "
                f"{sorted(self._chains)}"
            )
        entry = self[name]
        tile_dim = entry.engine.tile_dim
        # Patch whatever B2SR forms the old epoch actually built (the
        # transposed pull operand); forms nobody cached are not
        # force-rebuilt — an engine that later needs one converts
        # lazily, exactly like epoch 0.
        new_graph, report = apply_edge_delta(entry.graph, inserts, deletes)

        # Patch the symmetrized view (what the CC engine sweeps) by
        # diffing the undirected edge sets — the symmetric closure of a
        # small delta is still small, so its B2SR patch is too.
        new_sym = new_graph.symmetrized()
        old_sym = entry.sym_graph
        if new_sym is not new_graph:
            sym_ins, sym_del = edge_diff(old_sym.csr, new_sym.csr)
            base_t = old_sym.cached_b2sr_t(tile_dim)
            if base_t is not None:
                patched, sym_stats = delta_b2sr(
                    base_t, sym_ins[:, ::-1], sym_del[:, ::-1]
                )
                new_sym.adopt_b2sr(tile_dim, mat_t=patched)
                report.forms[f"Sym_At{tile_dim}"] = sym_stats

        new_entry = self._epoch(
            name, new_graph, new_sym, device=entry.engine.device,
            tile_dim=tile_dim, version=entry.version + 1, delta=report,
        )
        new_entry.estimator.restore(entry.estimator.snapshot())
        self._chains[name].append(new_entry)
        return new_entry, report

    def _epoch(
        self,
        name: str,
        graph: Graph,
        sym: Graph,
        *,
        device: DeviceSpec | None,
        tile_dim: int,
        version: int = 0,
        delta: DeltaReport | None = None,
    ) -> GraphEntry:
        """Build one servable epoch: engines over ``graph`` and its
        symmetrized view ``sym``, its batcher and estimator, and warm
        kernel plans — the chunk tables and set-bit index its batched
        launches need are built now, not on the first query's critical
        path."""
        kwargs: dict[str, DeviceSpec] = (
            {} if device is None else {"device": device}
        )
        engine = BitEngine(graph, tile_dim=tile_dim, **kwargs)
        cc_engine = BitEngine(sym, tile_dim=tile_dim, **kwargs)
        entry = GraphEntry(
            name=name,
            engine=engine,
            cc_engine=cc_engine,
            batcher=QueryBatcher(
                engine, cc_engine=cc_engine, max_batch=self.max_batch
            ),
            estimator=ServiceEstimator(engine, cc_engine=cc_engine),
            graph=graph,
            sym_graph=sym,
            version=version,
            delta=delta,
        )
        entry.batcher.warm()
        return entry

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Registered graph names, in registration order."""
        return tuple(self._chains)

    def index(self, name: str) -> int:
        """Registration position of ``name`` (the affinity shard key)."""
        return self.names.index(name)

    def resolve(self, graph: str | None) -> str:
        """Map an arrival's graph key to a registered name.  ``None``
        resolves only when exactly one graph is registered."""
        if graph is None:
            if len(self._chains) == 1:
                return next(iter(self._chains))
            raise ValueError(
                "arrival names no graph but the registry holds "
                f"{sorted(self._chains)}; tag arrivals with a graph key"
            )
        if graph not in self._chains:
            raise ValueError(
                f"unknown serving graph {graph!r}; registered: "
                f"{sorted(self._chains)}"
            )
        return graph

    def current_version(self, name: str) -> int:
        """The serving epoch new arrivals against ``name`` are admitted
        on."""
        return len(self._chains[name]) - 1

    def versions(self, name: str) -> tuple[int, ...]:
        """Retained epoch numbers for ``name``, oldest first."""
        return tuple(e.version for e in self._chains[name])

    def entry_for(self, name: str, version: int) -> GraphEntry:
        """The entry serving ``name`` at ``version`` — any retained
        epoch, so in-flight batches resolve their admitted epoch across
        a swap."""
        chain = self._chains[name]
        if 0 <= version < len(chain):
            return chain[version]
        raise KeyError(
            f"graph {name!r} retains versions 0..{len(chain) - 1}; "
            f"version {version} is not among them"
        )

    def estimator_state(self) -> dict[str, dict[str, float]]:
        """Snapshot every graph's learned service estimates (current
        epoch), keyed by graph name (see :meth:`restore_estimator_state`)."""
        return {entry.name: entry.estimator.snapshot() for entry in self}

    def restore_estimator_state(
        self, state: dict[str, dict[str, float]]
    ) -> None:
        """Reset current epochs' estimators to a snapshot, so repeated
        runs on one registry (placement/policy comparisons) start from
        identical estimates instead of state the previous run learned."""
        for name, est in state.items():
            self[name].estimator.restore(est)

    def __getitem__(self, name: str) -> GraphEntry:
        return self._chains[name][-1]

    def __contains__(self, name: str) -> bool:
        return name in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def __iter__(self) -> Iterator[GraphEntry]:
        return (chain[-1] for chain in self._chains.values())


#: Former name of the versioned registry; perfbench/ still imports it.
GraphStore = GraphRegistry


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
#: Decide which server a ready batch runs on.  Called once per batch,
#: the first time the batch is dispatchable; the returned server becomes
#: the batch's commitment (it launches when that server frees).
#: Placements are stateless — randomized ones draw from the router's
#: per-run RNG.
PlacementPolicy = Callable[
    [Batch, list[Server], GraphRegistry, np.random.Generator], Server
]


def _affinity(
    batch: Batch, servers: list[Server], registry: GraphRegistry,
    rng: np.random.Generator,
) -> Server:
    """Graph-affinity sharding: a fixed home server per graph."""
    return servers[registry.index(batch.graph) % len(servers)]


def _least_loaded(
    batch: Batch, servers: list[Server], registry: GraphRegistry,
    rng: np.random.Generator,
) -> Server:
    """Commit to the earliest-available server (global knowledge)."""
    return min(servers, key=lambda s: (s.free_at, s.busy_ms, s.sid))


def _power_of_two(
    batch: Batch, servers: list[Server], registry: GraphRegistry,
    rng: np.random.Generator,
) -> Server:
    """Sample two servers, take the less loaded (no global state)."""
    if len(servers) == 1:
        return servers[0]
    picks = rng.choice(len(servers), size=2, replace=False)
    return min(
        (servers[int(i)] for i in picks),
        key=lambda s: (s.free_at, s.busy_ms, s.sid),
    )


def _speed_aware(
    batch: Batch, servers: list[Server], registry: GraphRegistry,
    rng: np.random.Generator,
) -> Server:
    """Earliest speed-scaled completion: score each candidate by when
    it would *finish* this batch — current availability plus the
    batch's service estimate divided by the server's speed factor — so
    a fast server keeps winning placements even while a slow one idles.
    On a homogeneous fleet this degenerates to least-loaded."""
    entry = registry.entry_for(batch.graph, batch.version)
    est = entry.estimator.estimate_ms(batch.kind, len(batch.members))
    return min(
        servers,
        key=lambda s: (s.free_at + est / s.speed, s.busy_ms, s.sid),
    )


#: Placement policies, by name.
PLACEMENTS: dict[str, PlacementPolicy] = {
    "affinity": _affinity,
    "least-loaded": _least_loaded,
    "p2c": _power_of_two,
    "speed-aware": _speed_aware,
}


def resolve_placement(placement: str) -> PlacementPolicy:
    """Look up a placement by name."""
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; valid: {sorted(PLACEMENTS)}"
        )
    return PLACEMENTS[placement]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SwapRecord:
    """One applied epoch swap during a routed run."""

    time_ms: float
    graph: str
    version: int
    inserts: int
    deletes: int
    rebuilt_fraction: float


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault event: what hit which server, and what the
    crash cost (members re-queued / failed closed at that instant)."""

    time_ms: float
    kind: str
    sid: int
    speed: float = 1.0
    requeued: int = 0
    failed_queries: int = 0


@dataclass(frozen=True)
class StealRecord:
    """One committed-but-unstarted batch moved to another server."""

    time_ms: float
    graph: str
    kind: str
    width: int
    from_sid: int
    to_sid: int
    reason: str  # "down" | "draining" | "backed-up"


@dataclass(frozen=True)
class ScaleRecord:
    """One autoscaler action against observed attainment."""

    time_ms: float
    action: str  # "add" | "drain" | "drained"
    sid: int
    attainment: float
    n_available: int


@dataclass(frozen=True)
class Autoscaler:
    """Attainment-driven elasticity policy for :meth:`Router.run`.

    Every ``interval_ms`` of modeled time the router looks at the SLO
    attainment of the last ``window`` finished queries: below
    ``upscale_below`` it adds a server (preferring to re-activate a
    drained one), at or above ``drain_above`` it marks the
    highest-numbered available server *draining* — it finishes its
    in-flight launch, receives no new placements, and counts as down
    once idle (stop-placing-then-finish).  The fleet never shrinks
    below ``min_servers`` available nor grows above ``max_servers``.
    The policy object is immutable; all scaling state lives in the
    run's controller, so one instance is reusable across runs.
    """

    min_servers: int = 1
    max_servers: int = 8
    interval_ms: float = 5.0
    upscale_below: float = 0.90
    drain_above: float = 0.995
    window: int = 24

    def validate(self) -> None:
        if self.min_servers < 1:
            raise ValueError("autoscaler min_servers must be >= 1")
        if self.max_servers < self.min_servers:
            raise ValueError(
                "autoscaler max_servers must be >= min_servers"
            )
        if not self.interval_ms > 0.0:
            raise ValueError("autoscaler interval_ms must be > 0")
        if not 0.0 <= self.upscale_below <= 1.0:
            raise ValueError("autoscaler upscale_below must be in [0, 1]")
        if not 0.0 <= self.drain_above <= 1.0:
            raise ValueError("autoscaler drain_above must be in [0, 1]")
        if self.upscale_below > self.drain_above:
            raise ValueError(
                "autoscaler upscale_below must not exceed drain_above "
                "(the policy would add and drain at once)"
            )
        if self.window < 1:
            raise ValueError("autoscaler window must be >= 1")


@dataclass
class ClusterReport:
    """Aggregate accounting for one simulated stream on one cluster."""

    policy: str
    placement: str
    n_servers: int
    served: int
    batches: int
    joins: int
    mean_batch_width: float
    slo_attainment: float
    lane_attainment: dict[str, float]
    graph_attainment: dict[str, float]
    mean_queue_ms: float
    p95_queue_ms: float
    mean_service_ms: float
    mean_latency_ms: float
    makespan_ms: float
    busy_ms: float
    server_busy_ms: list[float]
    server_launches: list[int]
    verified: bool = False
    swaps: int = 0
    failed: int = 0
    requeues: int = 0
    steals: int = 0
    scale_events: int = 0
    faults: int = 0
    server_speed: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Cluster busy fraction: total busy over N × the horizon."""
        denom = self.n_servers * self.makespan_ms
        return self.busy_ms / denom if denom else 0.0

    @property
    def speed_utilization(self) -> float:
        """Speed-normalized busy fraction: each server's busy time is
        weighted by its speed factor (what it actually processed, in
        speed-1 service units) over the fleet's speed-weighted
        capacity.  Equals :attr:`utilization` on a homogeneous fleet;
        on a heterogeneous one it stops a busy half-speed machine from
        masquerading as a fully-used full slot."""
        if not self.server_speed or not self.makespan_ms:
            return self.utilization
        capacity = sum(self.server_speed) * self.makespan_ms
        work = sum(
            busy * speed
            for busy, speed in zip(
                self.server_busy_ms, self.server_speed, strict=True
            )
        )
        return work / capacity if capacity else 0.0

    @property
    def imbalance(self) -> float:
        """Max server busy time over the mean (1.0 = perfectly even)."""
        mean = self.busy_ms / self.n_servers if self.n_servers else 0.0
        return max(self.server_busy_ms) / mean if mean else 0.0


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
def _spec_row(spec: LaunchSpec, **fields: Any) -> dict[str, Any]:
    """One ``extra["data_plane"]`` row: the launch plus ``fields``."""
    return {
        "batch_id": spec.batch_id,
        "graph": spec.graph,
        "version": spec.version,
        "kind": spec.kind,
        "width": spec.width,
        **fields,
    }


class _RouterController:
    """Per-run scheduling state: admission via the policy, placement
    commitments, launches through the data plane."""

    def __init__(
        self,
        router: Router,
        servers: list[Server],
        policy: AdmissionPolicy,
        placement: PlacementPolicy,
        rng: np.random.Generator,
        verify: bool,
        mutations: list[MutationBatch] | None,
        plane: DataPlane,
        faults: FaultPlan | None = None,
        autoscaler: Autoscaler | None = None,
        steal: bool = False,
        max_requeues: int = 2,
    ) -> None:
        self.router = router
        self.registry = router.registry
        self.servers = servers
        self.policy = policy
        self.placement = placement
        self.rng = rng
        self.verify = verify
        self.plane = plane
        # Launches the plane answers only at drain, with the server each
        # was submitted to.
        self.deferred: list[tuple[LaunchSpec, Batch, int]] = []
        self.ctx = AdmissionContext(
            max_batch=self.registry.max_batch,
            slack_factor=router.slack_factor,
            estimate=lambda b: self.registry.entry_for(b.graph, b.version)
            .estimator.estimate_ms(b.kind, len(b.members)),
            n_servers=len(servers),
            version_of=self.registry.current_version,
        )
        self.open_batches: list[Batch] = []
        self.outcomes: dict[int, QueryOutcome] = {}
        self.widths: list[int] = []
        self.joins = 0
        self.mutations = sorted(
            mutations or [], key=lambda m: m.time_ms
        )
        self._next_mutation = 0
        self.swaps: list[SwapRecord] = []
        # Fault injection + recovery bookkeeping.
        self.fault_events: list[FaultEvent] = (
            faults.sorted_events() if faults is not None else []
        )
        self._next_fault = 0
        self.fault_records: list[FaultRecord] = []
        self.steal = steal
        self.steal_records: list[StealRecord] = []
        self.max_requeues = max_requeues
        self.requeues = 0
        # sid -> (batch, batch id) for the launch occupying that
        # server; entries go stale once the launch finishes (the crash
        # path checks free_at before trusting one).
        self.inflight: dict[int, tuple[Batch, int]] = {}
        # Launches whose modeled server crashed mid-flight: a deferred
        # result for one of them (if a worker even produced it) is
        # never installed.
        self.aborted: set[int] = set()
        self._crashed_sids: set[int] = set()
        # Elasticity.
        self.autoscaler = autoscaler
        self.scale_records: list[ScaleRecord] = []
        self._next_scale = (
            autoscaler.interval_ms if autoscaler is not None else math.inf
        )

    # -- epoch swaps ---------------------------------------------------
    def _apply_due_mutations(self, now: float) -> None:
        """Apply every mutation whose time has been crossed.  Called on
        entry to both event hooks, so an arrival landing exactly at the
        swap instant is admitted against the new epoch while batches
        already open stay pinned to theirs."""
        while (
            self._next_mutation < len(self.mutations)
            and self.mutations[self._next_mutation].time_ms <= now + EPS
        ):
            mut = self.mutations[self._next_mutation]
            self._next_mutation += 1
            entry, report = self.registry.mutate(
                mut.graph, mut.inserts, mut.deletes
            )
            # Publish the new epoch *before* any launch can reference
            # it, then schedule the old epoch's release — deferred until
            # its last in-flight batch drains.
            self.plane.publish(entry)
            self.plane.retire(mut.graph, entry.version - 1)
            self.swaps.append(
                SwapRecord(
                    time_ms=mut.time_ms,
                    graph=mut.graph,
                    version=entry.version,
                    inserts=report.n_inserts,
                    deletes=report.n_deletes,
                    rebuilt_fraction=report.rebuilt_fraction,
                )
            )

    # -- fault injection + recovery ------------------------------------
    def _apply_due_faults(self, now: float) -> None:
        """Replay every fault event whose time has been crossed — the
        same cursor pattern as epoch swaps, so crashes interleave
        deterministically with arrivals, launches, and mutations."""
        while (
            self._next_fault < len(self.fault_events)
            and self.fault_events[self._next_fault].time_ms <= now + EPS
        ):
            ev = self.fault_events[self._next_fault]
            self._next_fault += 1
            server = self.servers[ev.sid] if ev.sid < len(self.servers) else None
            if server is None:
                # The plan addressed a server the fleet never grew to
                # (possible when elasticity decides the fleet size).
                self.fault_records.append(
                    FaultRecord(
                        time_ms=ev.time_ms, kind=f"skipped-{ev.kind}",
                        sid=ev.sid, speed=ev.speed,
                    )
                )
                continue
            if ev.kind == "crash":
                self._apply_crash(ev, server, now)
            elif ev.kind == "recover":
                if not server.up:
                    server.recover(now)
                    self._crashed_sids.discard(server.sid)
                    self.plane.revive_worker(server.sid)
                self.fault_records.append(
                    FaultRecord(
                        time_ms=ev.time_ms, kind="recover", sid=ev.sid,
                        speed=server.speed,
                    )
                )
                self._refresh_capacity()
            else:  # "slow": new speed applies to launches started after now
                server.speed = ev.speed
                self.fault_records.append(
                    FaultRecord(
                        time_ms=ev.time_ms, kind="slow", sid=ev.sid,
                        speed=ev.speed,
                    )
                )

    def _apply_crash(
        self, ev: FaultEvent, server: Server, now: float
    ) -> None:
        """Take a server down: abort and re-queue its in-flight batch
        (bounded retries), leave its committed-but-unstarted batches for
        the dispatch loop to steal onto survivors."""
        requeued = failed = 0
        if server.up:
            # Kill the pinned worker (if the plane has one) at the same
            # modeled instant, so the modeled and real failure sets agree.
            self.plane.kill_worker(server.sid)
            was_busy = not server.idle(now)
            server.crash(now)
            self._crashed_sids.add(server.sid)
            if was_busy:
                requeued, failed = self._requeue_inflight(server.sid, now)
        self.fault_records.append(
            FaultRecord(
                time_ms=ev.time_ms, kind="crash", sid=ev.sid,
                requeued=requeued, failed_queries=failed,
            )
        )
        self._refresh_capacity()

    def _requeue_inflight(self, sid: int, now: float) -> tuple[int, int]:
        """Withdraw the crashed server's in-flight batch and re-queue it
        through admission, still pinned to its admitted version (the
        re-landed launch flows through the same ``verify=`` flush as any
        other).  Past the retry budget its queries fail closed instead.
        Returns ``(members re-queued, members failed)``."""
        entry = self.inflight.pop(sid, None)
        if entry is None:
            return 0, 0
        batch, batch_id = entry
        self.aborted.add(batch_id)
        # Withdraw the outcomes the launch recorded: the answers this
        # server was computing died with it.
        for seq, _ in batch.members:
            self.outcomes.pop(seq, None)
        batch.retries += 1
        width = len(batch.members)
        if batch.retries > self.max_requeues:
            self._fail_closed(
                batch,
                f"server {sid} crashed mid-flight; retry budget "
                f"({self.max_requeues}) exhausted",
                sid, now, now, batch.retries,
            )
            return 0, width
        batch.sid = None
        batch.launch_at = now
        self.open_batches.append(batch)
        self.requeues += 1
        self.policy.refresh(self.open_batches, self.ctx)
        return width, 0

    def _write_outcomes(
        self, batch: Batch, sid: int, launch_ms: float, finish_ms: float,
        retries: int, failure: str | None = None,
    ) -> None:
        """Write every member's outcome without an answer: a launch's
        placeholder (its install fills in the answer) or, with
        ``failure``, the query failed closed."""
        width = len(batch.members)
        for seq, a in batch.members:
            self.outcomes[seq] = QueryOutcome(
                arrival=a,
                result=None,
                launch_ms=launch_ms,
                finish_ms=finish_ms,
                batch_width=width,
                joined=width > 1,
                server=sid,
                version=batch.version,
                failure=failure,
                retries=retries,
            )

    def _fail_closed(
        self, batch: Batch, reason: str, sid: int, launch_ms: float,
        finish_ms: float, retries: int,
    ) -> None:
        """Fail every member of ``batch`` closed with ``reason`` — the
        one writer of failed outcomes."""
        self._write_outcomes(
            batch, sid, launch_ms, finish_ms, retries, failure=reason
        )

    def _refresh_capacity(self) -> None:
        """Re-point admission's contention reserve at the surviving
        fleet size after any availability change."""
        n_available = sum(1 for s in self.servers if s.available)
        if max(1, n_available) != self.ctx.n_servers:
            self.ctx = dataclasses.replace(
                self.ctx, n_servers=max(1, n_available)
            )
            self.policy.refresh(self.open_batches, self.ctx)

    def finalize(self, now: float) -> None:
        """Fail closed whatever the loop could not serve (no surviving
        capacity and no recovery event left) — every query in the
        stream gets an outcome, served or not."""
        for batch in list(self.open_batches):
            self._fail_closed(
                batch,
                "stranded: no available server and no recovery scheduled",
                batch.sid if batch.sid is not None else -1,
                now, now, batch.retries,
            )
        self.open_batches.clear()

    # -- elasticity ----------------------------------------------------
    def _recent_attainment(self, now: float) -> float | None:
        """SLO attainment over the last ``window`` queries finished by
        ``now`` (``None`` until anything finished)."""
        assert self.autoscaler is not None
        done = sorted(
            (o.finish_ms, bool(o.slo_met))
            for o in self.outcomes.values()
            if o.finish_ms <= now + EPS
        )
        if not done:
            return None
        recent = done[-self.autoscaler.window:]
        return float(np.mean([ok for _, ok in recent]))

    def _autoscale(self, now: float) -> None:
        scaler = self.autoscaler
        if scaler is None:
            return
        # Drain completion: a draining server that went idle is done.
        for s in self.servers:
            if s.draining and s.up and s.idle(now):
                s.up = False
                s.draining = False
                self.scale_records.append(
                    ScaleRecord(
                        time_ms=now, action="drained", sid=s.sid,
                        attainment=self._recent_attainment(now) or 0.0,
                        n_available=sum(
                            1 for x in self.servers if x.available
                        ),
                    )
                )
        if now + EPS < self._next_scale:
            return
        while self._next_scale <= now + EPS:
            self._next_scale += scaler.interval_ms
        attainment = self._recent_attainment(now)
        if attainment is None:
            return
        n_available = sum(1 for s in self.servers if s.available)
        if attainment < scaler.upscale_below:
            if n_available < scaler.max_servers:
                sid = self._add_server(now)
                self.scale_records.append(
                    ScaleRecord(
                        time_ms=now, action="add", sid=sid,
                        attainment=attainment,
                        n_available=n_available + 1,
                    )
                )
        elif attainment >= scaler.drain_above:
            if n_available > scaler.min_servers:
                victim = max(
                    (s for s in self.servers if s.available),
                    key=lambda s: s.sid,
                )
                victim.draining = True
                self.scale_records.append(
                    ScaleRecord(
                        time_ms=now, action="drain", sid=victim.sid,
                        attainment=attainment,
                        n_available=n_available - 1,
                    )
                )
                self._refresh_capacity()

    def _add_server(self, now: float) -> int:
        """Grow capacity: re-activate a drained server if one exists
        (crashed ones stay dead — recovery is the fault plan's call),
        else append a brand-new one."""
        for s in self.servers:
            if not s.up and s.sid not in self._crashed_sids:
                s.recover(now)
                self._refresh_capacity()
                return s.sid
        s = Server(sid=len(self.servers), free_at=now)
        self.servers.append(s)
        self._refresh_capacity()
        return s.sid

    # -- EventLoop controller hooks ------------------------------------
    def on_arrival(self, now: float, seq: int, arrival: Arrival) -> None:
        self._apply_due_faults(now)
        self._apply_due_mutations(now)
        self.joins += self.policy.admit(
            arrival, seq, arrival.graph, self.open_batches, self.ctx
        )

    def has_pending(self) -> bool:
        return (
            bool(self.open_batches)
            or self._next_mutation < len(self.mutations)
            or self._next_fault < len(self.fault_events)
        )

    def next_timer(self, now: float) -> float:
        timer = min(
            (
                b.launch_at for b in self.open_batches
                if b.launch_at > now + EPS
            ),
            default=math.inf,
        )
        if self._next_mutation < len(self.mutations):
            nxt = self.mutations[self._next_mutation].time_ms
            if nxt > now + EPS:
                timer = min(timer, nxt)
        if self._next_fault < len(self.fault_events):
            nxt = self.fault_events[self._next_fault].time_ms
            if nxt > now + EPS:
                timer = min(timer, nxt)
        if (
            self.autoscaler is not None
            and self._next_scale > now + EPS
            and (
                self.open_batches
                or any(s.free_at > now + EPS for s in self.servers)
            )
        ):
            # Keep ticking only while work is queued or in flight, so
            # an idle tail cannot spin the loop forever.
            timer = min(timer, self._next_scale)
        return timer

    def dispatch(self, now: float) -> bool:
        """Launch the most overdue ready batch whose placed server is
        idle; returns ``True`` when a launch happened.  Placement only
        considers available (up, not draining) servers; committed
        batches are stolen off servers that died or started draining —
        and, with stealing enabled, off backed-up servers while another
        sits idle."""
        self._apply_due_faults(now)
        self._apply_due_mutations(now)
        self._autoscale(now)
        ready = [
            b for b in self.open_batches if b.launch_at <= now + EPS
        ]
        ready.sort(
            key=lambda b: (b.launch_at, b.lane != "urgent", b.created_ms)
        )
        available = [s for s in self.servers if s.available]
        for batch in ready:
            stolen_from: int | None = None
            reason = ""
            if batch.sid is not None:
                committed = self.servers[batch.sid]
                if not committed.available:
                    stolen_from = batch.sid
                    reason = "down" if not committed.up else "draining"
                    batch.sid = None
                elif (
                    self.steal
                    and not committed.idle(now)
                    and any(
                        s.idle(now) and s.sid != batch.sid
                        for s in available
                    )
                ):
                    stolen_from = batch.sid
                    reason = "backed-up"
                    batch.sid = None
            if batch.sid is None:
                if not available:
                    continue  # stranded until recovery (or finalize)
                candidates = available
                if reason == "backed-up":
                    candidates = [s for s in available if s.idle(now)]
                batch.sid = self.placement(
                    batch, candidates, self.registry, self.rng
                ).sid
                if stolen_from is not None and batch.sid != stolen_from:
                    self.steal_records.append(
                        StealRecord(
                            time_ms=now,
                            graph=batch.graph,
                            kind=batch.kind,
                            width=len(batch.members),
                            from_sid=stolen_from,
                            to_sid=batch.sid,
                            reason=reason,
                        )
                    )
            server = self.servers[batch.sid]
            if not server.available or not server.idle(now):
                continue
            self.joins += self.policy.absorb(
                batch, self.open_batches, self.ctx
            )
            self.open_batches.remove(batch)
            service = self._launch(batch, now, server)
            self.widths.append(len(batch.members))
            server.start(now, service)
            # The launch changed the backlog (and the estimator):
            # remaining batches may now afford to wait longer.
            self.policy.refresh(self.open_batches, self.ctx)
            return True
        return False

    # -- launches and results ------------------------------------------
    def _launch(self, batch: Batch, now: float, server: Server) -> float:
        """Hand the batch to the data plane as one launch and record
        every member's outcome; returns the modeled service ms booked.

        A finished result (the in-process plane) books its modeled time,
        feeds the estimator and installs at once.  A deferred one (a
        worker process) books the service estimate and installs after
        the loop drains the plane (:meth:`collect`).  The batch resolves
        the epoch it was *admitted* against — a swap between admission
        and launch never changes what a query answers over."""
        entry = self.registry.entry_for(batch.graph, batch.version)
        width = len(batch.members)
        spec = LaunchSpec(
            batch_id=self.plane.next_batch_id(),
            graph=batch.graph,
            version=batch.version,
            kind=batch.kind,
            sources=tuple(
                int(a.source)
                for _, a in batch.members
                if a.source is not None
            ),
            width=width,
        )
        result = self.plane.submit(server.sid, spec)
        if result is None:
            service = entry.estimator.estimate_ms(batch.kind, width)
            self.deferred.append((spec, batch, server.sid))
        else:
            service = result.modeled_ms
            entry.estimator.observe(batch.kind, width, service)
        # The estimator's books stay in speed-1 units; this server's
        # speed factor scales the occupancy (Server.start agrees).
        self._write_outcomes(
            batch, server.sid, now, now + service / server.speed,
            batch.retries,
        )
        if result is not None:
            self._install(
                spec, batch, result, server.sid, batch.retries,
                verify=self.verify,
            )
        self.inflight[server.sid] = (batch, spec.batch_id)
        return service

    def _install(
        self, spec: LaunchSpec, batch: Batch, res: LaunchResult, sid: int,
        retries: int, *, verify: bool,
    ) -> None:
        """Install one launch's answers into its members' outcomes,
        naming ``sid`` (the server the router submitted the launch to)
        as their server.  With ``verify`` each answer must be bitwise
        identical to its standalone run, memoized in the entry's
        ``singles_cache``."""
        entry = self.registry.entry_for(batch.graph, batch.version)
        cols = res.columns
        assert cols is not None, f"launch {spec.batch_id} has no answers"
        for j, (seq, a) in enumerate(batch.members):
            outcome = self.outcomes[seq]
            got = cols.copy() if spec.kind == "cc" else cols[:, j].copy()
            outcome.result = got
            outcome.server = sid
            outcome.retries = max(outcome.retries, retries)
            if verify:
                ref, solo = solo_reference(
                    entry.engine, entry.cc_engine,
                    a.kind, a.source, entry.singles_cache,
                )
                assert np.array_equal(got, ref, equal_nan=True), (
                    f"{a.kind} answer for arrival {seq} is not bitwise "
                    "identical to its standalone run"
                )
                outcome.baseline_ms = float(solo.algorithm_ms)

    def collect(self) -> dict[str, Any] | None:
        """Drain the data plane and install every deferred launch.

        Launches whose modeled server crashed were re-queued or failed
        closed by the event loop and are skipped.  A launch a *real*
        worker death lost re-executes on a surviving server within the
        same retry budget, then fails closed.  Returns the
        ``extra["data_plane"]`` payload, or ``None`` for a plane
        without per-launch rows."""
        results = self.plane.drain()
        rows: list[dict[str, Any]] = []
        failed_rows: list[dict[str, Any]] = []
        reexecutions = 0
        work = [
            (spec, batch, sid, 0)
            for spec, batch, sid in self.deferred
            if spec.batch_id not in self.aborted
        ]
        while work:
            retry: list[tuple[LaunchSpec, Batch, int, int]] = []
            for spec, batch, sid, tries in work:
                res = results.get(spec.batch_id)
                if (
                    res is not None
                    and res.error is None
                    and res.columns is not None
                ):
                    self._install(
                        spec, batch, res, sid, tries, verify=self.verify
                    )
                    rows.append(
                        _spec_row(
                            spec, sid=sid, worker=res.worker, pid=res.pid,
                            wall_ms=res.wall_ms, iterations=res.iterations,
                            retries=tries,
                        )
                    )
                    continue
                why = res.error if res is not None else "no result"
                if tries < self.max_requeues:
                    moved = self._reexecute_lost(spec)
                    if moved is not None:
                        reexecutions += 1
                        new_spec, new_sid = moved
                        retry.append((new_spec, batch, new_sid, tries + 1))
                        continue
                    why = f"{why}; no surviving worker to re-execute on"
                first = self.outcomes[batch.members[0][0]]
                self._fail_closed(
                    batch,
                    f"data plane lost batch {spec.batch_id} ({spec.kind} "
                    f"on {spec.graph!r} v{spec.version}): {why}",
                    sid, first.launch_ms, first.finish_ms,
                    max(batch.retries, tries),
                )
                failed_rows.append(
                    _spec_row(spec, error=str(why), retries=tries)
                )
            if retry:
                # Wait out the re-executed launches before re-checking.
                results.update(self.plane.drain())
            work = retry
        facts = self.plane.describe()
        if facts is None:
            return None
        return {
            **facts,
            "launches": rows,
            "failed": failed_rows,
            "reexecutions": reexecutions,
            "wall_ms_total": float(sum(r["wall_ms"] for r in rows)),
        }

    def _reexecute_lost(
        self, spec: LaunchSpec
    ) -> tuple[LaunchSpec, int] | None:
        """Re-submit a launch a dead worker lost onto the least busy
        surviving server.  Returns the new spec and that server, or
        ``None`` when no live worker remains."""
        survivors = [
            s for s in self.servers
            if s.up and self.plane.worker_alive(s.sid)
        ]
        if not survivors:
            return None
        target = min(survivors, key=lambda s: (s.busy_ms, s.sid))
        # The drain that reported the loss released any retired epoch
        # with nothing left in flight: publish the launch's epoch again
        # (a no-op while it is live) and re-retire it behind the launch.
        self.plane.publish(self.registry.entry_for(spec.graph, spec.version))
        new = dataclasses.replace(spec, batch_id=self.plane.next_batch_id())
        self.plane.submit(target.sid, new)
        if spec.version != self.registry.current_version(spec.graph):
            self.plane.retire(spec.graph, spec.version)
        return new, target.sid


class Router:
    """Dispatch cross-graph arrival streams across a server pool.

    Parameters
    ----------
    registry:
        The named serving graphs (each with its own batcher/estimator).
    n_servers:
        Cluster size — how many launches can be in flight at once.
    slack_factor:
        Safety multiplier on service estimates when computing bulk
        launch deadlines; > 1 hedges estimate error.
    placement:
        Default placement policy name (any :data:`PLACEMENTS` key).
    seed:
        Seeds the per-run RNG randomized placements draw from.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        *,
        n_servers: int = 2,
        slack_factor: float = 1.5,
        placement: str = "affinity",
        seed: int = 0,
    ) -> None:
        if len(registry) == 0:
            raise ValueError("the registry has no serving graphs")
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if not slack_factor >= 1.0:
            raise ValueError(
                f"slack_factor must be >= 1.0, got {slack_factor}"
            )
        self.registry = registry
        self.n_servers = n_servers
        self.slack_factor = slack_factor
        resolve_placement(placement)  # an unknown name fails here
        self.placement = placement
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: StreamLike,
        *,
        policy: str = "slo",
        placement: str | None = None,
        verify: bool = False,
        mutations: list[MutationBatch] | None = None,
        data_plane: DataPlane | None = None,
        faults: FaultPlan | None = None,
        speeds: dict[int, float] | None = None,
        autoscaler: Autoscaler | None = None,
        steal: bool = False,
        max_requeues: int = 2,
    ) -> tuple[list[QueryOutcome], ClusterReport]:
        """Simulate serving ``arrivals`` on the cluster.

        Returns the outcomes in arrival-stream order plus the aggregate
        report.  With ``verify=True`` every launch re-runs its queries
        standalone through the owning graph's verification path and
        raises on any non-bitwise-identical answer.

        Every committed batch executes through ``data_plane`` (see
        :mod:`repro.serving.plane`).  The default in-process plane
        serves each launch at once and books its modeled time.  A
        :class:`~repro.serving.parallel.WorkerPool` runs each launch on
        the worker pinned to its placed server, books the service
        estimate, installs the answers once the loop drains the pool,
        and reports per-launch wall-clock rows in
        ``report.extra["data_plane"]``.

        ``mutations`` interleaves timestamped edge-mutation batches with
        the arrival stream: each one swaps the target graph's serving
        epoch at its timestamp — batches already open finish on the
        epoch they were admitted against, arrivals from the swap instant
        on are served on the new one, and no batch ever mixes epochs.
        The applied swaps land in ``report.extra["swaps"]``.

        ``faults`` replays a :class:`~repro.serving.faults.FaultPlan`
        against the fleet (crash / recover / slow at modeled times; in
        real mode a crash SIGKILLs the pinned worker).  ``speeds`` sets
        initial per-server speed factors, keyed by sid; ``autoscaler``
        enables elasticity;
        ``steal`` additionally re-places committed batches off merely
        backed-up servers (dead/draining servers are always stolen
        from); ``max_requeues`` bounds crash-driven re-queues per batch
        before its queries fail closed.  Fault, steal, and scale records
        land in ``report.extra``.
        """
        pol = resolve_policy(policy)
        placement = self.placement if placement is None else placement
        placer = resolve_placement(placement)
        muts: list[MutationBatch] = list(mutations or [])
        for m in muts:
            m.validate()
            self.registry.resolve(m.graph)
        if autoscaler is not None:
            autoscaler.validate()
        if faults is not None:
            max_sids = self.n_servers if autoscaler is None else max(
                self.n_servers, autoscaler.max_servers
            )
            faults.validate(max_sids)
        if max_requeues < 0:
            raise ValueError(
                f"max_requeues must be >= 0, got {max_requeues}"
            )
        stream = self._normalize(arrivals)
        servers = [Server(sid) for sid in range(self.n_servers)]
        for sid, factor in self._normalize_speeds(speeds).items():
            servers[sid].speed = factor
        plane: DataPlane = (
            InProcessPlane(self.registry) if data_plane is None
            else data_plane
        )
        controller = _RouterController(
            self, servers, pol, placer,
            np.random.default_rng(self.seed), verify, muts,
            plane, faults, autoscaler, steal, max_requeues,
        )
        end = EventLoop(servers).run(stream, controller)
        controller.finalize(end)
        plane_extra = controller.collect()
        ordered = [controller.outcomes[j] for j in range(len(stream))]
        report = self._report(
            pol.name, placement, ordered, controller, servers, verify
        )
        if plane_extra is not None:
            report.extra["data_plane"] = plane_extra
        return ordered, report

    def _normalize_speeds(
        self, speeds: dict[int, float] | None
    ) -> dict[int, float]:
        """Validate a speed config against the fleet size."""
        if speeds is None:
            return {}
        for sid, factor in speeds.items():
            if not 0 <= sid < self.n_servers:
                raise ValueError(
                    f"speed config names server {sid}; fleet has "
                    f"sids 0..{self.n_servers - 1}"
                )
            if not (math.isfinite(factor) and factor > 0.0):
                raise ValueError(
                    f"speed factor for server {sid} must be finite and "
                    f"> 0, got {factor}"
                )
        return {sid: float(f) for sid, f in speeds.items()}

    def compare_placements(
        self,
        arrivals: StreamLike,
        *,
        policy: str = "slo",
        verify: bool = False,
        placements: list[str] | None = None,
    ) -> dict[str, tuple[list[QueryOutcome], ClusterReport]]:
        """Run every registered placement on one stream, keyed by name
        (or just ``placements``, in the given order).

        Estimator-state hygiene: each candidate run snapshots the
        registry's learned service estimates and restores them after, so
        no placement is scored with EWMAs warmed by an earlier candidate
        — the reported cells are identical whatever the comparison
        order — and the registry leaves the comparison exactly as it
        entered it.
        """
        names = list(PLACEMENTS) if placements is None else list(placements)
        results: dict[str, tuple[list[QueryOutcome], ClusterReport]] = {}
        for name in names:
            base = self.registry.estimator_state()
            try:
                results[name] = self.run(
                    arrivals, policy=policy, placement=name, verify=verify
                )
            finally:
                self.registry.restore_estimator_state(base)
        return results

    # ------------------------------------------------------------------
    def _normalize(self, arrivals: StreamLike) -> list[Arrival]:
        """Validate and time-sort the stream, resolving every arrival's
        graph key against the registry (and its source against that
        graph's vertex count)."""
        out: list[Arrival] = []
        for a in trace_stream(arrivals):
            name = self.registry.resolve(a.graph)
            a = (
                a if a.graph == name
                else dataclasses.replace(a, graph=name)
            )
            a.validate(self.registry[name].engine.n)
            out.append(a)
        return out

    def _report(
        self,
        policy: str,
        placement: str,
        outcomes: list[QueryOutcome],
        controller: _RouterController,
        servers: list[Server],
        verified: bool,
    ) -> ClusterReport:
        def mean(values: list, empty: float = 0.0) -> float:
            return float(np.mean(values)) if values else empty

        queue = [o.queue_ms for o in outcomes]
        lane_attainment: dict[str, float] = {}
        for lane in LANES:
            hits = [o.slo_met for o in outcomes if o.arrival.lane == lane]
            if hits:
                lane_attainment[lane] = mean(hits)
        graph_attainment: dict[str, float] = {}
        for name in self.registry.names:
            hits = [
                o.slo_met for o in outcomes if o.arrival.graph == name
            ]
            if hits:
                graph_attainment[name] = mean(hits)
        served = sum(o.failure is None for o in outcomes)
        return ClusterReport(
            policy=policy,
            placement=placement,
            n_servers=len(servers),
            served=served,
            batches=len(controller.widths),
            joins=controller.joins,
            mean_batch_width=mean(controller.widths),
            slo_attainment=mean([o.slo_met for o in outcomes], 1.0),
            lane_attainment=lane_attainment,
            graph_attainment=graph_attainment,
            mean_queue_ms=mean(queue),
            p95_queue_ms=(
                float(np.percentile(queue, 95)) if queue else 0.0
            ),
            mean_service_ms=mean([o.service_ms for o in outcomes]),
            mean_latency_ms=mean([o.latency_ms for o in outcomes]),
            makespan_ms=float(max((o.finish_ms for o in outcomes), default=0.0)),
            busy_ms=float(sum(s.busy_ms for s in servers)),
            server_busy_ms=[s.busy_ms for s in servers],
            server_launches=[s.launches for s in servers],
            verified=verified,
            swaps=len(controller.swaps),
            failed=len(outcomes) - served,
            requeues=controller.requeues,
            steals=len(controller.steal_records),
            scale_events=len(controller.scale_records),
            faults=len(controller.fault_records),
            server_speed=[s.speed for s in servers],
            extra={
                "swaps": list(controller.swaps),
                "faults": list(controller.fault_records),
                "steals": list(controller.steal_records),
                "scales": list(controller.scale_records),
            },
        )

__all__ = [
    "Autoscaler",
    "ClusterReport",
    "FaultRecord",
    "GraphEntry",
    "GraphRegistry",
    "GraphStore",
    "PLACEMENTS",
    "PlacementPolicy",
    "Router",
    "ScaleRecord",
    "StealRecord",
    "SwapRecord",
    "resolve_placement",
]
