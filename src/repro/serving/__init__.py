"""Query-serving front end: batching, online scheduling, and a sharded
multi-server cluster over the multi-vector layer.

A server answering graph queries (BFS depths, SSSP distances, CC labels)
for many concurrent clients leaves most of the batched substrate idle if
it launches one traversal per request.  The serving stack closes that
gap in layers:

* :class:`QueryBatcher` — the synchronous core: accumulate requests,
  coalesce same-kind requests into one batched launch
  (:func:`repro.algorithms.multi_source_bfs` /
  :func:`repro.algorithms.multi_source_sssp` — one kernel sweep per
  round however many queries ride along; graph-global CC requests dedup
  onto a single run), and report per-query latency against the
  k-independent baseline.
* :mod:`~repro.serving.events` — the discrete-event core: simulated
  clock, :class:`Server` busy/free model, and the :class:`EventLoop`
  every online policy rides.
* :class:`Router` + :class:`GraphRegistry` — the online front end:
  consume a timestamped arrival stream (:mod:`repro.serving.arrivals`),
  decide batch-now vs wait-for-riders against per-query latency SLOs
  (the :data:`POLICIES` admission objects, and the per-kind
  :class:`ServiceEstimator` books each run keeps for itself), let late
  arrivals join still-open batches mid-flight, run urgent/bulk priority
  lanes, and dispatch many named serving graphs across N servers by the
  :data:`PLACEMENTS` policies (graph-affinity sharding, least-loaded,
  power-of-two-choices, speed-aware).  One graph on ``n_servers=1`` is
  the single-backend scheduler.  Every registered graph is a chain of
  epochs: :meth:`GraphRegistry.mutate` (or
  ``Router.run(mutations=...)``) swaps in the next one while in-flight
  batches finish on theirs, and :class:`Ingester`
  (:mod:`~repro.serving.ingest`) applies mutation batches with bounded
  retry.
* :class:`DataPlane` (:mod:`~repro.serving.plane`) — where every
  committed batch executes: :class:`InProcessPlane` by default, or a
  :class:`WorkerPool` (:mod:`~repro.serving.parallel`) of worker
  processes pinned to cluster servers executing real kernel launches
  over B2SR tiles shared zero-copy through :mod:`repro.formats.shm`.

* :mod:`~repro.serving.faults` — declarative fault injection: a seeded
  :class:`FaultPlan` of crash/recover/slow events replays through the
  event loop deterministically; the router re-queues batches lost to a
  crash, steals committed work off dead or backed-up servers, scores
  placement by per-server speed, and (with an :class:`Autoscaler`)
  grows or drains the fleet against observed SLO attainment.

Every coalesced answer — single server or sharded cluster — is bitwise
identical to the answer an isolated run would have produced.  The
router's ``verify=True`` checks it on every launch, including answers
re-executed after a mid-flight server loss: bfs/sssp by a shortest-path
certificate against the epoch's CSR, cc against its solo run.
"""

from repro.serving.admission import (
    AdmissionContext,
    AdmissionPolicy,
    Batch,
    POLICIES,
)
from repro.serving.arrivals import (
    LANES,
    Arrival,
    MutationBatch,
    multi_graph_poisson_stream,
    poisson_stream,
    trace_stream,
)
from repro.serving.batcher import (
    BatchReport,
    Query,
    QueryBatcher,
    QueryResult,
)
from repro.serving.cluster import (
    Autoscaler,
    ClusterReport,
    FaultRecord,
    GraphEntry,
    GraphRegistry,
    GraphStore,
    PLACEMENTS,
    PlacementPolicy,
    Router,
    ScaleRecord,
    StealRecord,
    SwapRecord,
)
from repro.serving.estimator import ServiceEstimator
from repro.serving.faults import (
    FaultEvent,
    FaultPlan,
    chaos_plan,
    parse_fail_spec,
    parse_speed_spec,
)
from repro.serving.parallel import WorkerPool
from repro.serving.plane import (
    DataPlane,
    InProcessPlane,
    LaunchResult,
    LaunchSpec,
)
from repro.serving.ingest import (
    Ingester,
    IngestRecord,
    IngestReport,
    mutation_trace,
)
from repro.serving.events import EventLoop, QueryOutcome, Server

__all__ = [
    "AdmissionContext",
    "AdmissionPolicy",
    "Arrival",
    "Autoscaler",
    "Batch",
    "BatchReport",
    "ClusterReport",
    "DataPlane",
    "EventLoop",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "GraphEntry",
    "GraphRegistry",
    "GraphStore",
    "InProcessPlane",
    "IngestRecord",
    "IngestReport",
    "Ingester",
    "LANES",
    "LaunchResult",
    "LaunchSpec",
    "MutationBatch",
    "PLACEMENTS",
    "POLICIES",
    "PlacementPolicy",
    "Query",
    "QueryBatcher",
    "QueryOutcome",
    "QueryResult",
    "Router",
    "ScaleRecord",
    "Server",
    "ServiceEstimator",
    "StealRecord",
    "SwapRecord",
    "WorkerPool",
    "chaos_plan",
    "multi_graph_poisson_stream",
    "parse_fail_spec",
    "parse_speed_spec",
    "poisson_stream",
    "trace_stream",
]
