"""Admission policies for the online serving loop.

Admission answers three questions the event loop itself never decides:
*does a new arrival join an open batch or start its own*, *how long may
an open batch wait for riders*, and *what does a launching batch absorb
from the other lanes*.  Each answer is a method on
:class:`AdmissionPolicy`; the router calls the policy through this
interface only, so a new policy is a subclass plus a :data:`POLICIES`
entry — the event loop never changes.

Three policies ship in :data:`POLICIES`:

``"slo"``
    The SLO-aware scheduler: a bulk batch accumulates riders until the
    deadline slack of its most constrained member — budget minus a
    safety-factored service estimate minus a contention reserve for the
    other open batches — runs out; urgent batches never wait, and a
    launching batch absorbs same-kind bulk riders into its spare width.
``"flush"``
    Launch everything pending whenever a server frees (the online form
    of the flush-everything batcher): batches coalesce only the backlog
    that queues behind service.
``"fcfs"``
    No coalescing at all: one query per launch, arrival order.

Batches are compatible only within one serving graph: the coalesced
kernels answer many queries against *one* matrix, so ``Batch.graph``
participates in every join/absorb check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.serving.arrivals import LANES, Arrival


@dataclass
class Batch:
    """An open (not yet launched) batch accumulating compatible queries.

    ``sid`` is the placement commitment: ``None`` until a router asks a
    placement policy for a server, then pinned (the batch launches when
    *that* server frees).  ``version`` is the graph epoch the batch was
    admitted against: an epoch swap strands the open batches on their
    admitted version — later arrivals (which see
    the new epoch) open fresh batches instead of joining, so a batch
    never mixes versions.

    ``retries`` counts fault-driven re-queues: when the batch's server
    crashes mid-flight the router withdraws the launch, bumps this
    counter, and re-admits the batch (still on its admitted version)
    until the retry budget runs out and its queries fail closed.

    ``min_deadline_ms`` is the earliest member deadline: :meth:`add`
    keeps it current, and code that removes members calls
    :meth:`reset_min_deadline`.  A refresh reads it instead of scanning
    the members.
    """

    kind: str
    lane: str
    graph: str
    created_ms: float
    members: list[tuple[int, Arrival]]  # (stream position, arrival)
    launch_at: float = 0.0
    sid: int | None = None
    version: int = 0
    retries: int = 0
    min_deadline_ms: float = field(init=False)

    def __post_init__(self) -> None:
        self.reset_min_deadline()

    def add(self, seq: int, arrival: Arrival) -> None:
        """Append a member: a join, or a rider absorbed into a launch."""
        self.members.append((seq, arrival))
        self.min_deadline_ms = min(self.min_deadline_ms, arrival.deadline_ms)

    def reset_min_deadline(self) -> None:
        """Recompute ``min_deadline_ms`` from the members."""
        self.min_deadline_ms = min(
            (a.deadline_ms for _, a in self.members), default=math.inf
        )


@dataclass(frozen=True)
class AdmissionContext:
    """Everything a policy may consult when deciding admission.

    ``estimate`` maps an open batch to its estimated service ms at its
    current width (the router answers from the run's estimator for the
    batch's graph epoch); ``n_servers`` scales the contention reserve —
    with N servers, the other open batches queue against N slots, not
    one.
    ``version_of`` maps a graph name to its *current* serving epoch; new
    batches are stamped with it and joins require it to match.
    """

    max_batch: int
    slack_factor: float
    estimate: Callable[[Batch], float]
    version_of: Callable[[str], int]
    n_servers: int = 1


class AdmissionPolicy:
    """Base policy: the three admission decisions, driven by class
    flags so degenerate policies are declarative subclasses.

    Subclasses override the flags (or any method) and set ``name``;
    the instances in :data:`POLICIES` are stateless — all mutable
    scheduling state lives in the batches and the context.
    """

    name: str = "base"
    slo_aware: bool = True   # wait out deadline slack to accumulate riders
    batching: bool = True    # coalesce compatible queries at all
    lanes: bool = True       # urgent/bulk lane separation + absorption

    # ------------------------------------------------------------------
    def admit(
        self,
        arrival: Arrival,
        seq: int,
        graph: str,
        open_batches: list[Batch],
        ctx: AdmissionContext,
    ) -> int:
        """Join an open compatible batch (mid-flight) or open a new one.
        Returns 1 when the query joined an existing batch."""
        version = ctx.version_of(graph)
        if self.batching:
            for b in open_batches:
                if (
                    b.graph == graph
                    and b.kind == arrival.kind
                    and b.version == version
                    and len(b.members) < ctx.max_batch
                    and (not self.lanes or b.lane == arrival.lane)
                ):
                    b.add(seq, arrival)
                    self.refresh(open_batches, ctx)
                    return 1
        open_batches.append(
            Batch(
                kind=arrival.kind,
                lane=arrival.lane if self.lanes else LANES[-1],
                graph=graph,
                created_ms=arrival.time_ms,
                members=[(seq, arrival)],
                version=version,
            )
        )
        self.refresh(open_batches, ctx)
        return 0

    def refresh(
        self, open_batches: list[Batch], ctx: AdmissionContext
    ) -> None:
        """Recompute every open batch's launch deadline.

        Urgent batches (and every batch under the non-SLO-aware
        policies) launch as soon as a server frees; a bulk batch waits
        until the deadline slack of its most constrained member — budget
        minus ``slack_factor`` times the estimated service at the
        current width, minus a contention reserve for the *other* open
        batches that may hold the servers when the slack expires — runs
        out.  The reserve (divided across the cluster's servers) is what
        lets several kinds queue tight-budget batches simultaneously
        without the later launch blowing its SLO.
        """
        if not self.slo_aware:
            for b in open_batches:
                b.launch_at = b.created_ms
            return
        ests = {id(b): ctx.estimate(b) for b in open_batches}
        total_est = sum(ests.values())
        for b in open_batches:
            if b.lane == "urgent":
                b.launch_at = b.created_ms
                continue
            reserve = (total_est - ests[id(b)]) / ctx.n_servers
            # Subtracting constants is monotone under round-to-nearest,
            # so this equals the minimum of each member's own slack.
            slack = (
                b.min_deadline_ms - ctx.slack_factor * ests[id(b)] - reserve
            )
            b.launch_at = max(b.created_ms, slack)

    def absorb(
        self,
        batch: Batch,
        open_batches: list[Batch],
        ctx: AdmissionContext,
    ) -> int:
        """Fill the launching batch's spare width with same-graph,
        same-kind queries from other lanes' open batches (earliest
        deadline first) — the preemption payoff: bulk riders stop
        accumulating and ride the urgent launch for free."""
        if not self.lanes:
            return 0
        room = ctx.max_batch - len(batch.members)
        if room <= 0:
            return 0
        donors = [
            b for b in open_batches
            if b is not batch
            and b.graph == batch.graph
            and b.kind == batch.kind
            and b.version == batch.version
        ]
        candidates = sorted(
            ((a.deadline_ms, seq, a, b) for b in donors
             for seq, a in b.members),
            key=lambda t: (t[0], t[1]),
        )
        moved = 0
        for _, seq, a, donor in candidates[:room]:
            donor.members.remove((seq, a))
            batch.add(seq, a)
            moved += 1
        for donor in donors:
            if not donor.members:
                open_batches.remove(donor)
            else:
                donor.reset_min_deadline()
        if moved:
            self.refresh(open_batches, ctx)
        return moved


class SLOAdmission(AdmissionPolicy):
    """The full SLO-aware policy: slack-bounded waiting, lanes,
    mid-flight joins, absorption."""

    name = "slo"


class FlushAdmission(AdmissionPolicy):
    """Launch everything pending whenever a server frees."""

    name = "flush"
    slo_aware = False
    lanes = False


class FCFSAdmission(AdmissionPolicy):
    """No coalescing: one query per launch, arrival order."""

    name = "fcfs"
    slo_aware = False
    batching = False
    lanes = False


#: The scheduler policy and its two baselines, by name.
POLICIES: dict[str, AdmissionPolicy] = {
    p.name: p for p in (SLOAdmission(), FlushAdmission(), FCFSAdmission())
}


def resolve_policy(policy: str) -> AdmissionPolicy:
    """Look up a policy by name."""
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; valid: {sorted(POLICIES)}"
        )
    return POLICIES[policy]


__all__ = [
    "AdmissionContext",
    "AdmissionPolicy",
    "Batch",
    "FCFSAdmission",
    "FlushAdmission",
    "POLICIES",
    "SLOAdmission",
    "resolve_policy",
]
