"""Ingestion front end for the serving graph registry.

Mutation batches arrive from outside the serving loop — a change-data
stream, a crawler, a write API.  This module provides the two pieces the
dynamic-graph harnesses need:

* :func:`mutation_trace` — a seeded, self-consistent mutation workload:
  each batch deletes edges that exist *at that point of the trace* and
  inserts edges that do not, so replaying the trace through
  :meth:`~repro.serving.cluster.GraphRegistry.mutate` (or a router's
  ``mutations=`` hook) always applies effective edits.
* :class:`Ingester` — applies batches **in order** with bounded retry:
  a failed batch is re-attempted up to ``max_retries`` times before it
  is recorded as permanently failed and skipped (later batches still
  apply — an ingest pipeline does not wedge on one poison batch).

Application is synchronous and ordered because deltas compose: batch
*k*'s deletes are meaningful only against the graph batch *k−1*
produced.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.graph import Graph, csr_row_indices
from repro.serving.arrivals import MutationBatch
from repro.serving.cluster import GraphRegistry


def mutation_trace(
    graph: Graph,
    *,
    batches: int = 4,
    batch_size: int = 8,
    insert_fraction: float = 0.5,
    start_ms: float = 0.0,
    gap_ms: float = 50.0,
    seed: int = 0,
    name: str = "default",
) -> list[MutationBatch]:
    """A seeded trace of ``batches`` mutation batches against ``graph``.

    Each batch holds ``batch_size`` edits: an ``insert_fraction`` share
    of inserts drawn from the *currently absent* pairs and the rest
    deletes drawn from the *currently present* edges, where "currently"
    tracks the evolving edge set along the trace — so every edit is
    effective when the batches are applied in order.  Timestamps start
    at ``start_ms`` and step by ``gap_ms``.  Deterministic given
    ``seed``.
    """
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 <= insert_fraction <= 1.0:
        raise ValueError(
            f"insert_fraction must be in [0, 1], got {insert_fraction}"
        )
    if not gap_ms > 0:
        raise ValueError(f"gap_ms must be > 0, got {gap_ms}")
    n = graph.n
    rng = np.random.default_rng(seed)
    rows = csr_row_indices(graph.csr, n)
    present = set((rows * np.int64(n) + graph.csr.indices).tolist())

    def keys_to_edges(keys: Sequence[int]) -> np.ndarray | None:
        if not keys:
            return None
        arr = np.asarray(sorted(keys), dtype=np.int64)
        return np.stack([arr // n, arr % n], axis=1)

    out: list[MutationBatch] = []
    for b in range(batches):
        n_ins = int(round(batch_size * insert_fraction))
        n_del = batch_size - n_ins
        # Deletes: sample currently present edges (capped by how many
        # exist — a trace on a near-empty graph degrades gracefully).
        avail = np.fromiter(present, count=len(present), dtype=np.int64)
        k = min(n_del, avail.size)
        del_keys = (
            [int(x) for x in rng.choice(avail, size=k, replace=False)]
            if k else []
        )
        # Inserts: rejection-sample currently absent pairs.  Bounded
        # attempts so a (near-)complete graph cannot loop forever.
        ins_keys: set[int] = set()
        for _ in range(max(200, 50 * n_ins)):
            if len(ins_keys) >= n_ins:
                break
            cand = int(rng.integers(n)) * n + int(rng.integers(n))
            if cand not in present and cand not in ins_keys:
                ins_keys.add(cand)
        present.difference_update(del_keys)
        present.update(ins_keys)
        out.append(
            MutationBatch(
                time_ms=start_ms + b * gap_ms,
                graph=name,
                inserts=keys_to_edges(sorted(ins_keys)),
                deletes=keys_to_edges(del_keys),
            )
        )
    return out


@dataclass
class IngestRecord:
    """The fate of one mutation batch through the ingester."""

    graph: str
    time_ms: float
    attempts: int
    ok: bool
    version: int | None = None
    inserts: int = 0
    deletes: int = 0
    rebuilt_fraction: float = 0.0
    error: str | None = None


@dataclass
class IngestReport:
    """Aggregate accounting for one ingest run, derived from its
    per-batch records."""

    records: list[IngestRecord] = field(default_factory=list)

    @property
    def applied(self) -> int:
        """Batches that landed."""
        return sum(r.ok for r in self.records)

    @property
    def retried(self) -> int:
        """Re-attempts across all batches (attempts past the first)."""
        return sum(r.attempts - 1 for r in self.records)

    @property
    def failed(self) -> int:
        """Batches recorded as permanently failed and skipped."""
        return len(self.records) - self.applied

    @property
    def mean_rebuilt_fraction(self) -> float:
        """Mean rebuilt-tile fraction over the *applied* batches — the
        knob the re-warm cost model scales with."""
        fracs = [r.rebuilt_fraction for r in self.records if r.ok]
        return float(np.mean(fracs)) if fracs else 0.0


class Ingester:
    """Ordered, bounded-retry application of mutation batches.

    ``max_retries`` bounds the re-attempts *after* the first try; a
    batch that still fails is recorded (``ok=False`` with the last
    error) and skipped so the rest of the stream keeps flowing.
    """

    def __init__(self, store: GraphRegistry, *, max_retries: int = 2) -> None:
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.store = store
        self.max_retries = max_retries

    def run(
        self,
        batches: Sequence[MutationBatch],
        *,
        fault_hook: Callable[[MutationBatch, int], None] | None = None,
    ) -> IngestReport:
        """Apply ``batches`` in timestamp order.

        ``fault_hook(batch, attempt)`` runs before every attempt
        (attempt numbering starts at 0); an exception it raises counts
        as that attempt's failure — the test harness uses it to inject
        transient faults and exercise the retry path.
        """
        records: list[IngestRecord] = []
        for mut in sorted(batches, key=lambda m: m.time_ms):
            mut.validate()
            record = IngestRecord(
                graph=mut.graph, time_ms=mut.time_ms, attempts=0, ok=False
            )
            for attempt in range(self.max_retries + 1):
                record.attempts = attempt + 1
                try:
                    if fault_hook is not None:
                        fault_hook(mut, attempt)
                    entry, report = self.store.mutate(
                        mut.graph, mut.inserts, mut.deletes
                    )
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    record.error = f"{type(exc).__name__}: {exc}"
                    continue
                record.ok = True
                record.error = None
                record.version = entry.version
                record.inserts = report.n_inserts
                record.deletes = report.n_deletes
                record.rebuilt_fraction = report.rebuilt_fraction
                break
            records.append(record)
        return IngestReport(records=records)


__all__ = [
    "Ingester",
    "IngestRecord",
    "IngestReport",
    "mutation_trace",
]
