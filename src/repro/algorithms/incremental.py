"""Incremental recomputation over edge deltas (dynamic graphs).

When a serving graph mutates by a small batch of edge inserts/deletes
(:mod:`repro.formats.delta`), re-answering a standing query from scratch
wastes the old answer.  The two refinements here reuse it:

* :func:`bfs_repair` — repair a BFS depth vector.  Deletions can only
  *increase* depths and insertions can only *decrease* them, so the
  repair (1) over-approximates the set of vertices whose old depth may
  have grown — heads of deleted tree-edge candidates, closed level by
  level through surviving edges — and invalidates them, then (2) runs
  min-plus relaxation from the surviving depths (a valid elementwise
  upper bound with the source pinned at 0) to the fixpoint.
* :func:`fastsv_refine` — refine CC labels.  Insertions only merge
  components, so old labels are valid starting points for the FastSV
  loop; deletions may split them, so every component touching a deleted
  edge is reset to identity labels first, and the standard
  hook-and-shortcut loop converges from the mixed state.

Both functions carry the serving layer's exactness contract: the result
is **bitwise identical** to a from-scratch :func:`~repro.algorithms.bfs`
/ :func:`~repro.algorithms.connected_components` run on the
post-mutation graph (the property tests sweep random deltas).  The win
is iteration count: a small delta usually invalidates a small region, so
the repair converges in a few rounds where the from-scratch run pays the
full eccentricity.
"""

from __future__ import annotations

import numpy as np

from repro.engines.base import Engine, EngineReport
from repro.formats.delta import as_edge_array
from repro.semiring import MIN_PLUS, MIN_SECOND


def bfs_repair(
    engine: Engine,
    source: int,
    old_depth: np.ndarray,
    inserts: np.ndarray | None = None,
    deletes: np.ndarray | None = None,
    *,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, EngineReport]:
    """Repair a BFS depth vector across an edge delta.

    Parameters
    ----------
    engine:
        Engine over the **post-mutation** graph.
    source:
        The BFS source (unchanged across the delta).
    old_depth:
        The pre-mutation depth vector (``int64``, −1 for unreachable).
    inserts / deletes:
        The applied edge delta, as ``(m, 2)`` directed edge arrays (the
        effective arrays a :class:`~repro.formats.delta.DeltaReport`
        carries, or any superset — no-op edits only enlarge the repaired
        region, never corrupt it).

    Returns
    -------
    depth:
        ``int64`` depths on the new graph — bitwise identical to
        ``bfs(engine, source)[0]``.
    report:
        Modeled cost report; ``extra`` records the invalidated-vertex
        count and the relaxation rounds.
    """
    n = engine.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    old = np.asarray(old_depth)
    if old.shape != (n,):
        raise ValueError(
            f"old_depth must have shape ({n},), got {old.shape}"
        )
    old = old.astype(np.int64, copy=False)
    ins = as_edge_array(inserts, n, n, "inserts")
    dels = as_edge_array(deletes, n, n, "deletes")
    if max_iterations is None:
        max_iterations = n
    engine.reset_stats()

    # Phase 1 — close the set of vertices whose old depth may have
    # *increased*.  A deleted edge (u, v) can only break v's shortest
    # path when it was a tree-edge candidate: u was reachable and v sat
    # exactly one level below it.  From those seeds, the damage spreads
    # only downward through surviving edges, one old level at a time —
    # a vertex at old level L+1 is suspect iff some suspect at old level
    # L still points an edge at it.  (Over-approximation is safe: a
    # spuriously invalidated vertex gets its depth re-derived in phase
    # 2; missing a truly damaged vertex would freeze a stale depth,
    # which the seed + closure construction rules out.)
    affected = np.zeros(n, dtype=bool)
    if dels.size:
        u, v = dels[:, 0], dels[:, 1]
        seeds = (old[u] >= 0) & (old[v] == old[u] + 1)
        affected[v[seeds]] = True
    affected[source] = False
    if affected.any():
        levels = np.unique(old[affected])
        for level in levels[levels >= 0]:
            frontier = affected & (old == level)
            while frontier.any():
                engine.note_iteration()
                reached = engine.frontier_expand(frontier, affected)
                suspect = reached & (old == level + 1)
                if not suspect.any():
                    break
                affected |= suspect
                frontier = suspect
                level += 1
    invalidated = int(affected.sum())

    # Phase 2 — min-plus relaxation to the fixpoint from a valid upper
    # bound: surviving old depths are correct-or-overestimates on the
    # new graph (inserts only shorten paths), invalidated vertices start
    # at +inf, the source is pinned at 0.  Bellman-Ford from any
    # elementwise upper bound converges to the true distances.
    dist = np.where(affected, np.inf, old.astype(np.float64))
    dist[old < 0] = np.inf
    dist[source] = 0.0
    rounds = 0
    for _ in range(max_iterations):
        engine.note_iteration()
        rounds += 1
        relaxed = engine.pull(dist, MIN_PLUS).astype(np.float64)
        new = np.minimum(dist, relaxed)
        if not (new < dist).any():
            break
        dist = new

    depth = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    return depth, engine.report(
        extra={"invalidated": invalidated, "repair_rounds": rounds}
    )


def fastsv_refine(
    engine: Engine,
    old_labels: np.ndarray,
    inserts: np.ndarray | None = None,
    deletes: np.ndarray | None = None,
    *,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, EngineReport]:
    """Refine FastSV component labels across an edge delta.

    Parameters
    ----------
    engine:
        Engine over the **post-mutation symmetrized** graph (components
        are defined on the undirected view, like
        :func:`~repro.algorithms.connected_components`).
    old_labels:
        Pre-mutation labels (``int64`` component minima).
    inserts / deletes:
        The applied edge delta (directed edges are fine — the endpoint
        set is what matters on the undirected view).

    Returns
    -------
    labels:
        ``int64`` labels on the new graph — bitwise identical to
        ``connected_components(engine)[0]``.
    report:
        Modeled cost report; ``extra`` records how many vertices were
        reset to identity.
    """
    n = engine.n
    old = np.asarray(old_labels)
    if old.shape != (n,):
        raise ValueError(
            f"old_labels must have shape ({n},), got {old.shape}"
        )
    old = old.astype(np.int64, copy=False)
    as_edge_array(inserts, n, n, "inserts")  # validated; merges need no reset
    dels = as_edge_array(deletes, n, n, "deletes")
    if max_iterations is None:
        max_iterations = max(2, n)
    engine.reset_stats()

    # Deletions may split a component, stranding labels that point into
    # the other side; every component touching a deleted edge restarts
    # from identity.  Insertions only merge, and old labels (each a
    # valid in-component vertex id with ``label[label] == label``) are
    # correct upper bounds for the min-label fixpoint, so untouched
    # components keep their labels and converge immediately.
    parent = old.astype(np.float64)
    reset_count = 0
    if dels.size:
        touched = np.zeros(n, dtype=bool)
        touched_labels = np.unique(old[dels.ravel()])
        touched[np.isin(old, touched_labels)] = True
        parent[touched] = np.arange(n, dtype=np.float64)[touched]
        reset_count = int(touched.sum())

    for _ in range(max_iterations):
        engine.note_iteration()
        neighbour_min = engine.pull(parent, MIN_SECOND).astype(np.float64)
        new = np.minimum(parent, neighbour_min)
        idx = new.astype(np.int64)
        new = np.minimum(new, new[idx])
        idx = new.astype(np.int64)
        new = np.minimum(new, new[idx])
        engine.note_ewise(vectors=3)  # hooking + shortcut kernels
        if np.array_equal(new, parent):
            break
        parent = new

    return parent.astype(np.int64), engine.report(
        extra={"reset_vertices": reset_count}
    )


__all__ = ["bfs_repair", "fastsv_refine"]
