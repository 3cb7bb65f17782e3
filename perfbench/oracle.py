"""An independent answer oracle: ``scipy.sparse.csgraph`` over edge sets
the benchmark rebuilds itself.

Each served answer is checked against the epoch its query was admitted
on.  Epoch ``v`` of a graph is its seed edge set with the graph's first
``v`` mutation batches applied in time order, deletes before inserts.
Nothing here reads the program's formats, engines or deltas.

* BFS: unweighted directed ``shortest_path`` hop counts, ``int64``,
  -1 where unreachable.
* SSSP: the same distances as ``float32``, ``inf`` where unreachable.
* CC: weak ``connected_components``, each vertex labelled by the
  smallest vertex id in its component, ``int64``.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


def _keys(edges: np.ndarray | None, n: int) -> set[int]:
    if edges is None:
        return set()
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return set((arr[:, 0] * n + arr[:, 1]).tolist())


class Oracle:
    """Reference answers for every epoch of a workload's graphs.

    ``graphs`` maps serving name to the seed :class:`repro.graph.Graph`;
    ``mutations`` is the run's mutation batches (any order).
    """

    def __init__(self, graphs: dict, mutations: list) -> None:
        self._edges: dict[tuple[str, int], csr_matrix] = {}
        for name, g in graphs.items():
            n = g.n
            csr = g.csr
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
            present = set((rows * n + csr.indices).tolist())
            self._edges[(name, 0)] = self._matrix(present, n)
            mine = sorted(
                (m for m in mutations if m.graph == name),
                key=lambda m: m.time_ms,
            )
            for version, batch in enumerate(mine, start=1):
                present -= _keys(batch.deletes, n)
                present |= _keys(batch.inserts, n)
                self._edges[(name, version)] = self._matrix(present, n)

    @staticmethod
    def _matrix(keys: set[int], n: int) -> csr_matrix:
        arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        data = np.ones(arr.size, dtype=np.float64)
        return csr_matrix((data, (arr // n, arr % n)), shape=(n, n))

    def answers(self, graph: str, version: int, kind: str, sources) -> dict:
        """Reference answers for ``sources`` (ignored for ``cc``), keyed
        by source (``None`` for ``cc``)."""
        adj = self._edges[(graph, version)]
        if kind == "cc":
            _, labels = connected_components(
                adj, directed=True, connection="weak"
            )
            n = adj.shape[0]
            smallest = np.full(labels.max() + 1, n, dtype=np.int64)
            np.minimum.at(smallest, labels, np.arange(n, dtype=np.int64))
            return {None: smallest[labels]}
        srcs = sorted(set(sources))
        dist = shortest_path(
            adj, directed=True, unweighted=True, indices=srcs
        ).reshape(len(srcs), -1)
        out = {}
        for s, row in zip(srcs, dist, strict=True):
            if kind == "bfs":
                out[s] = np.where(np.isinf(row), -1, row).astype(np.int64)
            else:
                out[s] = row.astype(np.float32)
        return out

    def check(self, outcomes: list) -> tuple[int, int, list[str]]:
        """Check every served outcome; returns ``(served, failed,
        errors)`` where ``errors`` describes each wrong answer."""
        needed: dict[tuple[str, int, str], set] = defaultdict(set)
        for o in outcomes:
            if o.failure is None:
                a = o.arrival
                needed[(a.graph, o.version, a.kind)].add(a.source)
        refs = {
            key: self.answers(*key, sources)
            for key, sources in needed.items()
        }
        served = failed = 0
        errors: list[str] = []
        for seq, o in enumerate(outcomes):
            if o.failure is not None:
                failed += 1
                continue
            served += 1
            a = o.arrival
            ref = refs[(a.graph, o.version, a.kind)][a.source]
            got = o.result
            if (
                got is None
                or got.dtype != ref.dtype
                or not np.array_equal(got, ref)
            ):
                errors.append(
                    f"arrival {seq}: {a.kind} from {a.source} on "
                    f"{a.graph!r} v{o.version} differs from the oracle"
                )
        return served, failed, errors


def digest(outcomes: list) -> str:
    """SHA-256 over every outcome's epoch, kind and answer bytes, in
    stream order (failed queries hash their failure)."""
    h = hashlib.sha256()
    for o in outcomes:
        a = o.arrival
        h.update(f"{a.graph}|{o.version}|{a.kind}|{a.source}|".encode())
        if o.failure is not None:
            h.update(b"failed")
        else:
            h.update(str(o.result.dtype).encode())
            h.update(np.ascontiguousarray(o.result).tobytes())
    return h.hexdigest()
