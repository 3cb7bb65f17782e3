"""Per-kind service-time estimation for admission decisions.

The SLO-aware admission policy needs to know, *before* launching, how
long a ``width``-wide batch of some query kind will hold a server.
:class:`ServiceEstimator` keeps one estimate per kind per serving graph:
an EWMA of observed per-plane service milliseconds, seeded by a
calibration solo run on first use, and scaled by how batched service
grows with width on the backend at hand (per word plane on the bit
backend, per query otherwise; graph-global kinds dedup onto one run).

Each :class:`repro.serving.cluster.GraphRegistry` epoch owns one
estimator, so a cluster learns each graph's service profile
independently — a small road network and a dense social graph behind the
same router keep separate books.
"""

from __future__ import annotations

import math

from repro.algorithms import bfs, connected_components, sssp
from repro.engines.base import Engine


class ServiceEstimator:
    """EWMA per-kind estimate of modeled batch service milliseconds."""

    #: Weight of the newest observation in the moving average.
    ALPHA = 0.5

    def __init__(self, engine: Engine, cc_engine: Engine | None = None):
        self.engine = engine
        self.cc_engine = cc_engine if cc_engine is not None else engine
        # Per-kind EWMA of observed service ms per value plane, seeded by
        # a calibration solo run on first use.
        self._est_ms: dict[str, float] = {}

    # ------------------------------------------------------------------
    def estimate_ms(self, kind: str, width: int) -> float:
        """Estimated service ms for a ``width``-wide batch of ``kind``,
        in speed-1 units (heterogeneous fleets share one learned profile
        per graph; a server's speed factor scales its occupancy)."""
        per_plane = self._est_ms.get(kind)
        if per_plane is None:
            per_plane = self._calibrate(kind)
        return per_plane * self.width_scale(kind, width)

    def observe(self, kind: str, width: int, service_ms: float) -> None:
        """Fold one launch's observed service time into the estimate."""
        observed = service_ms / self.width_scale(kind, width)
        prev = self._est_ms.get(kind)
        self._est_ms[kind] = (
            observed if prev is None
            else (1.0 - self.ALPHA) * prev + self.ALPHA * observed
        )

    def snapshot(self) -> dict[str, float]:
        """Copy of the learned per-kind state (see :meth:`restore`)."""
        return dict(self._est_ms)

    def restore(self, state: dict[str, float]) -> None:
        """Reset the learned state to a :meth:`snapshot` — lets callers
        compare policies from identical starting estimates."""
        self._est_ms = dict(state)

    def width_scale(self, kind: str, width: int) -> float:
        """How batched service scales with width: graph-global kinds
        (cc) dedup onto one run whatever the width; otherwise per value
        plane on the bit backend (one tile sweep serves a whole word
        plane), per query on backends without batched kernels."""
        if kind == "cc":
            return 1.0
        d = getattr(self.engine, "tile_dim", None)
        if d:
            return float(math.ceil(width / d))
        return float(width)

    def _calibrate(self, kind: str) -> float:
        """Seed the estimator with one solo run's modeled latency."""
        if kind == "bfs":
            _, rep = bfs(self.engine, 0)
        elif kind == "sssp":
            _, rep = sssp(self.engine, 0)
        else:
            _, rep = connected_components(self.cc_engine)
        self._est_ms[kind] = rep.algorithm_ms
        return rep.algorithm_ms


__all__ = ["ServiceEstimator"]
