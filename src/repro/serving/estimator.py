"""Per-kind service-time estimation for admission decisions.

The SLO-aware admission policy needs to know, *before* launching, how
long a ``width``-wide batch of some query kind will hold a server.
:class:`ServiceEstimator` keeps one estimate per kind for one serving
epoch: an EWMA of observed per-plane service milliseconds, seeded by a
calibration solo run on first use, and scaled by how batched service
grows with width (per word plane of the bit backend; graph-global kinds
dedup onto one run).

Estimates belong to a run, not to the registry: each
:meth:`repro.serving.cluster.Router.run` keeps one estimator per
``(graph, version)`` it touches and drops them when it returns.  So a
cluster learns each graph's service profile independently — a small
road network and a dense social graph behind the same router keep
separate books — and a second run on the same registry starts from the
same calibration as the first.
"""

from __future__ import annotations

import math

from repro.engines.bit import BitEngine
from repro.serving.plane import solo_reference


class ServiceEstimator:
    """EWMA per-kind estimate of modeled batch service milliseconds."""

    #: Weight of the newest observation in the moving average.
    ALPHA = 0.5

    def __init__(self, engine: BitEngine, cc_engine: BitEngine | None = None):
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

    def carried_to(
        self, engine: BitEngine, cc_engine: BitEngine
    ) -> ServiceEstimator:
        """An estimator over another epoch's engines that starts from a
        copy of this one's learned values."""
        nxt = ServiceEstimator(engine, cc_engine)
        nxt._est_ms = dict(self._est_ms)
        return nxt

    def width_scale(self, kind: str, width: int) -> float:
        """How batched service scales with width: graph-global kinds
        (cc) dedup onto one run whatever the width; the others scale per
        value plane (one tile sweep serves a whole word plane)."""
        if kind == "cc":
            return 1.0
        return float(math.ceil(width / self.engine.tile_dim))

    def _calibrate(self, kind: str) -> float:
        """Seed the estimator with one solo run's modeled latency (from
        vertex 0; graph-global kinds ignore the source)."""
        _, rep = solo_reference(self.engine, self.cc_engine, kind, 0, {})
        self._est_ms[kind] = rep.algorithm_ms
        return rep.algorithm_ms


__all__ = ["ServiceEstimator"]
