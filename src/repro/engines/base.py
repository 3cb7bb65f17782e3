"""Engine base class and reporting.

The paper reports two latencies per (matrix, algorithm) cell: the
*algorithm* time (every kernel an iteration needs) and the *kernel* time
(the matrix-vector / matrix-matrix core, ">80 % of the workload" §VI.E).
Engines therefore maintain two accumulators; operations tagged as core
kernels add to both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph import Graph
from repro.gpusim.counters import KernelStats
from repro.gpusim.device import GTX1080, DeviceSpec
from repro.gpusim.timing import time_ms
from repro.kernels.costmodel import ewise_dense_stats
from repro.semiring import Semiring, value_dtype


@dataclass
class EngineReport:
    """Stats snapshot for one algorithm run."""

    device: DeviceSpec
    iterations: int
    algorithm_stats: KernelStats
    kernel_stats: KernelStats
    backend: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def algorithm_ms(self) -> float:
        """Modeled end-to-end algorithm latency (paper's "algorithm" row)."""
        return time_ms(self.algorithm_stats, self.device)

    @property
    def kernel_ms(self) -> float:
        """Modeled core mxv/mxm latency (paper's "kernel" row).

        Launch overhead is excluded (CUDA-event timing around the kernel
        call), but host-side serialization *inside* the vxm/mxm call — the
        thrust sorts and syncs of GraphBLAST's masked SpMSpV — is part of
        what the caller observes, so it stays.
        """
        from dataclasses import replace

        return time_ms(replace(self.kernel_stats, launches=0), self.device)


class Engine:
    """Common accounting for both backends.

    Subclasses implement the three graph operations algorithms need:

    * :meth:`frontier_expand` — masked boolean vxm (BFS step);
    * :meth:`pull` — semiring mxv against the transposed adjacency
      (in-neighbour aggregation for SSSP/PR/CC);
    * :meth:`tc_count` — fused masked product-sum over the lower triangle.
    """

    backend_name = "base"

    def __init__(self, graph: Graph, device: DeviceSpec = GTX1080) -> None:
        self.graph = graph
        self.device = device
        self.algorithm_stats = KernelStats()
        self.kernel_stats = KernelStats()
        self._iterations = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.n

    def reset_stats(self) -> None:
        self.algorithm_stats = KernelStats()
        self.kernel_stats = KernelStats()
        self._iterations = 0

    def note_iteration(self) -> None:
        self._iterations += 1

    def add_kernel(self, stats: KernelStats) -> None:
        """Record a core mxv/mxm kernel (counts toward both rows)."""
        self.kernel_stats += stats
        self.algorithm_stats += stats

    def add_aux(self, stats: KernelStats) -> None:
        """Record a non-core kernel (elementwise update, compaction…)."""
        self.algorithm_stats += stats

    def note_ewise(self, vectors: int = 2, bytes_per: float = 4.0) -> None:
        """Shorthand: one dense elementwise kernel over the vertex set."""
        self.add_aux(
            ewise_dense_stats(
                self.n, self.device, vectors=vectors, bytes_per=bytes_per
            )
        )

    def report(self, extra: dict | None = None) -> EngineReport:
        return EngineReport(
            device=self.device,
            iterations=self._iterations,
            algorithm_stats=self.algorithm_stats,
            kernel_stats=self.kernel_stats,
            backend=self.backend_name,
            extra=extra or {},
        )

    # ------------------------------------------------------------------
    # Operations (implemented by subclasses)
    # ------------------------------------------------------------------
    def frontier_expand(
        self, frontier: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        """Successors of ``frontier`` not yet in ``visited`` (boolean
        vxm with complemented mask)."""
        raise NotImplementedError

    def pull(
        self,
        x: np.ndarray,
        semiring: Semiring,
        *,
        changed: np.ndarray | None = None,
    ) -> np.ndarray:
        """``y_i = ⊕_{j → i} mult(1, x_j)`` — semiring mxv over Aᵀ.

        ``changed`` (a bool array of ``x``'s shape, min/max/OR semirings
        only) marks at least the entries where ``x`` differs from the
        last operand whose pull the caller already folded into ``x``.
        A backend may then gather only the in-neighbours ``j`` with
        ``changed[j]`` (:func:`repro.kernels.bmv.bmv_bin_full_full`), so
        ``y`` may be partial, but ``x ⊕ y`` is the same bits as with the
        full pull.  A backend may also ignore it: a full pull is always
        valid.  The modeled cost is that of the full pull either way.
        """
        raise NotImplementedError

    def tc_count(self) -> float:
        """Masked lower-triangle product sum = exact triangle count."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batched (multi-vector) operations
    # ------------------------------------------------------------------
    def frontier_expand_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`frontier_expand`: column ``j`` of the ``(n, k)``
        inputs is an independent frontier/visited pair, and column ``j``
        of the result equals ``frontier_expand(frontiers[:, j],
        visiteds[:, j])``.

        The default runs ``k`` single expansions; backends with a batched
        kernel (one launch serving every column) override this.
        """
        F, V = self._check_multi(frontiers, visiteds)
        out = np.zeros(F.shape, dtype=bool)
        for j in range(F.shape[1]):
            out[:, j] = self.frontier_expand(F[:, j], V[:, j])
        return out

    def pull_multi(
        self,
        x: np.ndarray,
        semiring: Semiring,
        *,
        changed: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched :meth:`pull` over the columns of the ``(n, k)`` operand.

        Default: ``k`` single pulls, each with its column of the
        ``(n, k)`` ``changed`` mask; batched backends override.  Like
        :meth:`pull`, a ``float64`` operand is pulled in ``float64``
        (exact numeric labels past 2²⁴); anything else uses float32.
        """
        X = np.asarray(x)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, k) vectors, got shape {X.shape}"
            )
        out = np.zeros(X.shape, dtype=value_dtype(X))
        for j in range(X.shape[1]):
            out[:, j] = self.pull(
                X[:, j], semiring,
                changed=None if changed is None else changed[:, j],
            )
        return out

    def _check_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        F = np.asarray(frontiers)
        V = np.asarray(visiteds)
        if F.ndim != 2 or F.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, k) frontiers, got shape {F.shape}"
            )
        if V.shape != F.shape:
            raise ValueError(
                f"visiteds shape {V.shape} must match frontiers {F.shape}"
            )
        return F.astype(bool, copy=False), V.astype(bool, copy=False)
