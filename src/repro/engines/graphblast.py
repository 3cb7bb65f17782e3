"""The GraphBLAST-style baseline engine (§II, §VI.A).

Reproduces the structure of GraphBLAST's execution, which is what the
algorithm-level comparison measures:

* CSR float storage, full-precision frontier values;
* direction-optimized traversal — *push* (SpMSpV over the sparse frontier,
  exploiting input sparsity) when the frontier is small, *pull* (masked
  SpMV with early exit) when it is large;
* sparse↔dense frontier switching with explicit compaction kernels;
* several launches per iteration (vxm + assign + swap/convert), the
  fixed-cost term that makes high-diameter BFS expensive.

Algorithm parameters follow §VI.A: BFS early-exit/structure-only enabled,
PR capped at 10 iterations with α = 0.85, tolerance 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.formats.stats import bandwidth_profile
from repro.graph import Graph
from repro.gpusim.device import GTX1080, DeviceSpec
from repro.engines.base import Engine
from repro.kernels.costmodel import (
    csr_spgemm_stats,
    csr_spmv_stats,
    frontier_compact_stats,
    spmspv_stats,
)
from repro.kernels.csr_spgemm import csr_spgemm_mask_sum, spgemm_flops
from repro.kernels.csr_spmv import csr_spmspv, csr_spmv_semiring
from repro.semiring import BOOLEAN, Semiring, value_dtype


class GraphBLASTEngine(Engine):
    """CSR GraphBLAS baseline with push/pull direction optimization.

    ``push_pull_ratio`` is the frontier-edge fraction above which the pull
    direction is selected (GraphBLAST's heuristic threshold).
    """

    backend_name = "graphblast"

    def __init__(
        self,
        graph: Graph,
        device: DeviceSpec = GTX1080,
        push_pull_ratio: float = 0.10,
    ) -> None:
        super().__init__(graph, device)
        self.push_pull_ratio = push_pull_ratio
        self._out_deg = graph.out_degrees().astype(np.float64)
        self._locality = float(
            np.clip(bandwidth_profile(graph.csr)["diag_fraction"], 0, 1)
        )
        self.direction_log: list[str] = []

    # ------------------------------------------------------------------
    def frontier_expand(
        self, frontier: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        active = np.nonzero(frontier)[0].astype(np.int64)
        frontier_edges = float(self._out_deg[active].sum())
        use_pull = (
            frontier_edges > self.push_pull_ratio * max(self.graph.nnz, 1)
        )
        if use_pull:
            self.direction_log.append("pull")
            # Pull: masked mxv over Aᵀ; early exit skips visited rows, so
            # charge the unvisited fraction of the full SpMV.
            y = csr_spmv_semiring(
                self.graph.csr_t, frontier.astype(np.float32), BOOLEAN  # repro-lint: ignore[numeric-cliff] — boolean frontier payload in {0,1}, far below the 2^24 cliff
            )
            unvisited_frac = float((~visited).mean()) if self.n else 0.0
            stats = csr_spmv_stats(
                self.graph.csr_t, self.device, locality=self._locality
            ).scaled(max(unvisited_frac, 1.0 / max(self.n, 1)))
            stats.launches = 2
            # Direction decision + dense/sparse conversion syncs.
            stats.host_us += 18.0
            self.add_kernel(stats)
            reached = y.astype(bool)
        else:
            self.direction_log.append("push")
            idx, _ = csr_spmspv(self.graph.csr, active, semiring=BOOLEAN)
            self.add_kernel(
                spmspv_stats(
                    self.graph.csr, active.shape[0], frontier_edges,
                    self.device, locality=self._locality,
                )
            )
            reached = np.zeros(self.n, dtype=bool)
            reached[idx] = True
        # Frontier management: mask application, sparse compaction, and the
        # assign/swap kernels GraphBLAST issues every iteration, plus the
        # host-side convergence check (nvals read-back).
        nxt = reached & ~visited
        compact = frontier_compact_stats(self.n, int(nxt.sum()), self.device)
        compact.host_us += 10.0
        self.add_aux(compact)
        self.note_ewise(vectors=4)
        self.note_ewise(vectors=2)
        return nxt

    def pull(
        self,
        x: np.ndarray,
        semiring: Semiring,
        *,
        changed: np.ndarray | None = None,
    ) -> np.ndarray:
        # ``changed`` is ignored: a full pull is always valid.  float64
        # payloads (numeric labels) keep their precision, matching the
        # bit backend's dtype discipline.
        dt = value_dtype(x)
        y = csr_spmv_semiring(
            self.graph.csr_t, np.asarray(x).astype(dt, copy=False), semiring
        )
        stats = csr_spmv_stats(
            self.graph.csr_t, self.device, locality=self._locality,
            value_bytes=float(dt.itemsize),
        )
        # Generalized-semiring mxv goes through GraphBLAST's descriptor
        # dispatch and a convergence read-back each iteration.
        stats.host_us += 22.0
        self.add_kernel(stats)
        # GraphBLAST's iteration body: vxm + eWiseMult + assign + swap,
        # with one more host sync in the outer loop.
        self.note_ewise(vectors=4)
        self.note_ewise(vectors=2)
        self.algorithm_stats.host_us += 12.0
        return y

    # GraphBLAST has no batched vxm/mxv: the batched operations fall back
    # to the base Engine's per-column loop — ``k`` full launch sequences
    # per level/iteration, with the frontier machinery and descriptor
    # dispatch repeated per column.  That repetition *is* the faithful
    # model of the baseline, so no override is needed.

    def tc_count(self) -> float:
        sym = self.graph.symmetrized()
        L = sym.csr.extract_lower(strict=True)
        from repro.formats.convert import transpose_csr

        Lt = transpose_csr(L)
        if spgemm_flops(L, Lt) <= 30_000_000:
            count = csr_spgemm_mask_sum(L, Lt, L)
        else:
            # The expanded-product host computation is quadratic-ish on
            # hub-heavy graphs; above this budget compute the (identical)
            # quantity with the bit kernel and keep the modeled cuSPARSE
            # cost below.  Backend equivalence is separately tested.
            from repro.formats.convert import b2sr_from_csr
            from repro.kernels.bmm import bmm_bin_bin_sum_masked

            count = bmm_bin_bin_sum_masked(
                b2sr_from_csr(L, 32), b2sr_from_csr(Lt, 32),
                b2sr_from_csr(L, 32),
            )
        self.add_kernel(
            csr_spgemm_stats(
                L, Lt, self.device,
                flops=spgemm_flops(L, Lt),
                nnz_c=L.nnz,  # mask limits materialised output to |L|
            )
        )
        self.note_iteration()
        return count
