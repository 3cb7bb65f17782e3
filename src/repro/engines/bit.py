"""The Bit-GraphBLAS engine: B2SR kernels with modeled costs.

Mirrors the paper's execution structure (§V): one fused BMV launch per
iteration (mask applied before the output store, no early exit) plus a
single small elementwise kernel to update frontier/visited state, against
GraphBLAST's multi-kernel iterations.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    unpack_bitmatrix,
    unpack_bitvector,
)
from repro.formats.b2sr import B2SRMatrix
from repro.formats.stats import bandwidth_profile
from repro.graph import Graph
from repro.gpusim.device import GTX1080, DeviceSpec
from repro.engines.base import Engine
from repro.kernels.bmm import bmm_bin_bin_sum_masked, bmm_pair_count
from repro.kernels.bmv import (
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_bin_multi_masked,
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
)
from repro.kernels.costmodel import bmm_stats, bmv_stats, ewise_dense_stats
from repro.semiring import Semiring, value_dtype


class BitEngine(Engine):
    """Bit-GraphBLAS execution over B2SR.

    Parameters
    ----------
    graph:
        The input graph; B2SR forms are built (and cached on the graph) at
        the engine's ``tile_dim``.
    device:
        Simulated GPU.
    tile_dim:
        B2SR variant; the paper sweeps 4–32 and so do the ablation benches.
    skip_inactive:
        ``True`` (the default, the serving stack's mode) runs every sweep
        with the exact active-tile skip: the kernels consult the packed
        frontier / value operand, elide tiles whose input is the add
        identity and report the active count the cost model charges.
        ``False`` sweeps every stored tile, as the paper's kernels do;
        the reproduction harnesses pin it for paper-faithful costs.
        Results are bitwise identical in both modes (the elision is
        exact — :mod:`repro.kernels.plan`), and a fully active round
        models the same cost in both.

    :meth:`from_operand` builds the same engine over an already-built
    operand, for worker processes that hold no :class:`Graph`.
    """

    backend_name = "bit"
    #: No round picks a dense sweep on its own; perfbench/ still reads
    #: this count around every engine call.
    auto_dense_rounds = 0

    def __init__(
        self,
        graph: Graph,
        device: DeviceSpec = GTX1080,
        tile_dim: int = 32,
        skip_inactive: bool = True,
    ) -> None:
        super().__init__(graph, device)
        self._bind(
            graph.b2sr_t(tile_dim),
            graph.n,
            np.clip(bandwidth_profile(graph.csr_t)["diag_fraction"], 0, 1),
            skip_inactive,
        )

    @classmethod
    def from_operand(
        cls,
        At: B2SRMatrix,
        *,
        n: int,
        device: DeviceSpec,
        locality: float,
        skip_inactive: bool = True,
    ) -> BitEngine:
        """An engine over a prebuilt transposed B2SR operand ``At`` (a
        worker's attached shared-memory view) with the exporting
        engine's ``n`` and ``locality``.  It has no source graph
        (``graph`` is ``None``): the expands and pulls BFS, SSSP and CC
        run exactly as on the graph-built engine, but :meth:`tc_count`
        and the algorithms that read the graph itself do not."""
        engine = cls.__new__(cls)
        Engine.__init__(engine, None, device)
        engine._bind(At, n, locality, skip_inactive)
        return engine

    def _bind(
        self, At: B2SRMatrix, n: int, locality: float, skip_inactive: bool
    ) -> None:
        if not isinstance(skip_inactive, bool):
            raise ValueError(
                f"skip_inactive must be True or False, got {skip_inactive!r}"
            )
        self.skip_inactive = skip_inactive
        self.tile_dim = At.tile_dim
        self._At = At
        self._n = int(n)
        self._locality = float(locality)

    @property
    def n(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    def warm_plans(self, widths: tuple[int, ...] = (1,)) -> None:
        """Eagerly build the sweep plan for the given batch widths.

        A registered serving graph calls this once so its first query
        already launches against warm chunk tables and the set-bit index
        (:meth:`repro.kernels.plan.SweepPlan.warm`).
        """
        self._At.plan().warm(tuple(widths))

    def _bmv_active(self, counters: dict) -> float | None:
        """Active-tile count for :func:`bmv_stats`: the kernel's count
        under skip, ``None`` (every stored tile) for the full sweep."""
        if not self.skip_inactive:
            return None
        return counters.get("active_tiles", 0.0)

    # ------------------------------------------------------------------
    def frontier_expand(
        self, frontier: np.ndarray, visited: np.ndarray
    ) -> np.ndarray:
        d = self.tile_dim
        # Frontiers arrive as bool vectors; pack_bitvector binarizes any
        # dtype, so no float32 round-trip copy is needed.
        fw = pack_bitvector(frontier, d)
        counters: dict = {}
        yw = bmv_bin_bin_bin_masked(
            self._At, fw, visited, complement=True,
            skip=self.skip_inactive, counters=counters,
        )
        self.add_kernel(
            bmv_stats(
                self._At, "bin_bin_bin_masked", self.device,
                locality=self._locality,
                active_tiles=self._bmv_active(counters),
            )
        )
        # The visited/depth update is fused into the masked BMV's output
        # store (§V: the bitmask is applied right before the store), so the
        # iteration costs a single launch plus an amortized emptiness check.
        self.algorithm_stats.host_us += 0.5
        return unpack_bitvector(yw, d, self.n).astype(bool)

    def pull(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        # float64 payloads (numeric labels) keep their precision; anything
        # else runs in the kernels' native float32.
        dt = value_dtype(x)
        X = np.asarray(x).astype(dt, copy=False)
        counters: dict = {}
        y = bmv_bin_full_full(
            self._At, X, semiring,
            skip=self.skip_inactive, counters=counters,
        )
        stats = bmv_stats(
            self._At, "bin_full_full", self.device,
            locality=self._locality, value_bytes=float(dt.itemsize),
            active_tiles=self._bmv_active(counters),
        )
        self.add_kernel(stats)
        self.note_ewise(vectors=2)
        # Convergence read-back once per iteration (a single flag memcpy —
        # far lighter than GraphBLAST's frontier machinery but not free).
        # It happens *outside* the BMV kernel, so it charges the algorithm
        # row only.
        self.algorithm_stats.host_us += 4.0
        return y

    def frontier_expand_multi(
        self, frontiers: np.ndarray, visiteds: np.ndarray
    ) -> np.ndarray:
        """Batched masked BMV: one tile sweep expands all ``k`` frontiers.

        A single ``bmv_bin_bin_bin_multi_masked`` launch per level is the
        multi-source analogue of the paper's fused BFS iteration — the tile
        index and payloads stream once regardless of ``k``.
        """
        F, V = self._check_multi(frontiers, visiteds)
        d = self.tile_dim
        fw = pack_bitmatrix(F, d)
        counters: dict = {}
        yw = bmv_bin_bin_bin_multi_masked(
            self._At, fw, V, complement=True,
            skip=self.skip_inactive, counters=counters,
        )
        self.add_kernel(
            bmv_stats(
                self._At, "bin_bin_bin_masked", self.device,
                locality=self._locality, k=F.shape[1],
                active_tiles=self._bmv_active(counters),
            )
        )
        self.algorithm_stats.host_us += 0.5
        return unpack_bitmatrix(yw, d, self.n).astype(bool)

    def pull_multi(self, x: np.ndarray, semiring: Semiring) -> np.ndarray:
        """Batched semiring pull: one ``bmv_bin_full_full_multi`` sweep
        serves all ``k`` columns (striped across ``⌈k/d⌉`` value planes
        when the batch exceeds the tile word width) — batched PageRank's,
        multi-source SSSP's and batched FastSV's kernel."""
        dt = value_dtype(x)
        X = np.asarray(x).astype(dt, copy=False)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(
                f"expected ({self.n}, k) vectors, got shape {X.shape}"
            )
        k = X.shape[1]
        counters: dict = {}
        Y = bmv_bin_full_full_multi(
            self._At, X, semiring,
            skip=self.skip_inactive, counters=counters,
        )
        self.add_kernel(
            bmv_stats(
                self._At, "bin_full_full", self.device,
                locality=self._locality, k=k,
                value_bytes=float(dt.itemsize),
                active_tiles=self._bmv_active(counters),
            )
        )
        # One elementwise update over all k columns, one convergence
        # read-back for the whole batch (cf. :meth:`pull`).
        self.add_aux(ewise_dense_stats(self.n * k, self.device, vectors=2))
        self.algorithm_stats.host_us += 4.0
        return Y

    def tc_count(self) -> float:
        sym = self.graph.symmetrized()
        L_csr = sym.csr.extract_lower(strict=True)
        from repro.formats.convert import b2sr_from_csr, transpose_csr

        L = b2sr_from_csr(L_csr, self.tile_dim)
        Lt = b2sr_from_csr(transpose_csr(L_csr), self.tile_dim)
        count = bmm_bin_bin_sum_masked(L, Lt, L)
        self.add_kernel(
            bmm_stats(
                L, Lt, self.device,
                pairs=bmm_pair_count(L, Lt), masked=True,
            )
        )
        self.note_iteration()
        return count
