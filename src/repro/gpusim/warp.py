"""SIMT warp context.

A :class:`WarpContext` is what a kernel function receives per warp: the lane
vector, block/warp coordinates, the warp intrinsics (ballot/shfl/popc/brev)
with instruction accounting, and a handle to global memory.  Kernels
written against it read like the paper's CUDA listings, with per-lane
registers represented as length-32 NumPy vectors.
"""

from __future__ import annotations

import numpy as np

from repro.bitops import intrinsics as _intr
from repro.gpusim.counters import Counters
from repro.gpusim.memory import GlobalMemory

WARP_SIZE = _intr.WARP_SIZE


class WarpContext:
    """Execution context handed to a SIMT kernel, one instance per warp.

    Attributes
    ----------
    bx:
        Block index (the paper's ``bx``).
    warp_in_block:
        Warp index within the block (0 when blocks hold a single warp, the
        warp-consolidation default of §IV).
    laneid:
        ``int64`` vector ``[0..31]``.
    gmem:
        The transaction-counting :class:`GlobalMemory`.
    """

    def __init__(
        self,
        bx: int,
        warp_in_block: int,
        gmem: GlobalMemory,
        counters: Counters,
    ) -> None:
        self.bx = bx
        self.warp_in_block = warp_in_block
        self.laneid = np.arange(WARP_SIZE, dtype=np.int64)
        self.gmem = gmem
        self.counters = counters

    # ------------------------------------------------------------------
    # Warp intrinsics (each call = one warp instruction)
    # ------------------------------------------------------------------
    def popc(self, x: np.ndarray) -> np.ndarray:
        """``__popc`` per lane."""
        self.counters.instructions += 1
        return _intr.popc(np.asarray(x))

    def brev(self, x: np.ndarray, width: int = 32) -> np.ndarray:
        """``__brev`` per lane."""
        self.counters.instructions += 1
        return _intr.brev(x, width=width)

    def ballot_sync(self, pred: np.ndarray) -> int:
        """``__ballot_sync`` across the warp (counts as a sync intrinsic,
        which Volta charges extra for, §VI.E)."""
        self.counters.instructions += 1
        self.counters.sync_intrinsics += 1
        return int(_intr.ballot_sync(np.asarray(pred)))

    def shfl_sync(self, values: np.ndarray, src_lane: int) -> np.ndarray:
        """``__shfl_sync`` broadcast."""
        self.counters.instructions += 1
        self.counters.sync_intrinsics += 1
        return _intr.shfl_sync(np.asarray(values), src_lane)

    def alu(self, n: int = 1) -> None:
        """Charge ``n`` generic warp ALU instructions (adds, ANDs, address
        arithmetic) that the vectorised kernel body performs implicitly."""
        self.counters.instructions += int(n)
