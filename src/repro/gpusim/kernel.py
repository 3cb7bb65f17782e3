"""SIMT kernel launcher.

``launch_kernel`` runs a Python kernel function once per warp over a grid of
thread blocks, exactly like a CUDA ``<<<grid, block>>>`` launch under the
warp-consolidation model the paper adopts (§IV: one warp per block by
default; 32 warps per block for the shared-memory BMV variant).

The launcher is an *execution model*, not a performance model: it produces
bit-exact results plus measured :class:`repro.gpusim.counters.Counters`.
Timing comes from feeding those counters to :mod:`repro.gpusim.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.gpusim.cache import SetAssociativeCache
from repro.gpusim.counters import Counters, KernelStats
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.warp import WarpContext


@dataclass
class KernelLaunch:
    """Result of a simulated launch: measured counters and derived stats."""

    counters: Counters
    stats: KernelStats
    grid: int
    warps_per_block: int


def launch_kernel(
    kernel: Callable[[WarpContext], None],
    grid: int,
    gmem: GlobalMemory,
    *,
    warps_per_block: int = 1,
    device: DeviceSpec | None = None,
    model_caches: bool = False,
    tag: str = "",
) -> KernelLaunch:
    """Execute ``kernel`` for every (block, warp) pair.

    Parameters
    ----------
    kernel:
        Callable taking a :class:`WarpContext`; lane registers are length-32
        vectors.
    grid:
        Number of thread blocks.
    gmem:
        Global memory with the input/output buffers registered.
    warps_per_block:
        1 for the warp-consolidation kernels, 32 for the shared-memory
        ``bmv_bin_full_full`` layout (§IV "we set the thread block to
        contain 1024 threads").
    device, model_caches:
        When both are given, a set-associative L1/L2 pair sized from the
        device spec measures hit rates during execution (the §VI.C
        experiment).
    """
    if grid < 0:
        raise ValueError(f"grid must be non-negative, got {grid}")
    counters = gmem.counters
    if model_caches:
        if device is None:
            raise ValueError("model_caches requires a device spec")
        gmem.l1 = SetAssociativeCache(device.l1_bytes, ways=4)
        gmem.l2 = SetAssociativeCache(device.l2_bytes, ways=16)
    for bx in range(grid):
        for w in range(warps_per_block):
            kernel(WarpContext(bx, w, gmem, counters))
    stats = counters.to_kernel_stats(launches=1, tag=tag)
    return KernelLaunch(
        counters=counters,
        stats=stats,
        grid=grid,
        warps_per_block=warps_per_block,
    )
