"""Analytic cache-hit estimation.

The cost model needs to split requested bytes between L1, L2 and DRAM.
Exact cache simulation is neither necessary nor desirable for a sweep over
hundreds of matrices; instead we use a standard working-set argument:

* a *streamed* array (read once, coalesced) always comes from DRAM;
* a *reused* array of working-set ``ws`` bytes accessed many times from a
  cache of ``cap`` bytes hits with probability ≈ ``min(1, cap/ws)`` — the
  fraction of the set that fits;
* *gathers* (e.g. the ``x[colind]`` accesses of CSR SpMV) additionally
  depend on spatial locality: each 32-byte sector fetched serves on average
  ``min(sector/stride, lanes)`` useful elements, where the stride comes from
  the matrix's column-offset spread.

This module also contains a small set-associative cache simulator used by
the SIMT executor to validate the analytic numbers on small inputs.
"""

from __future__ import annotations

import numpy as np

#: Memory transaction (sector) size on both architectures, bytes.
SECTOR_BYTES = 32
#: Cache line size, bytes (§IV "128 bytes, equal to the cache line size").
LINE_BYTES = 128


def hit_fraction(working_set_bytes: float, cache_bytes: float) -> float:
    """Working-set hit-rate estimate for a repeatedly accessed array.

    ``min(1, cap/ws)`` with a mild concavity (LRU caches do a bit better
    than random eviction on skewed reuse).
    """
    if working_set_bytes <= 0:
        return 1.0
    ratio = cache_bytes / working_set_bytes
    if ratio >= 1.0:
        return 1.0
    return float(min(1.0, ratio ** 0.85))


def gather_hit_fraction(
    working_set_bytes: float,
    cache_bytes: float,
    locality: float,
) -> float:
    """Hit rate for indexed gathers (vector accesses in SpMV).

    ``locality`` ∈ [0, 1] summarises how clustered the gather indices are
    (1 = consecutive columns, 0 = uniform random).  A fully local gather is
    a stream with perfect sector reuse; a random gather over a set larger
    than the cache misses almost always.
    """
    locality = float(np.clip(locality, 0.0, 1.0))
    base = hit_fraction(working_set_bytes, cache_bytes)
    # Random gathers also waste most of each sector; fold that into a lower
    # effective hit rate.
    return float(locality + (1.0 - locality) * base * 0.5)


class SetAssociativeCache:
    """Small LRU set-associative cache for the SIMT executor.

    Used to *measure* hit rates on small matrices (validating the analytic
    model, and reproducing the §VI.C mycielskian8 case study).  Addresses
    are byte addresses; granularity is one line.
    """

    def __init__(
        self, capacity_bytes: int, ways: int = 4, line_bytes: int = LINE_BYTES
    ) -> None:
        if capacity_bytes <= 0 or ways <= 0:
            raise ValueError("capacity and ways must be positive")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(1, capacity_bytes // (line_bytes * ways))
        # Each set is an ordered list of tags (LRU at index 0).
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch one address; returns True on hit."""
        line = addr // self.line_bytes
        idx = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[idx]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.ways:
            ways.pop(0)
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0


def coalesced_transactions(addresses: np.ndarray, access_bytes: int) -> int:
    """Number of 32-byte sectors one warp access touches.

    This is the coalescing rule of both Pascal and Volta: a warp's 32 lane
    addresses are combined and serviced sector by sector.
    """
    addrs = np.asarray(addresses, dtype=np.int64)
    if addrs.size == 0:
        return 0
    lo = addrs
    hi = addrs + access_bytes - 1
    sectors = np.unique(
        np.concatenate([lo // SECTOR_BYTES, hi // SECTOR_BYTES])
    )
    return int(sectors.shape[0])
