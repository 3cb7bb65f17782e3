"""The 521-matrix evaluation suite.

A deterministic stand-in for "all 521 binary square matrices in the
SuiteSparse Matrix Collection" (§VI.A): category proportions follow
Table V, sizes are log-uniform over a laptop-scale range, and densities
span the collection's 1e-5…1e-1 band (the x-axis range of Figures 6/7
after size scaling).

Entries are lazy: :class:`SuiteEntry` holds the recipe; :meth:`SuiteEntry.build`
materialises the graph on demand so sweeps can stream without holding 521
matrices in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.generators import (
    block_pattern,
    diagonal_pattern,
    dot_pattern,
    hybrid_pattern,
    road_pattern,
    stripe_pattern,
)
from repro.graph import Graph

#: Table V category weights (normalised; the paper's percentages overlap
#: because hybrids combine patterns, so we renormalise the six rows).
CATEGORY_WEIGHTS = {
    "dot": 0.2477,
    "diagonal": 0.3099,
    "block": 0.1686,
    "stripe": 0.0882,
    "road": 0.0350,
    "hybrid": 0.1506,
}

#: Suite size, matching the paper's dataset.
SUITE_SIZE = 521


@dataclass(frozen=True)
class SuiteEntry:
    """Recipe for one suite matrix."""

    index: int
    name: str
    category: str
    n: int
    seed: int
    param: float

    def build(self) -> Graph:
        """Materialise the graph (deterministic)."""
        if self.category == "dot":
            g = dot_pattern(self.n, self.param, seed=self.seed)
        elif self.category == "diagonal":
            g = diagonal_pattern(
                self.n, bandwidth=max(1, int(self.param)), seed=self.seed
            )
        elif self.category == "block":
            g = block_pattern(
                self.n,
                block_size=max(4, int(self.param)),
                seed=self.seed,
                intra_density=0.4 + 0.4 * ((self.seed % 5) / 5.0),
            )
        elif self.category == "stripe":
            g = stripe_pattern(
                self.n, n_stripes=max(2, int(self.param)), seed=self.seed
            )
        elif self.category == "road":
            g = road_pattern(self.n, seed=self.seed)
        elif self.category == "hybrid":
            g = hybrid_pattern(self.n, seed=self.seed)
        else:  # pragma: no cover - recipe construction guards this
            raise ValueError(f"unknown category {self.category!r}")
        return Graph(g.csr, name=self.name, category=self.category)


def evaluation_suite(
    size: int = SUITE_SIZE,
    *,
    min_n: int = 64,
    max_n: int = 4096,
    master_seed: int = 20220222,  # the paper's arXiv v2 date
) -> list[SuiteEntry]:
    """Generate the deterministic suite recipe list.

    Category counts follow :data:`CATEGORY_WEIGHTS`; per-entry sizes are
    log-uniform in ``[min_n, max_n]`` and the pattern parameter varies with
    the index so densities cover the target band.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    rng = np.random.default_rng(master_seed)
    cats = list(CATEGORY_WEIGHTS)
    weights = np.array([CATEGORY_WEIGHTS[c] for c in cats])
    weights = weights / weights.sum()
    counts = np.floor(weights * size).astype(int)
    while counts.sum() < size:  # distribute the rounding remainder
        counts[int(rng.integers(0, len(cats)))] += 1

    entries: list[SuiteEntry] = []
    idx = 0
    for cat, count in zip(cats, counts, strict=True):
        for k in range(count):
            log_n = rng.uniform(np.log(min_n), np.log(max_n))
            n = int(np.exp(log_n))
            seed = int(rng.integers(0, 2**31 - 1))
            if cat == "dot":
                # Log-uniform density 3e-5 .. 3e-2.
                param = float(10 ** rng.uniform(-4.5, -1.5))
            elif cat == "diagonal":
                param = float(rng.integers(1, 9))
            elif cat == "block":
                param = float(rng.choice([8, 16, 24, 32, 48]))
            elif cat == "stripe":
                param = float(rng.integers(2, 8))
            else:
                param = 0.0
            entries.append(
                SuiteEntry(
                    index=idx,
                    name=f"suite{idx:03d}_{cat}",
                    category=cat,
                    n=n,
                    seed=seed,
                    param=param,
                )
            )
            idx += 1
    return entries

