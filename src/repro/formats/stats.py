"""Storage and tiling statistics (§III.C, §VI.B).

These metrics drive the paper's Figures 3 and 5 and the sampling advisor:
CSR baseline bytes, B2SR bytes per tile size, compression ratio
(``B2SR size / CSR size`` — lower is better), non-empty tile ratio and
nonzero occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.b2sr import B2SRMatrix, TILE_DIMS
from repro.formats.convert import b2sr_from_csr
from repro.formats.csr import CSRMatrix


def csr_storage_bytes(csr: CSRMatrix, value_bytes: int = 4) -> int:
    """CSR bytes under the GPU-framework convention the paper compares
    against: ``value_bytes`` per value (4 = float, 8 = double), int32
    indices and indptr."""
    return (
        4 * (csr.nrows + 1) + 4 * csr.nnz + value_bytes * csr.nnz
    )


@dataclass(frozen=True)
class FormatStats:
    """Per-(matrix, tile_dim) statistics bundle."""

    tile_dim: int
    nrows: int
    ncols: int
    nnz: int
    n_tiles: int
    n_tile_rows: int
    csr_bytes: int
    b2sr_bytes: float

    @property
    def compression_ratio(self) -> float:
        """``B2SR size / CSR size`` (Figure 5a's x-axis); < 1 means B2SR is
        smaller."""
        return self.b2sr_bytes / self.csr_bytes if self.csr_bytes else 0.0

    @property
    def nonempty_tile_ratio(self) -> float:
        n_tile_cols = (self.ncols + self.tile_dim - 1) // self.tile_dim
        total = self.n_tile_rows * n_tile_cols
        return self.n_tiles / total if total else 0.0

    @property
    def tile_occupancy(self) -> float:
        if self.n_tiles == 0:
            return 0.0
        return self.nnz / (self.n_tiles * self.tile_dim ** 2)


def b2sr_stats(
    mat: B2SRMatrix, csr_bytes: int | None = None
) -> FormatStats:
    """Statistics of an already-converted B2SR matrix.

    ``csr_bytes`` defaults to the float-CSR size implied by the matrix's own
    nnz (the paper's compression-ratio denominator).
    """
    nnz = mat.nnz
    if csr_bytes is None:
        csr_bytes = 4 * (mat.nrows + 1) + 8 * nnz
    return FormatStats(
        tile_dim=mat.tile_dim,
        nrows=mat.nrows,
        ncols=mat.ncols,
        nnz=nnz,
        n_tiles=mat.n_tiles,
        n_tile_rows=mat.n_tile_rows,
        csr_bytes=int(csr_bytes),
        b2sr_bytes=mat.storage_bytes(),
    )


def stats_for_all_tile_dims(csr: CSRMatrix) -> dict[int, FormatStats]:
    """Convert ``csr`` to each B2SR variant and collect stats — one matrix's
    worth of Figure 3 / Figure 5 raw data."""
    base = csr_storage_bytes(csr)
    out: dict[int, FormatStats] = {}
    for d in TILE_DIMS:
        mat = b2sr_from_csr(csr, d)
        out[d] = b2sr_stats(mat, csr_bytes=base)
    return out


def optimal_tile_dim(csr: CSRMatrix) -> int:
    """Tile size minimising B2SR bytes (Figure 5b's "optimal")."""
    stats = stats_for_all_tile_dims(csr)
    return min(TILE_DIMS, key=lambda d: stats[d].b2sr_bytes)


def bandwidth_profile(csr: CSRMatrix) -> dict[str, float]:
    """Structural summary used by the pattern classifier: mean |i-j| offset,
    offset spread, row-length variance, etc."""
    if csr.nnz == 0:
        return {
            "mean_abs_offset": 0.0,
            "offset_std": 0.0,
            "row_len_mean": 0.0,
            "row_len_cv": 0.0,
            "diag_fraction": 0.0,
        }
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
    )
    offsets = (csr.indices - rows).astype(np.float64)
    n = max(csr.nrows, csr.ncols)
    lens = np.diff(csr.indptr).astype(np.float64)
    mean_len = lens.mean() if lens.size else 0.0
    cv = float(lens.std() / mean_len) if mean_len > 0 else 0.0
    near = np.abs(offsets) <= max(1.0, 0.02 * n)
    return {
        "mean_abs_offset": float(np.abs(offsets).mean() / max(n, 1)),
        "offset_std": float(offsets.std() / max(n, 1)),
        "row_len_mean": float(mean_len),
        "row_len_cv": cv,
        "diag_fraction": float(near.mean()),
    }
