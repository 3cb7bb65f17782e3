"""Bit-plane decomposition of short-bit-width weighted matrices (§VII).

A sparse matrix whose weights are integers in ``[0, 2^k)`` decomposes into
``k`` binary matrices ("planes"): plane ``i`` holds bit ``i`` of each
weight.  Each plane is stored in B2SR, and the weighted SpMV

``y = A·x = Σ_i 2^i · (plane_i ·_bin x)``

runs as ``k`` concurrent BMV calls — the quantised-network trick the paper
cites [APNN-TC] transplanted to graphs.  Storage is ``k`` bits per stored
weight instead of 32, and the kernels stay the bit kernels.

Only the arithmetic product is provided (:func:`bitplane_spmv`).  The
min-plus semiring would lift too — for SSSP over small integer weights,
``mult(a, x) = x + a`` needs each nonzero's weight reconstructed from its
plane bits before the min-reduction — but no such path exists here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.b2sr import B2SRMatrix, TILE_DIMS
from repro.formats.convert import b2sr_from_csr
from repro.formats.csr import CSRMatrix
from repro.kernels.bmv import bmv_bin_full_full
from repro.semiring import ARITHMETIC


@dataclass
class BitPlaneMatrix:
    """A ``k``-bit weighted sparse matrix as B2SR bit planes.

    Attributes
    ----------
    nrows, ncols:
        Matrix dimensions.
    bits:
        Weight bit-width ``k``.
    planes:
        List of ``k`` :class:`B2SRMatrix`; ``planes[i]`` holds bit ``i``.
    """

    nrows: int
    ncols: int
    bits: int
    planes: list[B2SRMatrix]

    def __post_init__(self) -> None:
        if self.bits != len(self.planes):
            raise ValueError(
                f"bits={self.bits} but {len(self.planes)} planes given"
            )
        for p in self.planes:
            if p.shape != (self.nrows, self.ncols):
                raise ValueError("all planes must share the matrix shape")

    @property
    def tile_dim(self) -> int:
        return self.planes[0].tile_dim if self.planes else 32

    @property
    def nnz(self) -> int:
        """Structural nonzeros (union over planes)."""
        if not self.planes:
            return 0
        union = self.planes[0].to_dense() != 0
        for p in self.planes[1:]:
            union |= p.to_dense() != 0
        return int(union.sum())

    def storage_bytes(self) -> float:
        """Total bytes across planes — ``~k/32`` of a float CSR payload."""
        return sum(p.storage_bytes() for p in self.planes)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the integer weight matrix."""
        out = np.zeros((self.nrows, self.ncols), dtype=np.float32)
        for i, p in enumerate(self.planes):
            out += (2.0 ** i) * p.to_dense()
        return out


def bitplane_from_csr(
    csr: CSRMatrix, bits: int, tile_dim: int = 32
) -> BitPlaneMatrix:
    """Decompose an integer-weighted CSR matrix into ``bits`` B2SR planes.

    Weights must be integers in ``[0, 2^bits)``; a weight of 0 is treated
    as no edge (dropped from every plane).
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in 1..16, got {bits}")
    if tile_dim not in TILE_DIMS:
        raise ValueError(f"tile_dim must be one of {TILE_DIMS}")
    w = csr.data
    if np.any(w != np.round(w)) or np.any(w < 0):
        raise ValueError("weights must be non-negative integers")
    if np.any(w >= 2 ** bits):
        raise ValueError(
            f"weights must fit {bits} bits (max {2 ** bits - 1}), "
            f"got max {int(w.max())}"
        )
    iw = w.astype(np.int64)
    planes: list[B2SRMatrix] = []
    for i in range(bits):
        keep = ((iw >> i) & 1).astype(bool)
        # Build the plane's CSR directly by filtering nonzeros.
        counts = np.zeros(csr.nrows, dtype=np.int64)
        rows = np.repeat(
            np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
        )
        np.add.at(counts, rows[keep], 1)
        indptr = np.zeros(csr.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        plane_csr = CSRMatrix(
            csr.nrows, csr.ncols, indptr, csr.indices[keep],
            np.ones(int(keep.sum()), dtype=np.float32),
        )
        planes.append(b2sr_from_csr(plane_csr, tile_dim))
    return BitPlaneMatrix(csr.nrows, csr.ncols, bits, planes)


def bitplane_spmv(mat: BitPlaneMatrix, x: np.ndarray) -> np.ndarray:
    """Weighted SpMV ``y = A·x`` via per-plane BMV calls.

    ``y = Σ_i 2^i · bmv_bin_full_full(plane_i, x, arithmetic)`` — each
    plane's product is the paper's full-precision BMV, so the whole
    operation inherits the bit kernels' memory behaviour.
    """
    xv = np.asarray(x, dtype=np.float32)
    if xv.shape != (mat.ncols,):
        raise ValueError(
            f"vector must have shape ({mat.ncols},), got {xv.shape}"
        )
    y = np.zeros(mat.nrows, dtype=np.float64)
    for i, plane in enumerate(mat.planes):
        y += (2.0 ** i) * bmv_bin_full_full(
            plane, xv, ARITHMETIC
        ).astype(np.float64)
    return y.astype(np.float32)


def bitplane_spmv_reference(
    dense_weights: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Dense oracle for :func:`bitplane_spmv`."""
    return (
        np.asarray(dense_weights, dtype=np.float64)
        @ np.asarray(x, dtype=np.float64)
    ).astype(np.float32)
