"""Format conversions.

The conversion pipeline mirrors the paper's (§III.B): graphs arrive as edge
lists (COO), are compressed to CSR, and are then bit-packed tile-row by
tile-row into B2SR — the role cuSPARSE's ``csr2bsrNnz``/``csr2bsr`` plus the
custom packing kernels play in the original artifact.  Everything is
vectorized NumPy; no per-nonzero Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import dtype_for_width
from repro.formats.b2sr import B2SRMatrix, TILE_DIMS
from repro.formats.bsr import BSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


def csr_from_coo(coo: COOMatrix, combine: str = "last") -> CSRMatrix:
    """Compress a COO matrix to CSR (duplicates merged, rows sorted)."""
    clean = coo.deduplicate(combine=combine)
    counts = np.bincount(clean.rows, minlength=clean.nrows)
    indptr = np.zeros(clean.nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(clean.nrows, clean.ncols, indptr, clean.cols, clean.vals)


def csr_from_dense(dense: np.ndarray) -> CSRMatrix:
    """Dense array → CSR."""
    return csr_from_coo(COOMatrix.from_dense(dense))


def coo_from_csr(csr: CSRMatrix) -> COOMatrix:
    """CSR → COO (row indices expanded from indptr)."""
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
    )
    return COOMatrix(
        csr.nrows, csr.ncols, rows, csr.indices.copy(), csr.data.copy()
    )


def csc_from_csr(csr: CSRMatrix) -> CSCMatrix:
    """CSR → CSC, the ``cusparseScsr2csc`` equivalent used for transpose."""
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
    )
    order = np.lexsort((rows, csr.indices))
    cols_sorted = csr.indices[order]
    counts = np.bincount(cols_sorted, minlength=csr.ncols)
    indptr = np.zeros(csr.ncols + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSCMatrix(
        csr.nrows, csr.ncols, indptr, rows[order], csr.data[order]
    )


def csr_from_csc(csc: CSCMatrix) -> CSRMatrix:
    """CSC → CSR."""
    cols = np.repeat(
        np.arange(csc.ncols, dtype=np.int64), np.diff(csc.indptr)
    )
    order = np.lexsort((cols, csc.indices))
    rows_sorted = csc.indices[order]
    counts = np.bincount(rows_sorted, minlength=csc.nrows)
    indptr = np.zeros(csc.nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(
        csc.nrows, csc.ncols, indptr, cols[order], csc.data[order]
    )


def transpose_csr(csr: CSRMatrix) -> CSRMatrix:
    """CSR transpose via the CSC round-trip."""
    csc = csc_from_csr(csr)
    return CSRMatrix(csr.ncols, csr.nrows, csc.indptr, csc.indices, csc.data)


def _tile_coordinates(
    csr: CSRMatrix, tile_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-nonzero tile coordinates and in-tile offsets."""
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
    )
    cols = csr.indices
    return rows // tile_dim, cols // tile_dim, rows % tile_dim, cols % tile_dim


def b2sr_nnz_tiles(csr: CSRMatrix, tile_dim: int) -> int:
    """Count non-empty bit tiles — the ``cusparseXcsr2bsrNnz`` stand-in."""
    if tile_dim not in TILE_DIMS:
        raise ValueError(f"tile_dim must be one of {TILE_DIMS}")
    trow, tcol, _, _ = _tile_coordinates(csr, tile_dim)
    n_tile_cols = (csr.ncols + tile_dim - 1) // tile_dim
    return int(np.unique(trow * n_tile_cols + tcol).shape[0])


def b2sr_from_csr(csr: CSRMatrix, tile_dim: int) -> B2SRMatrix:
    """CSR → B2SR: the paper's one-time format conversion (§III.B).

    Values are ignored (the matrix is treated as structural/binary, the
    homogeneous-graph setting of §VII).
    """
    if tile_dim not in TILE_DIMS:
        raise ValueError(f"tile_dim must be one of {TILE_DIMS}")
    n_tile_rows = (csr.nrows + tile_dim - 1) // tile_dim
    n_tile_cols = (csr.ncols + tile_dim - 1) // tile_dim
    if csr.nnz == 0:
        return B2SRMatrix.empty(csr.nrows, csr.ncols, tile_dim)

    trow, tcol, in_r, in_c = _tile_coordinates(csr, tile_dim)
    keys = trow * n_tile_cols + tcol
    order = np.argsort(keys, kind="stable")
    keys_s = keys[order]
    uniq, inverse = np.unique(keys_s, return_inverse=True)
    n_tiles = uniq.shape[0]

    # OR each nonzero's bit into (tile, in-row) using a flat uint64 buffer.
    flat = np.zeros(n_tiles * tile_dim, dtype=np.uint64)
    slots = inverse * tile_dim + in_r[order]
    bits = np.uint64(1) << in_c[order].astype(np.uint64)
    np.bitwise_or.at(flat, slots, bits)

    tiles = flat.reshape(n_tiles, tile_dim).astype(dtype_for_width(tile_dim))
    tile_rows = (uniq // n_tile_cols).astype(np.int64)
    tile_cols = (uniq % n_tile_cols).astype(np.int64)
    counts = np.bincount(tile_rows, minlength=n_tile_rows)
    indptr = np.zeros(n_tile_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return B2SRMatrix(csr.nrows, csr.ncols, tile_dim, indptr, tile_cols, tiles)


def b2sr_from_dense(dense: np.ndarray, tile_dim: int) -> B2SRMatrix:
    """Dense 0/1 array → B2SR."""
    return b2sr_from_csr(csr_from_dense(dense), tile_dim)


def csr_from_b2sr(mat: B2SRMatrix) -> CSRMatrix:
    """B2SR → CSR with unit values (round-trip / baseline-comparison path).

    :meth:`B2SRMatrix.set_bits` lists the bits in CSR order already, so
    its columns are the CSR's indices as they stand."""
    _, rows, cols = mat.set_bits()
    indptr = np.zeros(mat.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=mat.nrows), out=indptr[1:])
    return CSRMatrix(
        mat.nrows, mat.ncols, indptr, cols,
        np.ones(cols.size, dtype=np.float32),
    )


def bsr_from_csr(csr: CSRMatrix, block_dim: int) -> BSRMatrix:
    """CSR → BSR with dense float blocks (``cusparseScsr2bsr`` stand-in;
    also the intermediate the paper's packing kernels consume)."""
    if block_dim <= 0:
        raise ValueError(f"block_dim must be positive, got {block_dim}")
    n_block_rows = (csr.nrows + block_dim - 1) // block_dim
    n_block_cols = (csr.ncols + block_dim - 1) // block_dim
    if csr.nnz == 0:
        return BSRMatrix(
            csr.nrows, csr.ncols, block_dim,
            np.zeros(n_block_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, block_dim, block_dim), dtype=np.float32),
        )
    rows = np.repeat(
        np.arange(csr.nrows, dtype=np.int64), np.diff(csr.indptr)
    )
    cols = csr.indices
    brow, bcol = rows // block_dim, cols // block_dim
    keys = brow * n_block_cols + bcol
    order = np.argsort(keys, kind="stable")
    keys_s = keys[order]
    uniq, inverse = np.unique(keys_s, return_inverse=True)
    blocks = np.zeros(
        (uniq.shape[0], block_dim, block_dim), dtype=np.float32
    )
    blocks[
        inverse, rows[order] % block_dim, cols[order] % block_dim
    ] = csr.data[order]
    block_rows = (uniq // n_block_cols).astype(np.int64)
    block_cols = (uniq % n_block_cols).astype(np.int64)
    counts = np.bincount(block_rows, minlength=n_block_rows)
    indptr = np.zeros(n_block_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return BSRMatrix(
        csr.nrows, csr.ncols, block_dim, indptr, block_cols, blocks
    )


def b2sr_from_bsr(bsr: BSRMatrix) -> B2SRMatrix:
    """BSR → B2SR: binarize each dense block and bit-pack it — the final
    stage of the paper's conversion pipeline."""
    if bsr.block_dim not in TILE_DIMS:
        raise ValueError(f"block_dim must be one of {TILE_DIMS}")
    from repro.bitops.packing import pack_bits_rowmajor

    tiles = (
        pack_bits_rowmajor(bsr.blocks)
        if bsr.n_blocks
        else np.empty(
            (0, bsr.block_dim), dtype=dtype_for_width(bsr.block_dim)
        )
    )
    return B2SRMatrix(
        bsr.nrows, bsr.ncols, bsr.block_dim,
        bsr.indptr.copy(), bsr.indices.copy(), tiles,
    )
