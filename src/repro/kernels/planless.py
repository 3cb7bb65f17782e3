"""Planless seed BMV kernels — the bitwise reference for the plan layer.

These are the pre-plan implementations of the BMV schemes, preserved
verbatim: every launch re-derives the sweep layout (the ``np.repeat``
tile-row expansion, chunk run starts/rows, value-gather indices) and
re-unpacks the matrix bits — exactly what :mod:`repro.kernels.bmv` did
before :class:`repro.kernels.plan.SweepPlan` existed.

They exist for two reasons:

* **contract** — the plan-backed kernels (warm or cold, dense or
  active-tile-skip) must return *bitwise identical* results; the test
  suite asserts every scheme × semiring × tile dim × batch width against
  these functions;
* **baseline** — ``benchmarks/bench_plans.py`` times repeated launches
  here against warm-plan launches to measure what the plan subsystem
  actually saves.

The three batched packed seeds keep their tile sweeps over the seed's
tile-lane columns (column ``j`` of a ``(⌈n/d⌉, k)`` array is vector
``j`` packed as :func:`repro.bitops.packing.pack_bitvector` does).  They
take and return the kernels' batch words
(:func:`repro.bitops.packing.pack_bitmatrix`) and convert at their
boundary, through private copies of the seed packer and unpacker.

Do not add features here; new work goes in :mod:`repro.kernels.bmv`.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import _pack_lanes, ballot_sync, dtype_for_width
from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    plane_slices,
    unpack_bitmatrix,
    unpack_bits_rowmajor,
)
from repro.bitops.segreduce import run_starts, segment_reduce
from repro.formats.b2sr import B2SRMatrix
from repro.kernels import plan as _plan
from repro.kernels.bmv import (
    _check_mat_words,
    _check_vec_words,
    _resolve_mask,
    _resolve_mask_matrix,
)
from repro.kernels.plan import _chunk, _row_aligned_chunks
from repro.semiring import ARITHMETIC, Semiring, value_dtype


def _tile_row_of(A: B2SRMatrix) -> np.ndarray:
    """The seed per-launch tile-row expansion (no memoization)."""
    return np.repeat(
        np.arange(A.n_tile_rows, dtype=np.int64), np.diff(A.indptr)
    )


def _seed_pack_bitmatrix(x: np.ndarray, tile_dim: int) -> np.ndarray:
    """The seed batch packer: ``(n, k)`` → ``(⌈n/d⌉, k)`` tile-lane
    columns, column ``j`` packed as ``pack_bitvector(x[:, j])``."""
    v = np.asarray(x)
    n, k = v.shape
    nwords = (n + tile_dim - 1) // tile_dim
    bits = np.zeros((nwords * tile_dim, k), dtype=bool)
    bits[:n] = v != 0
    lanes = np.ascontiguousarray(
        bits.reshape(nwords, tile_dim, k).transpose(0, 2, 1)
    )
    return _pack_lanes(lanes, tile_dim)


def _seed_unpack_bitmatrix(
    words: np.ndarray, tile_dim: int, n: int
) -> np.ndarray:
    """Inverse of :func:`_seed_pack_bitmatrix`: 0/1 uint8 ``(n, k)``."""
    dt = dtype_for_width(tile_dim).newbyteorder("<")
    w = np.ascontiguousarray(words, dtype=dt)
    octets = w.view(np.uint8).reshape(w.shape + (dt.itemsize,))
    bits = np.unpackbits(
        np.swapaxes(octets, 1, -1), axis=1, count=tile_dim, bitorder="little"
    )  # (nwords, d, k)
    return bits.reshape(w.shape[0] * tile_dim, w.shape[1])[:n]


def _to_tile_lanes(A: B2SRMatrix, xw: np.ndarray) -> np.ndarray:
    """Batch words ``(ncols, P)`` as the seed's ``(n_tile_cols, P·d)``
    tile-lane columns (one column per lane)."""
    d = A.tile_dim
    return _seed_pack_bitmatrix(unpack_bitmatrix(xw, d, xw.shape[1] * d), d)


def _from_tile_lanes(A: B2SRMatrix, yw: np.ndarray) -> np.ndarray:
    """The seed's ``(n_tile_rows, P·d)`` tile-lane output as batch words
    ``(nrows, P)``."""
    d = A.tile_dim
    return pack_bitmatrix(_seed_unpack_bitmatrix(yw, d, A.nrows), d)


# ---------------------------------------------------------------------------
# Binary output
# ---------------------------------------------------------------------------
def bmv_bin_bin_bin(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    """Seed boolean SpMV (see :func:`repro.kernels.bmv.bmv_bin_bin_bin`)."""
    xw = _check_vec_words(A, x_words)
    if A.n_tiles == 0:
        return np.zeros(A.n_tile_rows, dtype=A.tiles.dtype)
    d = A.tile_dim
    hits = (A.tiles & xw[A.indices, None]) != 0
    contrib = ballot_sync(hits, width=d)
    return segment_reduce(
        np.bitwise_or, contrib, A.indptr, identity=0, dtype=A.tiles.dtype
    )


def bmv_bin_bin_bin_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
) -> np.ndarray:
    valid = _resolve_mask(mask, A.nrows, complement)
    yw = bmv_bin_bin_bin(A, x_words)
    return yw & pack_bitvector(valid, A.tile_dim)


def bmv_bin_bin_bin_multi(
    A: B2SRMatrix, x_words: np.ndarray
) -> np.ndarray:
    xw = _check_mat_words(A, x_words)
    return _from_tile_lanes(
        A, _bmv_bin_bin_bin_multi_core(A, _to_tile_lanes(A, xw))
    )


def _bmv_bin_bin_bin_multi_core(
    A: B2SRMatrix, xw: np.ndarray
) -> np.ndarray:
    k = xw.shape[1]
    out = np.zeros((A.n_tile_rows, k), dtype=A.tiles.dtype)
    if A.n_tiles == 0 or k == 0:
        return out
    d = A.tile_dim
    trows = _tile_row_of(A)
    step = _chunk(min(k, d))
    stripes = plane_slices(k, d)
    for lo in range(0, A.n_tiles, step):
        hi = min(lo + step, A.n_tiles)
        tiles = A.tiles[lo:hi]
        cols = A.indices[lo:hi]
        starts = run_starts(trows[lo:hi])
        rows = trows[lo:hi][starts]
        for sl in stripes:
            hits = (tiles[:, :, None] & xw[:, sl][cols, None, :]) != 0
            contrib = ballot_sync(np.swapaxes(hits, 1, 2), width=d)
            out[rows, sl] |= np.bitwise_or.reduceat(contrib, starts, axis=0)
    return out


def bmv_bin_bin_bin_multi_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    masks: np.ndarray,
    *,
    complement: bool = False,
) -> np.ndarray:
    xw = _check_mat_words(A, x_words)
    valid = _resolve_mask_matrix(A, masks, xw, complement)
    yw = _bmv_bin_bin_bin_multi_core(A, _to_tile_lanes(A, xw))
    lanes = np.zeros((A.nrows, yw.shape[1]), dtype=bool)
    lanes[:, : valid.shape[1]] = valid
    return _from_tile_lanes(A, yw & _seed_pack_bitmatrix(lanes, A.tile_dim))


# ---------------------------------------------------------------------------
# Full-precision output, binary inputs
# ---------------------------------------------------------------------------
def bmv_bin_bin_full(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    xw = _check_vec_words(A, x_words)
    if A.n_tiles == 0:
        return np.zeros(A.nrows, dtype=np.float32)
    counts = np.bitwise_count(A.tiles & xw[A.indices, None]).astype(
        np.float32
    )
    y = segment_reduce(
        np.add, counts, A.indptr, identity=0.0, dtype=np.float32
    )
    return y.reshape(-1)[: A.nrows]


def bmv_bin_bin_full_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
) -> np.ndarray:
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_bin_full(A, x_words)
    y[~valid] = 0.0
    return y


def bmv_bin_bin_full_multi(
    A: B2SRMatrix, x_words: np.ndarray
) -> np.ndarray:
    xw = _to_tile_lanes(A, _check_mat_words(A, x_words))
    k = xw.shape[1]
    d = A.tile_dim
    y = np.zeros((A.n_tile_rows, d, k), dtype=np.float32)
    if A.n_tiles == 0 or k == 0:
        return y.reshape(-1, k)[: A.nrows]
    trows = _tile_row_of(A)
    step = _chunk(min(k, d))
    stripes = plane_slices(k, d)
    for lo in range(0, A.n_tiles, step):
        hi = min(lo + step, A.n_tiles)
        tiles = A.tiles[lo:hi]
        cols = A.indices[lo:hi]
        starts = run_starts(trows[lo:hi])
        rows = trows[lo:hi][starts]
        for sl in stripes:
            counts = np.bitwise_count(
                tiles[:, :, None] & xw[:, sl][cols, None, :]
            ).astype(np.float32)
            y[rows, :, sl] += np.add.reduceat(counts, starts, axis=0)
    return y.reshape(-1, k)[: A.nrows]


# ---------------------------------------------------------------------------
# Full-precision vector (semiring) schemes
# ---------------------------------------------------------------------------
def bmv_bin_full_full(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
) -> np.ndarray:
    dt = value_dtype(x)
    xv = np.asarray(x).astype(dt, copy=False)
    if xv.shape != (A.ncols,):
        raise ValueError(
            f"vector must have shape ({A.ncols},), got {xv.shape}"
        )
    d = A.tile_dim
    y = semiring.empty_output(A.n_tile_rows * d, dtype=dt).reshape(
        A.n_tile_rows, d
    )
    if A.n_tiles == 0:
        return y.reshape(-1)[: A.nrows]

    xpad = np.zeros(A.n_tile_cols * d, dtype=dt)
    xpad[: A.ncols] = xv
    col_offsets = np.arange(d, dtype=np.int64)
    trows = _tile_row_of(A)

    for lo, hi in _row_aligned_chunks(A, _plan._CHUNK_TILES):
        bits = unpack_bits_rowmajor(A.tiles[lo:hi], d).astype(bool)
        seg = xpad[A.indices[lo:hi, None] * d + col_offsets]  # (m, d)
        m = semiring.mult_matrix_one(seg)  # (m, d)
        vals = semiring.reduce_masked(
            np.broadcast_to(m[:, None, :], bits.shape), bits, axis=-1
        ).astype(dt)
        starts = run_starts(trows[lo:hi])
        rows = trows[lo:hi][starts]
        y[rows] = semiring.add(y[rows], semiring.add_reduceat(vals, starts))
    return y.reshape(-1)[: A.nrows]


def bmv_bin_full_full_masked(
    A: B2SRMatrix,
    x: np.ndarray,
    mask: np.ndarray,
    *,
    semiring: Semiring = ARITHMETIC,
    complement: bool = False,
) -> np.ndarray:
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_full_full(A, x, semiring=semiring)
    y[~valid] = semiring.zero
    return y


def bmv_bin_full_full_multi(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
) -> np.ndarray:
    dt = value_dtype(x)
    xv = np.asarray(x).astype(dt, copy=False)
    if xv.ndim != 2 or xv.shape[0] != A.ncols:
        raise ValueError(
            f"vectors must have shape ({A.ncols}, k), got {xv.shape}"
        )
    k = xv.shape[1]
    d = A.tile_dim
    y = semiring.empty_output(A.n_tile_rows * d * k, dtype=dt).reshape(
        A.n_tile_rows, d, k
    )
    if A.n_tiles == 0 or k == 0:
        return y.reshape(-1, k)[: A.nrows]

    xpad = np.zeros((A.n_tile_cols * d, k), dtype=dt)
    xpad[: A.ncols] = xv
    col_offsets = np.arange(d, dtype=np.int64)
    trows = _tile_row_of(A)
    stripes = plane_slices(k, d)
    zero = dt.type(semiring.zero)

    for lo, hi in _row_aligned_chunks(A, _chunk(min(k, d))):
        bits = unpack_bits_rowmajor(A.tiles[lo:hi], d).astype(bool)
        idx = A.indices[lo:hi, None] * d + col_offsets
        starts = run_starts(trows[lo:hi])
        rows = trows[lo:hi][starts]
        for sl in stripes:
            seg = xpad[:, sl][idx]  # (m, d, kp)
            m = semiring.mult_matrix_one(seg)  # (m, d, kp)
            mt = np.swapaxes(m, 1, 2)  # (m, kp, d)
            filled = np.ascontiguousarray(
                np.where(bits[:, :, None, :], mt[:, None, :, :], zero)
            )
            vals = semiring.add_reduce(filled, axis=-1).astype(dt)
            y[rows, :, sl] = semiring.add(
                y[rows, :, sl], semiring.add_reduceat(vals, starts)
            )
    return y.reshape(-1, k)[: A.nrows]


__all__ = [
    "bmv_bin_bin_bin",
    "bmv_bin_bin_bin_masked",
    "bmv_bin_bin_bin_multi",
    "bmv_bin_bin_bin_multi_masked",
    "bmv_bin_bin_full",
    "bmv_bin_bin_full_masked",
    "bmv_bin_bin_full_multi",
    "bmv_bin_full_full",
    "bmv_bin_full_full_masked",
    "bmv_bin_full_full_multi",
]
