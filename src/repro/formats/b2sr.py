"""Bit-Block Compressed Sparse Row (B2SR) — the paper's contribution (§III).

B2SR is a two-level representation of a binary adjacency matrix:

* **upper level** — a CSR-style index over non-empty ``d × d`` *bit tiles*
  (``TileRowPtr`` / ``TileColInd`` in the paper, ``indptr`` / ``indices``
  here);
* **lower level** — each non-empty tile stored as ``d`` packed bit rows
  (``BitTiles``), one unsigned word of ``d`` bits per row, LSB-first.

The four variants B2SR-4/8/16/32 differ only in ``tile_dim``; their packing
dtypes and per-tile storage match the paper's Table I (with the §III.B
nibble packing halving B2SR-4's bytes).

The computation kernels always walk tile content row-by-row (§III.A), so the
canonical in-memory layout is row-major words; column-major packing — the
Figure 2 conversion default — is exposed through :meth:`B2SRMatrix.colmajor_tiles`
and used by :meth:`B2SRMatrix.transpose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitops.intrinsics import dtype_for_width
from repro.bitops.packing import (
    pack_bits_rowmajor,
    transpose_packed,
    unpack_bits_rowmajor,
)
from repro.bitops.segreduce import run_starts

#: Tile dimensions the paper evaluates (Table I / §III.B).
TILE_DIMS = (4, 8, 16, 32)

#: Logical bytes to store one packed tile row, per tile_dim.  B2SR-4 uses
#: nibble packing (two 4-bit rows per byte), hence 0.5 B/row.
_ROW_BYTES = {4: 0.5, 8: 1.0, 16: 2.0, 32: 4.0}


def bytes_per_tile(tile_dim: int, nibble: bool = True) -> float:
    """Storage bytes of one packed ``d × d`` tile.

    Reproduces Table I: 4×4 → 2 B with nibble packing (32× vs the 64 B of a
    float tile) or 4 B without (16×); 8×8 → 8 B; 16×16 → 32 B; 32×32 → 128 B
    (all 32× vs float).
    """
    if tile_dim not in TILE_DIMS:
        raise ValueError(f"tile_dim must be one of {TILE_DIMS}")
    row_bytes = _ROW_BYTES[tile_dim]
    if tile_dim == 4 and not nibble:
        row_bytes = 1.0
    return tile_dim * row_bytes


@dataclass
class B2SRMatrix:
    """A binary sparse matrix in B2SR format.

    Instances are **immutable**: the three index/payload arrays are
    frozen (read-only) at construction and no method mutates them — every
    transform returns a new matrix.  That makes every derived structure
    (``nnz``, :meth:`tile_row_of`, the :meth:`plan` sweep plan) safe to
    memoize for the lifetime of the matrix; plan invalidation cannot
    arise because there is no mutating API.

    Attributes
    ----------
    nrows, ncols:
        Element-level dimensions (the adjacency matrix is square in the
        paper's setting, but rectangular inputs are supported).
    tile_dim:
        Bit-tile edge length ``d`` ∈ {4, 8, 16, 32}.
    indptr:
        ``TileRowPtr`` — ``int64`` of length ``n_tile_rows + 1``.
    indices:
        ``TileColInd`` — ``int64`` tile-column index of each non-empty tile,
        sorted within each tile row.
    tiles:
        ``BitTiles`` — shape ``(n_tiles, d)``, dtype ``uint8/16/32`` per
        Table I; ``tiles[t, r]`` is the packed row ``r`` of tile ``t``
        (column ``c`` at bit ``c``).
    """

    nrows: int
    ncols: int
    tile_dim: int
    indptr: np.ndarray
    indices: np.ndarray
    tiles: np.ndarray
    _nnz_cache: int | None = field(default=None, repr=False, compare=False)
    _tile_rows_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _colmajor_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _plan_cache: object | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.tiles = np.asarray(self.tiles)
        self._check_geometry(
            self.nrows, self.ncols, self.tile_dim,
            self.indptr, self.indices, self.tiles,
        )
        self.tiles = np.asarray(
            self.tiles, dtype=dtype_for_width(self.tile_dim)
        )
        # Freeze the stored arrays: the memoized derived structures
        # (tile_row_of, the sweep plan) rely on them never changing.
        # A view is copied first — freezing a view leaves its base
        # writable, which would let a caller mutate the matrix through
        # the base and silently invalidate the caches.  Base-owning
        # arrays are frozen in place: constructing a B2SRMatrix takes
        # ownership of them.
        self.indptr = self._own(self.indptr)
        self.indices = self._own(self.indices)
        self.tiles = self._own(self.tiles)

    @staticmethod
    def _check_geometry(
        nrows: int,
        ncols: int,
        tile_dim: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        tiles: np.ndarray,
    ) -> None:
        """The geometry both constructors validate: a supported tile
        dim, ``indptr`` delimiting every tile row's run from 0, one
        ``tile_dim``-word tile per stored index, every tile column in
        range, and no set bit outside the matrix — past ``tile_dim`` in
        a word (B2SR-4's high nibble), in a padding column of the last
        tile column or in a padding row of the last tile row.  A stray
        bit would count in ``nnz`` and feed a pull an entry the matrix
        does not have."""
        if tile_dim not in TILE_DIMS:
            raise ValueError(f"tile_dim must be one of {TILE_DIMS}")
        n_tile_rows = (nrows + tile_dim - 1) // tile_dim
        n_tile_cols = (ncols + tile_dim - 1) // tile_dim
        if indptr.shape != (n_tile_rows + 1,):
            raise ValueError(
                f"indptr must have length {n_tile_rows + 1}, "
                f"got {indptr.shape}"
            )
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing from 0")
        if indptr[-1] != indices.shape[0]:
            raise ValueError("indptr[-1] must equal number of tiles")
        if tiles.shape != (indices.shape[0], tile_dim):
            raise ValueError(
                f"tiles must have shape (n_tiles, {tile_dim}), "
                f"got {tiles.shape}"
            )
        if indices.size and (
            indices.min() < 0 or indices.max() >= n_tile_cols
        ):
            raise ValueError("tile column index out of range")
        if tiles.dtype.kind in "iu" and tiles.dtype.itemsize * 8 > tile_dim:
            if np.any(tiles >> tile_dim):
                raise ValueError("set bit beyond tile_dim in a tile word")
        if ncols % tile_dim:
            edge = tiles[indices == n_tile_cols - 1]
            if np.any(edge >> (ncols % tile_dim)):
                raise ValueError("set bit in a padding column")
        if nrows % tile_dim:
            edge = tiles[indptr[-2]:, nrows % tile_dim:]
            if np.any(edge):
                raise ValueError("set bit in a padding row")

    @staticmethod
    def _own(arr: np.ndarray) -> np.ndarray:
        if arr.base is not None:
            arr = arr.copy()
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_shared_views(
        cls,
        nrows: int,
        ncols: int,
        tile_dim: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        tiles: np.ndarray,
    ) -> "B2SRMatrix":
        """Adopt pre-frozen array *views* without copying.

        The normal constructor copies any view before freezing it
        (:meth:`_own`) so no caller can mutate the matrix through the
        view's base.  The shared-memory attach path
        (:mod:`repro.formats.shm`) needs the opposite: the arrays *are*
        views into a read-only mapped segment, and copying them would
        defeat zero-copy.  This constructor therefore requires every
        array to arrive already read-only with the exact stored dtype,
        runs the same geometry validation as ``__post_init__``, and
        adopts the views as-is.
        """
        cls._check_geometry(nrows, ncols, tile_dim, indptr, indices, tiles)
        for name, arr, dtype in (
            ("indptr", indptr, np.dtype(np.int64)),
            ("indices", indices, np.dtype(np.int64)),
            ("tiles", tiles, dtype_for_width(tile_dim)),
        ):
            if arr.dtype != dtype:
                raise ValueError(f"{name} must be {dtype}, got {arr.dtype}")
            if arr.flags.writeable:
                raise ValueError(f"{name} must be read-only to be adopted")
        mat = cls.__new__(cls)
        mat.nrows = nrows
        mat.ncols = ncols
        mat.tile_dim = tile_dim
        mat.indptr = indptr
        mat.indices = indices
        mat.tiles = tiles
        mat._nnz_cache = None
        mat._tile_rows_cache = None
        mat._colmajor_cache = None
        mat._plan_cache = None
        return mat

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def n_tile_rows(self) -> int:
        """``nTileRow = (nRows + tileDim - 1) / tileDim`` (§III.A)."""
        return (self.nrows + self.tile_dim - 1) // self.tile_dim

    @property
    def n_tile_cols(self) -> int:
        return (self.ncols + self.tile_dim - 1) // self.tile_dim

    @property
    def n_tiles(self) -> int:
        """Number of stored (non-empty) bit tiles."""
        return int(self.indices.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Structural nonzeros = total set bits across all tiles."""
        if self._nnz_cache is None:
            self._nnz_cache = int(np.bitwise_count(self.tiles).sum())
        return self._nnz_cache

    @property
    def density(self) -> float:
        total = self.nrows * self.ncols
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------
    # Paper metrics (§III.C, Figures 3a/3b)
    # ------------------------------------------------------------------
    def nonempty_tile_ratio(self) -> float:
        """Fraction of the tile grid that is non-empty (Figure 3a's y-axis)."""
        total = self.n_tile_rows * self.n_tile_cols
        return self.n_tiles / total if total else 0.0

    def tile_occupancy(self) -> float:
        """Average fraction of set bits inside non-empty tiles (Figure 3b)."""
        if self.n_tiles == 0:
            return 0.0
        return self.nnz / (self.n_tiles * self.tile_dim ** 2)

    def tile_row_lengths(self) -> np.ndarray:
        """Non-empty tiles per tile row (load-balance statistic)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # Storage accounting (Table I, Figure 5)
    # ------------------------------------------------------------------
    def storage_bytes(self, nibble: bool = True) -> float:
        """Total B2SR bytes: index arrays (int32, cuSPARSE convention) plus
        packed tiles."""
        return (
            4.0 * (self.n_tile_rows + 1)
            + 4.0 * self.n_tiles
            + self.n_tiles * bytes_per_tile(self.tile_dim, nibble=nibble)
        )

    # ------------------------------------------------------------------
    # Content access
    # ------------------------------------------------------------------
    def tile_row_of(self) -> np.ndarray:
        """Tile-row id of each stored tile (expanded ``indptr``).

        Memoized: the index arrays are frozen post-init, so the expansion
        is launch-invariant.  The returned array is read-only — callers
        that historically re-derived it on every kernel launch (the BMV
        chunk sweeps, BMM pair joins, transpose) now share one copy.
        """
        if self._tile_rows_cache is None:
            rows = np.repeat(
                np.arange(self.n_tile_rows, dtype=np.int64),
                np.diff(self.indptr),
            )
            rows.flags.writeable = False
            self._tile_rows_cache = rows
        return self._tile_rows_cache

    def set_bits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every set bit as ``(tile, row, col)`` — its stored tile and
        its matrix coordinates — in row-major (CSR) order, all ``intp``.

        Only the nonzero words are expanded.  One stable sort orders
        them by output row; ties keep tile order, which within a tile
        row is column order.  Each word then unpacks LSB-first, column
        order again.  Work and scratch scale with the set words (one
        byte per bit of the storage word) and bits, not with the
        ``n_tiles · d²`` cells: the paper's point that a tile's
        connectivity lives in its few set bits (§III.C).
        """
        d = self.tile_dim
        words = self.tiles.ravel()
        # Boolean masks take NumPy's fast nonzero path; integer and
        # 2-D inputs take a generic one several times slower.
        w = np.flatnonzero(words != 0)
        t, r = np.divmod(w, d)
        wrow = self.tile_row_of()[t] * d + r
        order = np.argsort(wrow, kind="stable")
        w, t, wrow = w[order], t[order], wrow[order]
        le = words[w].astype(words.dtype.newbyteorder("<"), copy=False)
        # Word i's bit j lands at i · width + j.
        bits = np.unpackbits(le.view(np.uint8), bitorder="little")
        e, c = np.divmod(np.flatnonzero(bits.view(bool)), 8 * words.itemsize)
        tile = t[e]
        col = self.indices[tile] * d + c
        return (
            tile,
            wrow[e].astype(np.intp, copy=False),
            col.astype(np.intp, copy=False),
        )

    def plan(self) -> "object":
        """The memoized :class:`repro.kernels.plan.SweepPlan` for this
        matrix — every launch-invariant precomputation the BMV/BMM
        kernels need (chunk tables, set-bit index, masked-gather index,
        scratch).  Built lazily on first use; valid forever because the
        matrix is immutable.
        """
        if self._plan_cache is None:
            from repro.kernels.plan import SweepPlan

            self._plan_cache = SweepPlan(self)
        return self._plan_cache

    def colmajor_tiles(self) -> np.ndarray:
        """The Figure 2 column-major packing of every tile: word ``c`` holds
        column ``c``.  Same dtype/shape as :attr:`tiles`.

        Memoized (read-only, like :meth:`tile_row_of`): the BMM tile
        sweep gathers this on every launch.
        """
        if self._colmajor_cache is None:
            cm = transpose_packed(self.tiles, self.tile_dim)
            cm.flags.writeable = False
            self._colmajor_cache = cm
        return self._colmajor_cache

    def tile_dense(self, t: int) -> np.ndarray:
        """Unpack stored tile ``t`` to a dense ``(d, d)`` uint8 array."""
        if not 0 <= t < self.n_tiles:
            raise IndexError(f"tile {t} out of range for {self.n_tiles}")
        return unpack_bits_rowmajor(self.tiles[t], self.tile_dim)

    def to_dense(self) -> np.ndarray:
        """Materialise the full matrix as float32 0/1 entries."""
        d = self.tile_dim
        # One fancy-index scatter into the (tile_row, tile_col, d, d)
        # grid replaces the former per-tile Python loop; stored tile
        # coordinates are unique, so the assignment never collides.
        padded = np.zeros(
            (self.n_tile_rows, self.n_tile_cols, d, d), dtype=np.float32
        )
        if self.n_tiles:
            padded[self.tile_row_of(), self.indices] = unpack_bits_rowmajor(
                self.tiles, d
            )
        full = padded.transpose(0, 2, 1, 3).reshape(
            self.n_tile_rows * d, self.n_tile_cols * d
        )
        return full[: self.nrows, : self.ncols]

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "B2SRMatrix":
        """Transpose by CSR→CSC of the tile index plus per-tile bit
        transpose (§III.A merit 1)."""
        trows = self.tile_row_of()
        tcols = self.indices
        # Sort stored tiles by (col, row): the transposed CSR ordering.
        order = np.lexsort((trows, tcols))
        new_rows = tcols[order]
        new_cols = trows[order]
        new_tiles = transpose_packed(self.tiles[order], self.tile_dim)
        counts = np.bincount(new_rows, minlength=self.n_tile_cols)
        indptr = np.zeros(self.n_tile_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return B2SRMatrix(
            self.ncols, self.nrows, self.tile_dim,
            indptr, new_cols, new_tiles,
        )

    def ewise_and(self, other: "B2SRMatrix") -> "B2SRMatrix":
        """Elementwise AND (structural intersection) of two B2SR matrices
        with identical geometry — the masking primitive for
        ``bmm_bin_bin_sum_masked``."""
        if (
            self.shape != other.shape
            or self.tile_dim != other.tile_dim
        ):
            raise ValueError("ewise_and requires identical shape and tile_dim")
        a_keys = self.tile_row_of() * self.n_tile_cols + self.indices
        b_keys = other.tile_row_of() * other.n_tile_cols + other.indices
        common, ia, ib = np.intersect1d(
            a_keys, b_keys, assume_unique=True, return_indices=True
        )
        anded = self.tiles[ia] & other.tiles[ib]
        keep = np.bitwise_count(anded).sum(axis=1) > 0
        common = common[keep]
        anded = anded[keep]
        rows = (common // self.n_tile_cols).astype(np.int64)
        cols = (common % self.n_tile_cols).astype(np.int64)
        counts = np.bincount(rows, minlength=self.n_tile_rows)
        indptr = np.zeros(self.n_tile_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return B2SRMatrix(
            self.nrows, self.ncols, self.tile_dim, indptr, cols, anded
        )

    @classmethod
    def from_tiles(
        cls,
        nrows: int,
        ncols: int,
        tile_dim: int,
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        dense_tiles: np.ndarray,
        *,
        packed: bool = False,
    ) -> "B2SRMatrix":
        """Assemble from per-tile coordinates and tile contents.

        Tiles are sorted into canonical (row, col) order; duplicate
        coordinates are OR-combined.  ``dense_tiles`` holds dense
        ``(…, d, d)`` 0/1 tiles by default; with ``packed=True`` it is
        an ``(n_tiles, d)`` array of already row-major-packed words
        (the delta path carries untouched tiles over without ever
        unpacking them).
        """
        tr = np.asarray(tile_rows, dtype=np.int64)
        tc = np.asarray(tile_cols, dtype=np.int64)
        if packed:
            # The caller's dtype is kept, so the constructor's geometry
            # check sees every bit before the cast to the stored width.
            words = np.asarray(dense_tiles)
            if words.ndim == 1:
                words = words[None, :]
            if words.ndim != 2 or words.shape[1] != tile_dim:
                raise ValueError(
                    f"packed tiles must have shape (n_tiles, {tile_dim}), "
                    f"got {words.shape}"
                )
        else:
            words = pack_bits_rowmajor(np.asarray(dense_tiles))
            if words.ndim == 1:
                words = words[None, :]
        n_tile_rows = (nrows + tile_dim - 1) // tile_dim
        n_tile_cols = (ncols + tile_dim - 1) // tile_dim
        keys = tr * n_tile_cols + tc
        order = np.argsort(keys, kind="stable")
        keys, words = keys[order], words[order]
        # Duplicate coordinates collapse with one OR-reduction over the
        # sorted key runs (every run is non-empty by construction).
        start = run_starts(keys)
        uniq = keys[start]
        merged = np.bitwise_or.reduceat(words, start, axis=0)
        rows = (uniq // n_tile_cols).astype(np.int64)
        cols = (uniq % n_tile_cols).astype(np.int64)
        counts = np.bincount(rows, minlength=n_tile_rows)
        indptr = np.zeros(n_tile_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(nrows, ncols, tile_dim, indptr, cols, merged)

    @classmethod
    def empty(cls, nrows: int, ncols: int, tile_dim: int) -> "B2SRMatrix":
        n_tile_rows = (nrows + tile_dim - 1) // tile_dim
        return cls(
            nrows, ncols, tile_dim,
            np.zeros(n_tile_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, tile_dim), dtype=dtype_for_width(tile_dim)),
        )
