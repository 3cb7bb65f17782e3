"""Reusable sweep plans — launch-invariant precomputation for B2SR kernels.

The paper's pitch is that B2SR turns SpMV into cheap, regular bit-sweeps;
the host-side kernels, however, used to re-derive the sweep *layout* on
every launch: the tile-row expansion of ``indptr``, the row-aligned chunk
boundaries, each chunk's run starts / output rows, the value-gather index
``indices·d + col_offsets``, and (for the semiring path) the unpacked
per-tile bit masks.  A serving cluster launches the same kernels against
the same registered graphs thousands of times per run, so that per-launch
overhead dominates the host wall-clock.

:class:`SweepPlan` memoizes everything that depends only on the matrix:

* **chunk tables** — one per chunk step, each chunk holding whole tile
  rows and carrying ``(lo, hi, trows, starts, rows)``.  Every kernel
  folds each output row in exactly one chunk, at the boundaries the
  seed's semiring kernels used (their float folds depend on them);
* **set-bit index** (:class:`SetBitIndex`) — every stored bit's
  padded-operand position in the matrix's CSR order (by output row,
  then column), with the row-run starts, the output rows and each
  entry's owning tile.  The idempotent semirings (min-plus, min-second,
  max-times, boolean) pull through it: ``out[rows] = add_reduceat(
  m[icol], starts)`` touches only the stored bits, O(nnz·k) instead of
  the dense tile expansion's O(tiles·d²·k).  It is built from the
  nonzero words alone (:meth:`B2SRMatrix.set_bits`), in O(tiles·d + set
  words·d) time with scratch bounded by the set words and bits, so a
  rebuild at every epoch swap stays cheap;
* **masked gather** — the dense semiring sweep's one cache: per chunk,
  each tile cell's padded-operand position where its bit is set, else
  an identity sentinel (:meth:`SweepPlan.masked_gather`), under the byte
  budget :data:`DEFAULT_BITS_BUDGET_BYTES`.  Only arithmetic launches
  (and idempotent launches whose operand carries NaN or ``-0.0``), vector
  and batched alike, read it; it builds lazily on first use;
* **sequential folds** — per chunk, the arithmetic add monoid's
  compiled :class:`~repro.bitops.segreduce.SequentialFoldPlan`.

Operand buffers are not plan state: each launch allocates its padded
operand, so a plan holds only what the matrix determines.

(The BMM contraction operand — the column-major tile repacking — is
memoized on the matrix itself, :meth:`B2SRMatrix.colmajor_tiles`.)

Plans attach to the matrix (:meth:`repro.formats.b2sr.B2SRMatrix.plan`)
and can never go stale: B2SR is immutable (the arrays are frozen at
construction), so a warm plan is valid for the lifetime of the matrix.

**Exactness of the set-bit gather.**  Min, max and OR are idempotent,
commutative and associative, so a row's fold over its stored bits has
one answer in any order and grouping — *provided* the multiplied operand
holds no NaN and no ``-0.0``: ``-0.0`` ties ``+0.0`` under min/max (which
of the two survives depends on the order), and NaN payloads propagate
order-dependently.  The kernels check that condition per launch and fall
back to the dense sweep, which reproduces the seed's fold order, when it
fails.  The dense sweep's identity-filled slots add nothing to a min/max
/OR fold, so dropping them changes no bit.  Arithmetic sums are not
order-free and always take the dense sweep.

**Active-tile skip mode.**  The plan also hosts the helpers for the
kernels' frontier-sparsity-aware sweeps: a stored tile whose input word
(packed schemes) or input value segment (semiring schemes) is the add
identity contributes nothing, so its work can be elided.  Three elision
regimes keep results bitwise identical to the dense sweep:

* **fold elision** (the packed vector folds — ``bmv_bin_bin_bin``,
  ``bmv_bin_bin_full`` and their masked forms): bitwise OR is
  associative, commutative and exact, and a popcount sum is an integer
  no larger than its row's degree, which ``float32`` adds exactly in any
  order below 2²⁴; so inactive tiles are dropped from the fold entirely
  and only the surviving run structure is reduced.  The batched packed
  folds run over the set-bit index instead and elide nothing (an
  inactive column's batch words are 0, which the folds absorb); their
  counters report the same per-plane counts (:func:`batch_word_activity`);
* **entry elision** (the semiring set-bit gather): the entries of tiles
  inactive in every value plane are dropped (:meth:`SetBitIndex.select`)
  — they would contribute only the identity to an order-free fold;
* **compute elision** (the dense semiring sweep): the fold *shape* is
  preserved — inactive tiles' contribution slots are pre-filled with the
  add identity, which is exactly the value the dense sweep would compute
  for them — and only the per-tile gather/unpack/combine work is elided.
  Because the folded array is value-identical element-for-element, even
  non-associative float accumulation reproduces the dense sweep bit for
  bit.

Value-operand activity is tested with *bit-level* equality
(:func:`value_activity`): ``-0.0`` is not bit-identical to the
``+0.0`` arithmetic identity and therefore stays active, which is what
makes compute elision provably exact for float sums.  Every mode reports
the same ``active_tiles`` / ``tile_visits`` for the same operand, so the
cost model never sees which host path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.bitops.packing import unpack_bits_rowmajor
from repro.bitops.segreduce import (
    SequentialFoldPlan,
    run_starts,
    segment_sum_sequential,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.b2sr import B2SRMatrix
    from repro.semiring import Semiring

#: Byte budget for the cached masked-gather index of each plan.  A chunk's
#: index costs ``(hi - lo) · d² · 8`` bytes (``intp``); chunks past the
#: budget are built on the fly instead of cached.
DEFAULT_BITS_BUDGET_BYTES = 256 * 1024 * 1024


#: Dense scratch budget per chunk, in tile-row elements; the chunk
#: loops divide this by the *plane width* ``min(k, d)`` — wider batches
#: stripe plane-by-plane over each resident chunk — so peak scratch stays
#: at roughly chunk × d² floats regardless of the batch size.
_CHUNK_TILES = 8192


def _chunk(k: int) -> int:
    """Tiles per chunk so scratch stays ~``_CHUNK_TILES`` row-elements.

    The kernels pass the *plane width* ``min(k, d)`` (1 for a vector)
    rather than the full batch width: planes stripe sequentially over
    each resident chunk, so peak scratch is bounded by one plane
    regardless of ``k``.
    """
    return max(1, _CHUNK_TILES // max(k, 1))


def _row_aligned_chunks(A: B2SRMatrix, step: int):
    """Yield ``(lo, hi)`` tile ranges of ~``step`` tiles whose boundaries
    coincide with tile-row boundaries.

    Row alignment means every tile row is folded by exactly one chunk, so
    the per-chunk segment reduction combines contributions in the same
    left-to-right order as the old global scatter — a row straddling two
    chunks would re-associate the (non-associative) float accumulation.  A
    single row longer than ``step`` becomes one oversized chunk.
    """
    lo = 0
    while lo < A.n_tiles:
        j = int(np.searchsorted(A.indptr, lo + step, side="left"))
        hi = min(int(A.indptr[min(j, A.n_tile_rows)]), A.n_tiles)
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class SweepChunk:
    """One tile chunk of a sweep: boundaries plus the fold structure the
    seed kernels re-derived per launch."""

    lo: int
    hi: int
    #: Tile-row id of each tile in ``[lo, hi)`` (view into the matrix's
    #: memoized expansion).
    trows: np.ndarray
    #: Run starts of equal ``trows`` values, chunk-relative.
    starts: np.ndarray
    #: Output tile row of each run (``trows[starts]``).
    rows: np.ndarray

    @property
    def size(self) -> int:
        return self.hi - self.lo


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SetBitIndex:
    """Every stored bit of a matrix, in the matrix's CSR order.

    Entry ``e`` is set bit ``(r, c)`` of stored tile ``tile[e]``:
    ``icol[e] = indices[tile[e]]·d + c`` is its position in the padded
    value operand and ``irow[e] = trow·d + r`` its output row.  Entries
    are sorted by ``irow`` and, within a row, by ``icol`` — exactly
    ``np.nonzero(A.to_dense())``; ``starts`` opens each run of one
    output row and ``rows`` names it.  An idempotent pull over the
    multiplied operand ``m`` is then one gather and one segment fold::

        out[rows] = semiring.add_reduceat(m[icol], starts)

    All arrays are ``intp`` and read-only.  The geometry check keeps
    every bit inside the matrix, so ``icol.size == A.nnz``.
    """

    icol: np.ndarray
    irow: np.ndarray
    tile: np.ndarray
    starts: np.ndarray
    rows: np.ndarray

    #: Array fields, in export order (:mod:`repro.formats.shm`).
    FIELDS: ClassVar[tuple[str, ...]] = (
        "icol", "irow", "tile", "starts", "rows"
    )

    @classmethod
    def build(cls, A: "B2SRMatrix") -> "SetBitIndex":
        """Index ``A``'s set bits (:meth:`B2SRMatrix.set_bits`), which
        arrive in CSR order, and delimit their row runs.  Only the
        nonzero words are expanded, so time and scratch scale with the
        set words and bits, not with the ``n_tiles · d²`` tile cells."""
        tile, irow, icol = A.set_bits()
        starts = run_starts(irow).astype(np.intp)
        return cls(
            icol=_freeze(icol),
            irow=_freeze(irow),
            tile=_freeze(tile),
            starts=_freeze(starts),
            rows=_freeze(irow[starts]),
        )

    @classmethod
    def adopt(
        cls, A: "B2SRMatrix", arrays: dict[str, np.ndarray]
    ) -> "SetBitIndex":
        """Wrap precomputed arrays (e.g. read-only shared-memory views)
        without copying, after checking they can index ``A``."""
        for name in cls.FIELDS:
            arr = arrays[name]
            if arr.dtype != np.intp or arr.ndim != 1:
                raise ValueError(
                    f"bit index {name!r} must be 1-D {np.dtype(np.intp)}, "
                    f"got {arr.dtype} {arr.shape}"
                )
            if arr.flags.writeable:
                raise ValueError(
                    f"bit index {name!r} must be read-only to be adopted"
                )
        icol, irow, tile = arrays["icol"], arrays["irow"], arrays["tile"]
        starts, rows = arrays["starts"], arrays["rows"]
        nnz = icol.size
        if irow.size != nnz or tile.size != nnz:
            raise ValueError("bit index entry arrays differ in length")
        if rows.size != starts.size or (
            nnz and (starts.size == 0 or starts[0] != 0)
        ):
            raise ValueError("bit index runs must start at entry 0")
        d = A.tile_dim
        if nnz and (
            min(icol.min(), irow.min(), tile.min()) < 0
            or icol.max() >= A.n_tile_cols * d
            or irow.max() >= A.n_tile_rows * d
            or tile.max() >= A.n_tiles
            or starts.max() >= nnz
        ):
            raise ValueError("bit index entry out of range for the matrix")
        return cls(**{name: arrays[name] for name in cls.FIELDS})

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.FIELDS)

    def select(
        self, keep: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(icol, starts, rows)`` restricted to the kept entries (a
        bool per entry: ``tile_active[tile]`` for skip mode's active
        tiles, ``col_changed[icol]`` for a change-driven pull).  Only
        runs that keep an entry remain, so every segment is non-empty as
        ``reduceat`` requires."""
        sel = np.flatnonzero(keep)
        irow = self.irow[sel]
        starts = run_starts(irow)
        return self.icol[sel], starts, irow[starts]


class SweepPlan:
    """Memoized launch-invariant state for one :class:`B2SRMatrix`.

    Everything is built lazily on first use and cached forever (the
    matrix is immutable).
    """

    def __init__(self, matrix: "B2SRMatrix") -> None:
        self.matrix = matrix
        self._chunk_tables: dict[int, tuple[SweepChunk, ...]] = {}
        self._bit_index: SetBitIndex | None = None
        self._gathers: dict[tuple[int, int], np.ndarray] = {}
        self._bits_bytes = 0
        self._folds: dict[tuple[int, int], SequentialFoldPlan] = {}

    # ------------------------------------------------------------------
    # Chunk tables
    # ------------------------------------------------------------------
    def chunks(self, plane_width: int) -> tuple[SweepChunk, ...]:
        """The chunk table for a sweep whose plane carries ``plane_width``
        vectors (``min(k, d)``; scratch is bounded per plane).

        Chunk boundaries snap to tile-row boundaries
        (:func:`_row_aligned_chunks`), so every output row is folded by
        exactly one chunk: float folds never split a row, and every
        kernel assigns its per-chunk fold instead of merging partial
        rows.
        """
        if plane_width < 1:
            raise ValueError(
                f"plane_width must be >= 1, got {plane_width}"
            )
        # Keyed by the resolved chunk step (not the plane width) so the
        # table tracks the live ``_CHUNK_TILES`` setting and plane
        # widths that resolve to one step share a table.
        step = _chunk(plane_width)
        table = self._chunk_tables.get(step)
        if table is None:
            A = self.matrix
            trows_all = A.tile_row_of()
            parts = []
            for lo, hi in _row_aligned_chunks(A, step):
                trows = trows_all[lo:hi]
                starts = _freeze(run_starts(trows))
                rows = _freeze(trows[starts])
                parts.append(SweepChunk(lo, hi, trows, starts, rows))
            table = tuple(parts)
            self._chunk_tables[step] = table
        return table

    # ------------------------------------------------------------------
    # Set-bit index (idempotent semiring path)
    # ------------------------------------------------------------------
    @property
    def bit_index(self) -> SetBitIndex:
        """The matrix's :class:`SetBitIndex`, built once on first use."""
        if self._bit_index is None:
            self._bit_index = SetBitIndex.build(self.matrix)
        return self._bit_index

    def adopt_bit_index(self, arrays: dict[str, np.ndarray]) -> None:
        """Install a precomputed set-bit index without rebuilding it.

        The shared-memory attach path (:mod:`repro.formats.shm`) maps
        the exporter's frozen :attr:`bit_index` arrays into the worker as
        read-only views; adopting them here makes the worker's first
        min/max/OR pull as warm as the exporter's.  The views must be
        read-only ``intp`` arrays sized for this matrix
        (:meth:`SetBitIndex.adopt`); their bits are the exporter's,
        CRC-checked on attach.
        """
        self._bit_index = SetBitIndex.adopt(self.matrix, arrays)

    # ------------------------------------------------------------------
    # Gather indices (dense semiring sweep)
    # ------------------------------------------------------------------
    @property
    def bits_cached_bytes(self) -> int:
        """Bytes currently held by the masked-gather cache."""
        return self._bits_bytes

    def masked_gather(
        self, chunk: SweepChunk, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused gather index of the dense semiring sweep (``(m, d, d)``).

        ``G[t, r, c]`` is the padded-operand position of tile ``t``'s
        column ``c`` where bit ``(r, c)`` is set, else the sentinel slot
        ``n_tile_cols · d`` (which the dense sweep loads with the
        semiring identity).  ``ext[G]`` therefore materialises *the
        exact array* the seed kernels build with
        ``np.where(bits, broadcast(mult(seg)), zero)`` — same values,
        reduced along the same contiguous last axis — in one gather, so
        every float bit is unchanged while the per-launch unpack and
        broadcast/where work disappears.

        Cached per chunk under :data:`DEFAULT_BITS_BUDGET_BYTES` (``intp``
        entries: 8 bytes per bit cell).  With ``subset`` (an index array
        into the chunk) only those tiles are returned — and when the
        chunk is over budget, only they are unpacked.
        """
        key = (chunk.lo, chunk.hi)
        G = self._gathers.get(key)
        if G is None:
            A = self.matrix
            d = A.tile_dim
            # Native index width: narrower dtypes would halve the cache
            # cost but numpy re-casts non-intp fancy indices on *every*
            # launch, which costs more than the memory saves.
            cost = chunk.size * d * d * np.dtype(np.intp).itemsize
            cache = self._bits_bytes + cost <= DEFAULT_BITS_BUDGET_BYTES
            tiles = A.tiles[chunk.lo:chunk.hi]
            cols = A.indices[chunk.lo:chunk.hi].astype(np.intp)
            if not cache and subset is not None:
                tiles, cols, subset = tiles[subset], cols[subset], None
            G = np.where(
                unpack_bits_rowmajor(tiles, d).astype(bool),
                (cols[:, None] * d + np.arange(d, dtype=np.intp))[:, None],
                np.intp(A.n_tile_cols * d),
            )
            if cache:
                self._gathers[key] = _freeze(G)
                self._bits_bytes += cost
        return G if subset is None else G[subset]

    def seq_fold(self, chunk: SweepChunk) -> SequentialFoldPlan:
        """The chunk's precompiled sequential segment-sum
        (:class:`~repro.bitops.segreduce.SequentialFoldPlan`) — the
        arithmetic semiring's ``add_reduceat`` with its per-launch
        control-structure derivation hoisted into the plan."""
        key = (chunk.lo, chunk.hi)
        prog = self._folds.get(key)
        if prog is None:
            prog = SequentialFoldPlan(chunk.starts, chunk.size)
            self._folds[key] = prog
        return prog

    def fold_runs(
        self,
        semiring: "Semiring",
        values: np.ndarray,
        chunk: SweepChunk,
    ) -> np.ndarray:
        """Fold per-tile contribution rows into per-tile-row results with
        the semiring's add monoid — through the chunk's precompiled
        sequential plan when the semiring requires strict sequential
        order (arithmetic), else the ufunc ``reduceat`` hook."""
        if semiring.add_reduceat is segment_sum_sequential:
            return self.seq_fold(chunk)(values)
        return semiring.add_reduceat(values, chunk.starts)

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def warm(self, plane_widths: tuple[int, ...] = (1,)) -> "SweepPlan":
        """Eagerly build the launch-invariant state serving launches
        read — one chunk table per plane width and the set-bit index —
        so the first BFS/SSSP/CC launch runs at warm speed.  The dense
        sweep's masked-gather cache is left to build lazily (under
        :data:`DEFAULT_BITS_BUDGET_BYTES`) on the first launch that needs
        it: arithmetic pulls, and min/max pulls whose operand carries NaN
        or ``-0.0``."""
        d = self.matrix.tile_dim
        _ = self.matrix.tile_row_of()
        for width in plane_widths:
            self.chunks(min(max(int(width), 1), d))
        _ = self.bit_index
        return self

    def stats(self) -> dict[str, float]:
        """Introspection for benches/reports."""
        ix = self._bit_index
        return {
            "chunk_tables": float(len(self._chunk_tables)),
            "bit_index_cached": float(ix is not None),
            "bit_index_bytes": float(0 if ix is None else ix.nbytes),
            "bits_cached_bytes": float(self._bits_bytes),
            "bits_cached_chunks": float(len(self._gathers)),
        }


# ----------------------------------------------------------------------
# Active-tile skip helpers
# ----------------------------------------------------------------------
def word_activity(xw: np.ndarray) -> np.ndarray:
    """Per-tile-column activity of a packed vector ``(n_tile_cols,)``:
    ``True`` where the word carries a set bit.  A stored tile in an
    inactive column ANDs against an all-zero word, so its contribution
    is the OR/add identity.
    """
    return xw != 0


def batch_word_activity(xw: np.ndarray, tile_dim: int) -> np.ndarray:
    """Per-(tile column, plane) activity of a batch-word operand.

    ``xw`` is ``(ncols, P)`` batch words
    (:func:`repro.bitops.packing.pack_bitmatrix`); entry ``[c, p]`` is
    ``True`` where a word of column block ``c`` (rows ``c·d … c·d+d−1``)
    carries a set bit in plane ``p`` — the tiles of that block a tile
    sweep of plane ``p`` would find active.
    """
    n, planes = xw.shape
    blocks = -(-n // tile_dim)
    if n < blocks * tile_dim:
        padded = np.zeros((blocks * tile_dim, planes), dtype=xw.dtype)
        padded[:n] = xw
        xw = padded
    return xw.reshape(blocks, tile_dim, planes).any(axis=1)


def value_activity(
    xpad: np.ndarray, tile_dim: int, zero: float
) -> np.ndarray:
    """Per-tile-column activity of a padded value operand.

    A column block is *inactive* when every one of its ``d`` values (for
    every batch column, when 2-D) is **bit-identical** to the semiring
    add identity ``zero`` — equality alone is not enough because
    ``-0.0 == +0.0`` yet contributes a different bit pattern to a float
    sum, so signed zeros are kept active.  ``NaN`` never equals the
    identity and stays active.  Pad entries past ``ncols`` are +0.0,
    which for non-zero identities (min-plus ∞) conservatively marks the
    final block active — harmless, never wrong.
    """
    dt = xpad.dtype
    z = dt.type(zero)
    neq = xpad != z
    if z == 0.0:
        # Bit-level: -0.0 compares equal to +0.0 but must stay active.
        neq |= np.signbit(xpad) != np.signbit(z)
    if xpad.ndim == 1:
        blocks = neq.reshape(-1, tile_dim)
        return blocks.any(axis=1)
    blocks = neq.reshape(-1, tile_dim, xpad.shape[1])
    return blocks.any(axis=(1, 2))


def note_active(
    counters: dict | None, active: float, visits: float
) -> None:
    """Accumulate active-tile accounting into a caller-supplied dict
    (``active_tiles`` / ``tile_visits``, summed across planes/chunks)."""
    if counters is None:
        return
    counters["active_tiles"] = counters.get("active_tiles", 0.0) + float(
        active
    )
    counters["tile_visits"] = counters.get("tile_visits", 0.0) + float(
        visits
    )


__all__ = [
    "DEFAULT_BITS_BUDGET_BYTES",
    "SetBitIndex",
    "SweepChunk",
    "SweepPlan",
    "batch_word_activity",
    "note_active",
    "value_activity",
    "word_activity",
]
