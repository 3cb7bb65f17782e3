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

* **chunk tables** — one per ``(plane_width, row_aligned)`` pair, each
  chunk carrying ``(lo, hi, trows, starts, rows)`` exactly as the seed
  kernels computed them (bitwise-compatibility requires identical chunk
  boundaries and fold order);
* **set-bit index** (:class:`SetBitIndex`) — every stored bit's
  padded-operand position, ordered by output row, with the row-run
  starts, the output rows and each entry's owning tile.  The idempotent
  semirings (min-plus, min-second, max-times, boolean) pull through it:
  ``out[rows] = add_reduceat(m[icol], starts)`` touches only the stored
  bits, O(nnz·k) instead of the dense tile expansion's O(tiles·d²·k);
* **gather index** — the full ``indices[:, None]·d + arange(d)`` array,
  sliced per chunk (dense sweeps only);
* **bit masks / masked gather** — the unpacked per-chunk tiles of the
  dense semiring sweep, cached under a byte budget
  (:data:`DEFAULT_BITS_BUDGET_BYTES`).  Only arithmetic launches (and
  idempotent launches whose operand carries NaN or ``-0.0``) read them;
  they build lazily on first use;
* **value scratch** — zero-padded operand buffers per ``(dtype, k)``
  (the pad tail past ``ncols`` is written once and never dirtied);

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

* **fold elision** (OR folds — ``bmv_bin_bin_bin*``): bitwise OR is
  associative, commutative and exact, so inactive tiles are dropped from
  the fold entirely and only the surviving run structure is reduced;
* **entry elision** (the set-bit gather): the entries of tiles inactive
  in every word plane are dropped (:meth:`SetBitIndex.select`) — they
  would contribute only the identity to an order-free fold;
* **compute elision** (dense float sums): the fold *shape* is
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

#: Default byte budget for cached unpacked bit masks per plan.  A chunk's
#: mask costs ``(hi - lo) · d²`` bytes (bool); chunks past the budget are
#: unpacked on the fly instead of cached.  Serving deployments that pin
#: many large graphs can lower this per plan via ``SweepPlan(bits_budget=…)``.
DEFAULT_BITS_BUDGET_BYTES = 256 * 1024 * 1024


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
    """Every stored bit of a matrix, ordered by output row.

    Entry ``e`` is set bit ``(r, c)`` of stored tile ``tile[e]``:
    ``icol[e] = indices[tile[e]]·d + c`` is its position in the padded
    value operand and ``irow[e] = trow·d + r`` its output row.  Entries
    are sorted by ``irow``; ``starts`` opens each run of one output row
    and ``rows`` names it.  An idempotent pull over the multiplied
    operand ``m`` is then one gather and one segment fold::

        out[rows] = semiring.add_reduceat(m[icol], starts)

    All arrays are ``intp`` and read-only.
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
    def build(
        cls, A: "B2SRMatrix", chunks: tuple[SweepChunk, ...]
    ) -> "SetBitIndex":
        """Unpack ``A`` one row-aligned chunk at a time (bounded
        scratch) and sort each chunk's bits by output row; row-aligned
        chunks hold whole tile rows, so the concatenation is sorted."""
        d = A.tile_dim
        trows_all = A.tile_row_of()
        empty = np.zeros(0, dtype=np.intp)
        icols, irows, owners = [empty], [empty], [empty]
        for ch in chunks:
            t, r, c = np.nonzero(
                unpack_bits_rowmajor(A.tiles[ch.lo:ch.hi], d)
            )
            t = t + ch.lo
            irow = trows_all[t] * d + r
            order = np.argsort(irow, kind="stable")
            icols.append((A.indices[t] * d + c)[order])
            irows.append(irow[order])
            owners.append(t[order])
        irow = np.concatenate(irows).astype(np.intp, copy=False)
        starts = run_starts(irow).astype(np.intp)
        return cls(
            icol=_freeze(np.concatenate(icols).astype(np.intp, copy=False)),
            irow=_freeze(irow),
            tile=_freeze(np.concatenate(owners).astype(np.intp, copy=False)),
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
        self, tile_active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(icol, starts, rows)`` restricted to the entries of active
        tiles (a bool per stored tile).  Only runs that keep an entry
        remain, so every segment is non-empty as ``reduceat`` requires."""
        sel = np.flatnonzero(tile_active[self.tile])
        irow = self.irow[sel]
        starts = run_starts(irow)
        return self.icol[sel], starts, irow[starts]


class SweepPlan:
    """Memoized launch-invariant state for one :class:`B2SRMatrix`.

    Everything is built lazily on first use and cached forever (the
    matrix is immutable).  Not thread-safe: the scratch buffers are
    per-plan singletons, matching the single-threaded launch model of
    the host kernels.
    """

    def __init__(
        self,
        matrix: "B2SRMatrix",
        *,
        bits_budget: int = DEFAULT_BITS_BUDGET_BYTES,
    ) -> None:
        if bits_budget < 0:
            raise ValueError(f"bits_budget must be >= 0, got {bits_budget}")
        self.matrix = matrix
        self.bits_budget = int(bits_budget)
        self._chunk_tables: dict[tuple[int, bool], tuple[SweepChunk, ...]] = {}
        self._gather: np.ndarray | None = None
        self._bit_index: SetBitIndex | None = None
        self._bits: dict[tuple, np.ndarray] = {}
        self._bits_bytes = 0
        self._scratch: dict[tuple[str, int | None], np.ndarray] = {}
        self._folds: dict[tuple, SequentialFoldPlan] = {}

    # ------------------------------------------------------------------
    # Chunk tables
    # ------------------------------------------------------------------
    def chunks(
        self, plane_width: int, *, row_aligned: bool
    ) -> tuple[SweepChunk, ...]:
        """The chunk table for a sweep whose plane carries ``plane_width``
        vectors (``min(k, d)``; scratch is bounded per plane).

        Boundaries reproduce the seed kernels exactly: ``row_aligned``
        chunks snap to tile-row boundaries (the semiring path, whose
        float folds must not split a row across chunks); unaligned
        chunks are fixed ``step``-tile ranges (the packed paths, which
        OR/add partial rows across chunk boundaries in chunk order).
        """
        if plane_width < 1:
            raise ValueError(
                f"plane_width must be >= 1, got {plane_width}"
            )
        from repro.kernels.bmv import _chunk, _row_aligned_chunks

        # Keyed by the resolved chunk step (not the plane width) so the
        # table tracks the kernels' live ``_CHUNK_TILES`` setting and
        # plane widths that resolve to one step share a table.
        step = _chunk(plane_width)
        key = (step, bool(row_aligned))
        table = self._chunk_tables.get(key)
        if table is None:
            A = self.matrix
            if row_aligned:
                bounds = list(_row_aligned_chunks(A, step))
            else:
                bounds = [  # repro-lint: ignore[hot-path-scatter] — plan construction is launch-invariant cold path; result is memoized per (matrix, step)
                    (lo, min(lo + step, A.n_tiles))
                    for lo in range(0, A.n_tiles, step)
                ]
            trows_all = A.tile_row_of()
            parts = []
            for lo, hi in bounds:
                trows = trows_all[lo:hi]
                starts = _freeze(run_starts(trows))
                rows = _freeze(trows[starts])
                parts.append(SweepChunk(lo, hi, trows, starts, rows))
            table = tuple(parts)
            self._chunk_tables[key] = table
        return table

    # ------------------------------------------------------------------
    # Set-bit index (idempotent semiring path)
    # ------------------------------------------------------------------
    @property
    def bit_index(self) -> SetBitIndex:
        """The matrix's :class:`SetBitIndex`, built once on first use."""
        if self._bit_index is None:
            self._bit_index = SetBitIndex.build(
                self.matrix, self.chunks(1, row_aligned=True)
            )
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
    # Gather index and bit masks (dense semiring sweep)
    # ------------------------------------------------------------------
    @property
    def gather_index(self) -> np.ndarray:
        """``indices[:, None] * d + arange(d)`` — the value-vector gather
        of the dense semiring sweep, precomputed once for all launches."""
        if self._gather is None:
            A = self.matrix
            d = A.tile_dim
            self._gather = _freeze(
                A.indices[:, None] * d + np.arange(d, dtype=np.int64)
            )
        return self._gather

    def bits(
        self, chunk: SweepChunk, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Boolean bit masks of the chunk's tiles (``(m, d, d)``).

        Cached per chunk under :attr:`bits_budget`; with ``subset`` (an
        index array into the chunk) only those tiles are returned — and
        when the chunk is not cached, only they are unpacked.
        """
        A = self.matrix
        d = A.tile_dim
        key = (chunk.lo, chunk.hi)
        cached = self._bits.get(key)
        if cached is None:
            cost = chunk.size * d * d
            if self._bits_bytes + cost <= self.bits_budget:
                cached = _freeze(
                    unpack_bits_rowmajor(
                        A.tiles[chunk.lo:chunk.hi], d
                    ).astype(bool)
                )
                self._bits[key] = cached
                self._bits_bytes += cost
        if cached is not None:
            return cached if subset is None else cached[subset]
        tiles = A.tiles[chunk.lo:chunk.hi]
        if subset is not None:
            tiles = tiles[subset]
        return unpack_bits_rowmajor(tiles, d).astype(bool)

    @property
    def bits_cached_bytes(self) -> int:
        """Bytes currently held by the bit-mask / masked-gather caches."""
        return self._bits_bytes

    def masked_gather(
        self, chunk: SweepChunk, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused gather index for the single-vector semiring sweep.

        ``G[t, r, c]`` is the padded-operand position of tile ``t``'s
        column ``c`` where bit ``(r, c)`` is set, else the sentinel slot
        ``n_tile_cols · d`` (which :meth:`mult_scratch` keeps loaded with
        the semiring identity).  ``ext[G]`` therefore materialises *the
        exact array* the seed kernel builds with
        ``np.where(bits, broadcast(mult(seg)), zero)`` — same shape,
        same C-contiguity, same values — in one fancy-index gather, so
        the subsequent reduction tree (and every float bit) is
        unchanged while the per-launch broadcast/where work disappears.

        Cached per chunk under the same byte budget as :meth:`bits`
        (``intp`` entries: 8 bytes per bit cell).
        """
        A = self.matrix
        d = A.tile_dim
        key = ("gather", chunk.lo, chunk.hi)
        cached = self._bits.get(key)
        if cached is not None:
            return cached if subset is None else cached[subset]
        # Native index width: narrower dtypes would halve the cache
        # cost but numpy re-casts non-intp fancy indices on *every*
        # launch, which costs more than the memory saves.
        cost = chunk.size * d * d * np.dtype(np.intp).itemsize
        build = self._bits_bytes + cost <= self.bits_budget
        sentinel = np.intp(A.n_tile_cols * d)
        if not build and subset is not None:
            # Over budget: restrict the transient unpack + index build
            # to the requested tiles (mirrors :meth:`bits`).
            bits = unpack_bits_rowmajor(
                A.tiles[chunk.lo:chunk.hi][subset], d
            ).astype(bool)
            idx = self.gather_index[chunk.lo:chunk.hi][subset]
            return np.where(
                bits, idx[:, None, :].astype(np.intp), sentinel
            )
        # Transient unpack — cache the fused index, not the masks.
        bits = unpack_bits_rowmajor(
            A.tiles[chunk.lo:chunk.hi], d
        ).astype(bool)
        idx = self.gather_index[chunk.lo:chunk.hi]
        G = np.where(bits, idx[:, None, :].astype(np.intp), sentinel)
        if build:
            G = _freeze(G)
            self._bits[key] = G
            self._bits_bytes += cost
        return G if subset is None else G[subset]

    def seq_fold(self, chunk: SweepChunk) -> SequentialFoldPlan:
        """The chunk's precompiled sequential segment-sum
        (:class:`~repro.bitops.segreduce.SequentialFoldPlan`) — the
        arithmetic semiring's ``add_reduceat`` with its per-launch
        control-structure derivation hoisted into the plan."""
        key = ("fold", chunk.lo, chunk.hi)
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

    def mult_scratch(self, dtype: np.dtype) -> np.ndarray:
        """Reusable buffer for the multiplied padded operand plus the
        identity sentinel slot :meth:`masked_gather` points elided cells
        at: shape ``(n_tile_cols · d + 1,)``.  The caller refills
        ``[:-1]`` and the sentinel every launch."""
        dt = np.dtype(dtype)
        key = (dt.str, -1)
        buf = self._scratch.get(key)
        if buf is None:
            A = self.matrix
            buf = np.zeros(A.n_tile_cols * A.tile_dim + 1, dtype=dt)
            self._scratch[key] = buf
        return buf

    # ------------------------------------------------------------------
    # Scratch buffers
    # ------------------------------------------------------------------
    def value_scratch(
        self, dtype: np.dtype, k: int | None = None
    ) -> np.ndarray:
        """A reusable zero-padded value operand buffer.

        Shape ``(n_tile_cols · d,)`` for single vectors or
        ``(n_tile_cols · d, k)`` for batches.  The caller overwrites
        ``[:ncols]`` every launch; the pad tail past ``ncols`` is zeroed
        at allocation and never written, so reuse is safe.
        """
        dt = np.dtype(dtype)
        key = (dt.str, None if k is None else int(k))
        buf = self._scratch.get(key)
        if buf is None:
            A = self.matrix
            n = A.n_tile_cols * A.tile_dim
            shape = (n,) if k is None else (n, int(k))
            buf = np.zeros(shape, dtype=dt)
            self._scratch[key] = buf
        return buf

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def warm(self, plane_widths: tuple[int, ...] = (1,)) -> "SweepPlan":
        """Eagerly build the launch-invariant state serving launches
        read — both chunk-table flavours per plane width and the
        set-bit index — so the first BFS/SSSP/CC launch runs at warm
        speed.  The dense sweep's bit-mask and masked-gather caches are
        left to build lazily (under :attr:`bits_budget`) on the first
        launch that needs them: arithmetic pulls, and min/max pulls
        whose operand carries NaN or ``-0.0``."""
        d = self.matrix.tile_dim
        _ = self.matrix.tile_row_of()
        for width in plane_widths:
            pw = min(max(int(width), 1), d)
            self.chunks(pw, row_aligned=False)
            self.chunks(pw, row_aligned=True)
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
            "bits_cached_chunks": float(len(self._bits)),
            "scratch_buffers": float(len(self._scratch)),
            "gather_cached": float(self._gather is not None),
        }


# ----------------------------------------------------------------------
# Active-tile skip helpers
# ----------------------------------------------------------------------
def word_activity(xw: np.ndarray) -> np.ndarray:
    """Per-tile-column activity of a packed operand: ``True`` where the
    word (or any word of the batch row) carries a set bit.

    ``xw`` is ``(n_tile_cols,)`` or ``(n_tile_cols, kp)`` — one word
    plane.  A stored tile in an inactive column ANDs against all-zero
    words, so its contribution is the OR/add identity.
    """
    if xw.ndim == 1:
        return xw != 0
    return (xw != 0).any(axis=1)


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
    "note_active",
    "value_activity",
    "word_activity",
]
