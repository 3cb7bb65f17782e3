"""Binarized Matrix-Vector (BMV) kernel schemes — paper Table II, §IV.

Single-vector schemes, named after their operand precisions
(matrix / input vector / output vector):

=============================  ======  =======  =======
scheme                         A       x        y
=============================  ======  =======  =======
``bmv_bin_bin_bin``            1-bit   1-bit    1-bit
``bmv_bin_bin_full``           1-bit   1-bit    32-bit
``bmv_bin_full_full``          1-bit   32-bit   32-bit
(+ ``_masked`` variants)
=============================  ======  =======  =======

Batched multi-vector schemes (the ``_multi`` suffix) serve ``k`` vectors
with **one launch** — the matrix is read once for all ``k`` columns
(multi-source BFS, batched landmark BFS, batched PageRank):

===================================  ======  ============  ==============
scheme                               A       X             Y
===================================  ======  ============  ==============
``bmv_bin_bin_bin_multi``            1-bit   batch words   batch words
``bmv_bin_bin_full_multi``           1-bit   batch words   32-bit (n×P·d)
``bmv_bin_full_full_multi``          1-bit   32-bit (n×k)  32-bit (n×k)
(+ ``_masked`` for the 1-bit out)
===================================  ======  ============  ==============

**Batch words (binary batches).**  The binary multi operands come from
:func:`repro.bitops.packing.pack_bitmatrix`: ``(ncols, P)`` words with
``P = ⌈k/d⌉`` *word planes*, one word row per vertex, lane ``j`` of
plane ``p`` holding batch column ``p·d + j`` — vertex ``v``'s membership
in ``d`` concurrent frontiers is one word (the multi-source BFS layout of
Then et al., *The More the Merrier*, PVLDB 2014).  Stored bit ``(i, c)``
then ORs word row ``c`` into output row ``i``, so a batched OR product is
one gather and one ``bitwise_or.reduceat`` over the plan's set-bit index
— O(nnz·P) word ORs with no tile expansion — and the counting product
unpacks the gathered words and sums each lane.  The vector kernels keep
the paper's Listing 1 layout.

**Value planes (k > tile word width).**  The semiring kernels view a
batch of ``k`` value vectors as ``⌈k/d⌉`` planes: plane ``p`` spans
batch columns ``p·d … min((p+1)·d, k)−1``
(:func:`repro.bitops.packing.plane_slices`) — the ``d`` value rows a lane
group carries in registers per stored tile.  The dense sweep stripes the
planes *inside* the tile sweep: each tile chunk is loaded once and every
plane combines against the same resident chunk, so the tile index and
payload traffic stays independent of ``k`` while per-plane combine work
scales with the batch.  Striping is per-column-independent, so results
are bitwise identical whether a column lands in plane 0 or plane 7.

**Value dtypes.**  The semiring schemes compute in ``float32`` (the
paper's precision) unless the vector operand arrives as ``float64``, which
is preserved end to end — numeric-label algorithms (FastSV CC) carry
vertex ids that overflow ``float32``'s exact-integer range at 2²⁴, while
``float64`` is exact through 2⁵³.

**Segment-reduce layout.**  B2SR's upper level is CSR over tile rows, so
the stored tiles are already sorted by output tile row and ``indptr``
delimits each row's run.  Every tile sweep therefore computes a per-tile
contribution array (a packed word, a popcount row, or a semiring-reduced
value row) and folds each output row's run with one ``ufunc.reduceat``
over the run starts of a row-aligned chunk — a buffered, contiguous,
word-parallel pass, exactly the access pattern Listing 1 exploits on the
GPU.  A chunk holds whole tile rows, so every output row is folded by
exactly one chunk and its result is assigned, never merged.  Masking is
applied right before the output store — *not* via early exit, which the
paper rejects because of warp divergence (§V BFS).

**Sweep plans.**  Every scheme executes against the matrix's memoized
:class:`repro.kernels.plan.SweepPlan` (``A.plan()``): the tile-row
expansion, the row-aligned chunk tables (boundaries, run starts, output
rows), the set-bit index and — under a byte budget — the masked-gather
index of the dense semiring sweep are computed once per matrix instead
of once per launch.  Results are bitwise independent of plan warmth.
Operand buffers (the zero-padded operand, the multiplied operand with
its sentinel slot) are allocated per launch.

**Packed bodies.**  The two unmasked packed vector kernels
(``bin_bin_bin`` and ``bin_bin_full``) share one tile sweep
(:func:`_packed_sweep`): each tile row ANDs against its column's word,
and the hits are either OR-balloted into one output word or
popcount-summed.  The three batched packed kernels share one fold over
the set-bit index (:func:`_batch_fold`), one gather and one
``reduceat`` for every plane of the batch.

**Set-bit gather (min/max/OR semirings).**  For the idempotent
semirings (min-plus, min-second, max-times, boolean — SSSP's, CC's,
MIS's and coloring's pulls) the semiring schemes skip the dense tile
expansion: ``mult(1, x)`` is applied once to the padded operand, the
stored bits gather their column's value (``m[icol]``) and one
``add_reduceat`` folds each output row's run —
:class:`repro.kernels.plan.SetBitIndex`, O(nnz·k) instead of
O(tiles·d²·k).  The fold is exact in any order when the multiplied
operand holds no NaN and no ``-0.0``; launches that fail that check, and
every arithmetic launch (whose float sums are order-dependent), keep the
dense sweep that replays the seed's fold order.

**Change-driven relaxation (``changed=``).**  An iteration
``x ← x ⊕ (A ⊗ x)`` over an idempotent ⊕ (min, max, OR) needs only the
columns its last round changed: for an unchanged column ``j``, the term
``mult(1, x_j)`` was already folded into every out-neighbour ``x_i`` by
the round that produced ``x``, and ``x_i ⊕ t = x_i`` for any ``t``
already folded in.  So a caller that passes ``changed`` (True at least
where ``x`` differs from the last operand whose pull is folded into it)
gets a partial pull ``p`` that gathers only the set-bit entries whose
column changed in some batch column, and ``x ⊕ p`` equals ``x ⊕ (A ⊗ x)``
bit for bit.  Rows with no changed in-neighbour read the identity.  This
is frontier-based Bellman-Ford (Gunrock's advance over the updated
vertices); SSSP's rounds pass the ``new < dist`` they compute for
convergence.  ``counters`` still count the full operand's activity, so
the cost model charges what the paper's kernel does.  The dense fallback
(NaN or ``-0.0`` in the product) ignores ``changed`` and pulls in full,
which is always valid.

The vector and batched semiring kernels share one body and one dense
sweep (:func:`_dense_sweep`), which folds every value plane through the
plan's cached masked-gather index.

**Active-tile skip (``skip=True``).**  The sweep consults the input
operand and elides stored tiles whose input word / value segment is the
add identity — the frontier-sparsity the serving BFS/SSSP rounds have in
abundance.  Exactness is structural, not approximate: the vector OR and
popcount folds drop inactive tiles outright (bitwise OR is exact in any
order, and a popcount sum is an integer no larger than its row's
degree, which ``float32`` adds exactly in any order below 2²⁴), the
semiring set-bit gather drops the entries of tiles inactive in every
plane, and the dense semiring sweep keeps its fold shape and pre-fills
the elided slots with the identity it would have computed (compute
elision) — see :mod:`repro.kernels.plan` for the argument.  The batched
packed folds gather every stored bit in both modes: an inactive
column's words are 0, which both folds absorb, and selecting the live
entries costs more than folding them.  Every kernel returns
bitwise-identical results with skip on or off; ``counters=`` receives
``active_tiles`` / ``tile_visits`` — per plane, the stored tiles whose
column block holds a nonzero input, out of ``n_tiles`` — the same counts
on every host path, so the cost model can charge only the work the
paper's tile sweep does.

The only Python-level loops are the chunk and value-plane loops, which
bound scratch at about :data:`repro.kernels.plan._CHUNK_TILES` tile
rows per plane.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import ballot_sync, mask_for_width
from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    plane_count,
    plane_slices,
    unpack_bitmatrix,
)
from repro.bitops.segreduce import run_starts
from repro.formats.b2sr import B2SRMatrix
from repro.kernels.plan import (
    batch_word_activity,
    note_active,
    value_activity,
    word_activity,
)
from repro.semiring import ARITHMETIC, Semiring, value_dtype


def _check_vec_words(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    """Validate a packed vector operand: exact word count, compatible
    packing width.

    The word count must be exactly ``A.n_tile_cols`` — the length
    :func:`repro.bitops.packing.pack_bitvector` produces at ``A.tile_dim``.
    Wider dtypes are narrowed only when every word fits in ``tile_dim``
    bits; surplus high bits mean the vector was packed at a different
    width, and silently truncating them would drop set bits.
    """
    xw = np.asarray(x_words)
    if xw.ndim != 1 or xw.shape[0] != A.n_tile_cols:
        raise ValueError(
            f"packed vector must hold exactly {A.n_tile_cols} words of "
            f"{A.tile_dim} bits, got shape {xw.shape}"
        )
    return _narrow_words(A, xw)


def _check_mat_words(A: B2SRMatrix, x_words: np.ndarray) -> np.ndarray:
    """Validate a batch-word operand of shape ``(ncols, P)`` — one word
    row per matrix column, as
    :func:`repro.bitops.packing.pack_bitmatrix` produces at
    ``A.tile_dim`` (packing-width discipline as in
    :func:`_check_vec_words`)."""
    xw = np.asarray(x_words)
    if xw.ndim != 2 or xw.shape[0] != A.ncols:
        raise ValueError(
            f"batch words must hold exactly {A.ncols} word rows of "
            f"{A.tile_dim} bits, got shape {xw.shape}"
        )
    return _narrow_words(A, xw)


def _narrow_words(A: B2SRMatrix, xw: np.ndarray) -> np.ndarray:
    if xw.dtype.kind not in "ui":
        raise ValueError(
            f"packed words must have an integer dtype, got {xw.dtype}"
        )
    want = A.tiles.dtype
    if xw.dtype != want or A.tile_dim < 8 * want.itemsize:
        # A negative word is a sign bit, i.e. a bit beyond tile_dim too.
        out_of_range = xw.size and (
            int(xw.max()) > mask_for_width(A.tile_dim)
            or (xw.dtype.kind == "i" and int(xw.min()) < 0)
        )
        if out_of_range:
            raise ValueError(
                f"packed words carry bits beyond tile_dim={A.tile_dim} "
                f"(dtype {xw.dtype}); the vector was packed at a "
                "different tile_dim"
            )
        xw = xw.astype(want, copy=False)
    return xw


def _resolve_mask(
    mask: np.ndarray, n: int, complement: bool
) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != (n,):
        raise ValueError(f"mask must have shape ({n},), got {m.shape}")
    valid = m != 0
    return ~valid if complement else valid


def _resolve_mask_matrix(
    A: B2SRMatrix, masks: np.ndarray, xw: np.ndarray, complement: bool
) -> np.ndarray:
    """The ``(nrows, k)`` bool mask of the positions a batched kernel may
    write over the validated batch words ``xw`` ``(ncols, P)``.

    ``plane_count(k, d)`` must equal ``P``, and the operand may set no
    lane at or past ``k``: the mask does not cover such a lane, so its
    output would be dropped silently.  Every accepted mask therefore
    returns what a mask over all ``P·d`` lanes would.
    """
    m = np.asarray(masks)
    d, planes = A.tile_dim, xw.shape[1]
    if (
        m.ndim != 2
        or m.shape[0] != A.nrows
        or plane_count(m.shape[1], d) != planes
    ):
        raise ValueError(
            f"masks must have shape ({A.nrows}, k) with {planes} word "
            f"planes of {d} bits, got {m.shape}"
        )
    k = m.shape[1]
    uncovered = k - (planes - 1) * d  # lane k, counted in the last plane
    if uncovered < d and xw.size and int(xw[:, -1].max()) >> uncovered:
        raise ValueError(
            f"masks cover {k} batch columns, but the batch words set "
            f"lanes at or past {k}"
        )
    return m == 0 if complement else m != 0


# ---------------------------------------------------------------------------
# Packed-operand schemes (1-bit input)
# ---------------------------------------------------------------------------
def _packed_sweep(
    A: B2SRMatrix,
    xw: np.ndarray,
    count: bool,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    """The body of the two unmasked packed vector kernels.

    ``xw`` is the validated packed vector ``(n_tile_cols,)``.  Each tile
    row ANDs against its column's word; ``count=False`` ORs the hits
    into one packed output word per tile row (``bin_bin_bin``,
    ``(n_tile_rows,)``), ``count=True`` sums their popcounts
    (``bin_bin_full``, float32 ``(nrows,)``).  Row-aligned chunks fold
    every output row exactly once, so each fold is assigned, never
    merged; in skip mode inactive tiles drop out of the fold, which is
    exact for both folds (module docstring).
    """
    d = A.tile_dim
    if count:
        out = np.zeros((A.n_tile_rows, d), dtype=np.float32)
        y = out.reshape(-1)[: A.nrows]
    else:
        out = y = np.zeros(A.n_tile_rows, A.tiles.dtype)
    if A.n_tiles == 0:
        note_active(counters, 0, 0)
        return y

    act = word_activity(xw) if skip else None
    for ch in A.plan().chunks(1):
        t, c = A.tiles[ch.lo:ch.hi], A.indices[ch.lo:ch.hi]
        starts, rows = ch.starts, ch.rows
        if act is None:
            note_active(counters, ch.size, ch.size)
        else:
            sub = act[c].nonzero()[0]
            note_active(counters, sub.size, ch.size)
            if sub.size == 0:
                continue  # the chunk's rows keep the fold identity
            if sub.size < ch.size:
                t, c, trows = t[sub], c[sub], ch.trows[sub]
                starts = run_starts(trows)
                rows = trows[starts]
        hits = t & xw[c][:, None]  # (m, d): tile row r & its column word
        if count:
            out[rows] = np.add.reduceat(
                np.bitwise_count(hits).astype(np.float32), starts, axis=0
            )
        else:
            out[rows] = np.bitwise_or.reduceat(
                ballot_sync(hits != 0, width=d), starts, axis=0
            )
    return y


def _batch_fold(
    A: B2SRMatrix,
    xw: np.ndarray,
    count: bool,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    """The body of the three batched packed kernels.

    ``xw`` is the validated batch-word operand ``(ncols, P)``.  Stored
    bit ``(i, c)`` of ``A`` combines word row ``c`` into output row
    ``i``, so one gather over the plan's set-bit index and one
    ``reduceat`` over its row runs serve every plane: ``count=False``
    ORs the words (``bin_bin_bin``, ``(nrows, P)`` batch words),
    ``count=True`` unpacks them and sums each lane (``bin_bin_full``,
    float32 ``(nrows, P·d)``, one column per lane).  Both folds are
    exact in any order, and every stored bit is gathered in both skip
    modes: dropping the entries of inactive columns costs more than the
    fold it saves.  Counters count what the tile sweep visits — per
    plane, the stored tiles whose column block holds a set word, out of
    ``n_tiles`` (module docstring).
    """
    d = A.tile_dim
    planes = xw.shape[1]
    if count:
        y = np.zeros((A.nrows, planes * d), dtype=np.float32)
    else:
        y = np.zeros((A.nrows, planes), dtype=A.tiles.dtype)
    if A.n_tiles == 0 or planes == 0:
        note_active(counters, 0, 0)
        return y
    visits = planes * A.n_tiles
    if skip and counters is not None:
        act = batch_word_activity(xw, d)[A.indices]
        note_active(counters, np.count_nonzero(act), visits)
    else:
        note_active(counters, visits, visits)

    ix = A.plan().bit_index
    if ix.icol.size == 0:
        return y
    if count:
        lanes = unpack_bitmatrix(xw[ix.icol], d, planes * d)
        y[ix.rows] = np.add.reduceat(
            lanes, ix.starts, axis=0, dtype=np.float32
        )
    elif planes == 1:
        y[ix.rows, 0] = np.bitwise_or.reduceat(xw[:, 0][ix.icol], ix.starts)
    else:
        y[ix.rows] = np.bitwise_or.reduceat(xw[ix.icol], ix.starts, axis=0)
    return y


def bmv_bin_bin_bin(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Boolean SpMV: ``y = A ∨.∧ x`` with all operands bit-packed.

    Parameters
    ----------
    A:
        B2SR matrix.
    x_words:
        Vector packed with :func:`repro.bitops.packing.pack_bitvector` at
        ``A.tile_dim`` (word ``k`` ↔ tile column ``k``).
    skip, counters:
        Active-tile skip mode and skip accounting (module docstring).
        With ``skip=True`` tiles whose vector word is zero are dropped
        from the OR fold — bitwise exact.

    Returns
    -------
    Packed output words (``n_tile_rows`` words of ``tile_dim`` bits).
    """
    xw = _check_vec_words(A, x_words)
    return _packed_sweep(A, xw, False, skip, counters)


def bmv_bin_bin_bin_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked boolean SpMV (BFS's kernel, §V).

    ``mask`` is a length-``nrows`` 0/1 vector of positions allowed to be
    written; with ``complement=True`` the negation is used — BFS passes the
    visited vector with ``complement=True`` ("bit-wise AND with the negation
    of visited").
    """
    valid = _resolve_mask(mask, A.nrows, complement)
    yw = bmv_bin_bin_bin(A, x_words, skip=skip, counters=counters)
    # Mask applied right before the output store, in the packed domain.
    return yw & pack_bitvector(valid, A.tile_dim)


def bmv_bin_bin_bin_multi(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched boolean SpMV: ``Y[:, j] = A ∨.∧ X[:, j]`` for a batch of
    binary vectors packed as batch words.

    ``x_words`` has shape ``(ncols, P)`` from
    :func:`repro.bitops.packing.pack_bitmatrix` (``P = ⌈k/d⌉`` word
    planes, lane ``j`` of plane ``p`` is batch column ``p·d + j``); the
    result is ``(nrows, P)`` batch words, and
    ``unpack_bitmatrix(Y, d, k)[:, j]`` equals the vector kernel on
    column ``j``.  One gather and one OR-fold over the set-bit index
    serve every plane (module docstring).  ``skip`` changes only the
    counters: the fold already touches only stored bits.
    """
    xw = _check_mat_words(A, x_words)
    return _batch_fold(A, xw, False, skip, counters)


def bmv_bin_bin_bin_multi_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    masks: np.ndarray,
    *,
    complement: bool = False,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched masked boolean SpMV — multi-source BFS's kernel.

    ``masks`` has shape ``(nrows, k)`` with ``⌈k/d⌉`` equal to the
    operand's plane count: one independent mask per batch column (each
    BFS source carries its own visited vector).  The resolved mask is
    packed as batch words and ANDed into the output words, so lanes at
    or past ``k`` read 0; an operand that sets such a lane is rejected,
    since no mask column covers it.
    """
    xw = _check_mat_words(A, x_words)
    valid = _resolve_mask_matrix(A, masks, xw, complement)
    yw = _batch_fold(A, xw, False, skip, counters)
    yw &= pack_bitmatrix(valid, A.tile_dim)
    return yw


# ---------------------------------------------------------------------------
# Full-precision output, binary inputs
# ---------------------------------------------------------------------------
def bmv_bin_bin_full(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Counting SpMV: ``y_i = popc(A_i & x)`` — Listing 1 verbatim.

    Returns a float32 vector of per-row overlap counts (the bit-dot-product
    of each matrix row with the binarized vector).  With ``skip=True``
    tiles whose vector word is zero are dropped from the sum — exact,
    because a popcount sum is an integer no larger than the row's degree
    (module docstring).
    """
    xw = _check_vec_words(A, x_words)
    return _packed_sweep(A, xw, True, skip, counters)


def bmv_bin_bin_full_masked(
    A: B2SRMatrix,
    x_words: np.ndarray,
    mask: np.ndarray,
    *,
    complement: bool = False,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked counting SpMV; masked-out rows read 0."""
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_bin_full(A, x_words, skip=skip, counters=counters)
    y[~valid] = 0.0
    return y


def bmv_bin_bin_full_multi(
    A: B2SRMatrix,
    x_words: np.ndarray,
    *,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched counting SpMV: ``Y[i, j] = popc(A_i & X_j)`` over batch
    words ``(ncols, P)``; returns float32 of shape ``(nrows, P·d)``, one
    column per lane, so columns at or past ``k`` read 0.  The gathered
    words are unpacked and summed per lane over each row's run of the
    set-bit index (module docstring)."""
    xw = _check_mat_words(A, x_words)
    return _batch_fold(A, xw, True, skip, counters)


# ---------------------------------------------------------------------------
# Full-precision vector (semiring) schemes
# ---------------------------------------------------------------------------
def _order_free(m: np.ndarray) -> bool:
    """No NaN and no ``-0.0`` in the multiplied operand: the condition
    under which a min/max/OR fold over any subset of ``m`` has one
    answer, bit for bit, whatever its order.

    Decided from one ``m.min()`` when it can be: the minimum is NaN
    exactly when ``m`` holds a NaN, and a minimum above 0 rules out
    both NaN and ``-0.0`` — always the case for SSSP's ``x + 1``.  Only
    a minimum ≤ 0 (CC's labels start at 0) scans for ``-0.0``; with no
    NaN and no negative entry, any set sign bit is a ``-0.0``.  ``m`` is
    never empty: the pull returns before this for an empty matrix or
    batch.
    """
    lo = m.min()
    if lo != lo:  # NaN (np.isnan costs more on a scalar)
        return False
    if lo > 0:
        return True
    if lo == 0:
        return not np.signbit(m).any()
    return not (np.signbit(m) & (m == 0)).any()


def _check_changed(
    changed: np.ndarray | None, shape: tuple[int, ...], semiring: Semiring
) -> np.ndarray | None:
    """Validate a change mask: a bool array of the operand's shape, for
    an idempotent semiring only (a partial sum is not the full sum)."""
    if changed is None:
        return None
    if not semiring.idempotent:
        raise ValueError(
            f"changed= needs an idempotent semiring, got {semiring.name}"
        )
    c = np.asarray(changed)
    if c.dtype != np.bool_ or c.shape != shape:
        raise ValueError(
            f"changed must be a bool array of shape {shape}, got "
            f"{c.dtype} {c.shape}"
        )
    return c


def _set_bit_pull(
    A: B2SRMatrix,
    semiring: Semiring,
    m: np.ndarray,
    act_planes: list[np.ndarray] | None,
    n_planes: int,
    changed: np.ndarray | None,
    out: np.ndarray,
    counters: dict | None,
) -> None:
    """Idempotent-semiring pull through the plan's set-bit index.

    ``m`` is the multiplied padded operand (``(n_tile_cols·d,)`` or
    ``(n_tile_cols·d, k)``) and ``out`` the identity-filled output
    flattened to ``(n_tile_rows·d[, k])``.  With ``changed`` only the
    entries whose column changed in some batch column are gathered
    (change-driven relaxation, module docstring); otherwise, with
    ``act_planes`` (the per-plane column activity of skip mode), only
    the entries of tiles active in some plane — an inactive tile
    contributes the identity.  Counters match the dense sweep's exactly
    whichever entries are gathered: per plane, the plane's active stored
    tiles out of ``n_tiles`` visits.
    """
    ix = A.plan().bit_index
    icol, starts, rows = ix.icol, ix.starts, ix.rows
    keep = None
    if act_planes is None:
        visits = n_planes * A.n_tiles
        note_active(counters, visits, visits)
    else:
        tile_act = act_planes[0][A.indices]
        note_active(counters, np.count_nonzero(tile_act), A.n_tiles)
        for act in act_planes[1:]:
            plane_act = act[A.indices]
            note_active(counters, np.count_nonzero(plane_act), A.n_tiles)
            tile_act |= plane_act
        if changed is None and not tile_act.all():
            keep = tile_act[ix.tile]
    if changed is not None:
        col_changed = np.zeros(m.shape[0], dtype=bool)
        col_changed[: A.ncols] = (
            changed if changed.ndim == 1 else changed.any(axis=1)
        )
        keep = col_changed[icol]
    if keep is not None:
        icol, starts, rows = ix.select(keep)
    if icol.size:
        out[rows] = semiring.add_reduceat(m[icol], starts)


def _semiring_pull(
    A: B2SRMatrix,
    xv: np.ndarray,
    semiring: Semiring,
    changed: np.ndarray | None,
    skip: bool,
    counters: dict | None,
) -> np.ndarray:
    """The body of both semiring kernels.

    ``xv`` is the validated operand in its value dtype, ``(ncols,)`` or
    ``(ncols, k)``; the result has shape ``(nrows,)`` or ``(nrows, k)``.
    The padded operand is multiplied once; an idempotent semiring over
    an order-free product takes the set-bit gather (restricted to the
    ``changed`` columns when given), everything else the dense sweep.
    """
    changed = _check_changed(changed, xv.shape, semiring)
    dt = xv.dtype
    d = A.tile_dim
    k = 1 if xv.ndim == 1 else xv.shape[1]
    y = semiring.empty_output(A.n_tile_rows * d * k, dtype=dt).reshape(
        (A.n_tile_rows * d,) + xv.shape[1:]
    )
    if A.n_tiles == 0 or k == 0:
        note_active(counters, 0, 0)
        return y[: A.nrows]

    # Pad x to whole tiles; padded entries are never selected because the
    # corresponding matrix bits are structurally absent.
    xpad = np.zeros((A.n_tile_cols * d,) + xv.shape[1:], dtype=dt)
    xpad[: A.ncols] = xv
    # Each value plane as an index into the trailing column axis: a
    # vector is one plane, a batch stripes across planes of at most d
    # columns.
    planes = [()] if xv.ndim == 1 else [(sl,) for sl in plane_slices(k, d)]
    act_planes = None
    if skip:
        act_planes = [
            value_activity(xpad[(slice(None),) + p], d, semiring.zero)
            for p in planes
        ]
    m = semiring.mult_matrix_one(xpad)
    if semiring.idempotent and _order_free(m):
        _set_bit_pull(
            A, semiring, m, act_planes, len(planes), changed, y, counters
        )
    else:
        _dense_sweep(
            A, semiring, m, planes, act_planes,
            y.reshape((A.n_tile_rows, d) + xv.shape[1:]), counters,
        )
    return y[: A.nrows]


def _dense_sweep(
    A: B2SRMatrix,
    semiring: Semiring,
    m: np.ndarray,
    planes: list[tuple[slice, ...]],
    act_planes: list[np.ndarray] | None,
    y: np.ndarray,
    counters: dict | None,
) -> None:
    """The dense semiring sweep, replaying the seed's fold order.

    ``m`` is the multiplied padded operand and ``y`` the identity-filled
    output, ``(n_tile_rows, d[, k])``.  Each value plane folds its tiles
    as ``ext[G]`` (:meth:`SweepPlan.masked_gather`), where ``ext`` is
    ``m`` plus the identity sentinel slot, one row per batch column.
    In skip mode a plane's inactive tiles are compute-elided: their
    slots keep the identity.  Row-aligned chunks fold each output row
    exactly once.
    """
    pl = A.plan()
    d = A.tile_dim
    zero = y.dtype.type(semiring.zero)
    ext = np.empty(m.shape[1:] + (m.shape[0] + 1,), dtype=y.dtype)
    ext[..., :-1] = m.T
    ext[..., -1] = zero
    width = 1 if m.ndim == 1 else min(m.shape[1], d)
    for ch in pl.chunks(width):
        G = None
        for p, plane in enumerate(planes):
            e = ext[plane]
            sub = None
            if act_planes is None:
                note_active(counters, ch.size, ch.size)
            else:
                sub = np.flatnonzero(act_planes[p][A.indices[ch.lo:ch.hi]])
                note_active(counters, sub.size, ch.size)
                if sub.size == 0:
                    # Every contribution is the add identity; folding it
                    # into the identity-initialised output is a no-op.
                    continue
                if sub.size == ch.size:
                    sub = None
            if sub is None:
                if G is None:
                    G = pl.masked_gather(ch)
                vals = _tile_rows(semiring, e, G)
            else:
                vals = np.full(
                    (ch.size, d) + e.shape[:-1], zero, dtype=y.dtype
                )
                vals[sub] = _tile_rows(
                    semiring, e, pl.masked_gather(ch, sub)
                )
            out = (ch.rows, slice(None)) + plane
            y[out] = semiring.add(y[out], pl.fold_runs(semiring, vals, ch))


def _tile_rows(
    semiring: Semiring, ext: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Each gathered tile row folded over its columns: ``(m, d)`` from a
    vector's ``ext``, or ``(m, d, kp)`` from a plane's ``ext`` rows
    ``(kp, n_tile_cols·d + 1)``.

    A plane gathers with ``np.take`` into a C-contiguous
    ``(kp, m, d, d)`` array — plain ``ext[:, G]`` is strided, and a
    reduction over a strided axis groups float sums differently — and
    then moves its columns last.
    """
    if ext.ndim == 1:
        vals = semiring.add_reduce(ext[G], axis=-1)
    else:
        vals = np.moveaxis(
            semiring.add_reduce(np.take(ext, G, axis=1), axis=-1), 0, -1
        )
    return vals.astype(ext.dtype, copy=False)


def bmv_bin_full_full(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
    *,
    changed: np.ndarray | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Semiring SpMV with a full-precision multiplier vector (§IV Fig 4).

    ``y_i = ⊕_{j : A_ij = 1} mult(1, x_j)`` where ⊕/mult come from the
    semiring: arithmetic gives the weighted sums PageRank needs, min-plus
    treats absent bits as +∞ and stored bits as weight-1 edges (SSSP's
    relaxation, §V).

    A ``float64`` vector is computed in ``float64`` end to end (exact
    integer payloads through 2⁵³ — FastSV's label pulls); every other
    dtype computes in the native ``float32``.

    Min/max/OR semirings pull through the plan's set-bit gather when
    the multiplied operand holds no NaN and no ``-0.0`` (module
    docstring); arithmetic, and operands failing that check, take the
    dense sweep through the plan's masked-gather index.  With
    ``skip=True`` tiles whose value segment is bit-identical to the
    semiring identity are elided — dropped from the gather, or
    compute-elided in the dense sweep (their slots pre-filled with the
    identity it would produce) — so the result is bit-for-bit unchanged
    (SSSP's +∞-heavy early rounds included).

    ``changed`` (a bool vector of ``x``'s shape, min/max/OR semirings
    only) asks for a change-driven partial pull: only the stored bits
    whose column is True are gathered, so ``x ⊕ y`` equals ``x ⊕ A ⊗ x``
    bit for bit when ``changed`` is True at least where ``x`` differs
    from the last operand whose pull is already folded into ``x``
    (module docstring).  ``counters`` are those of the full pull.  A
    non-idempotent semiring, or a mask of another shape or dtype,
    raises ``ValueError``.
    """
    xv = np.asarray(x).astype(value_dtype(x), copy=False)
    if xv.shape != (A.ncols,):
        raise ValueError(
            f"vector must have shape ({A.ncols},), got {xv.shape}"
        )
    return _semiring_pull(A, xv, semiring, changed, skip, counters)


def bmv_bin_full_full_masked(
    A: B2SRMatrix,
    x: np.ndarray,
    mask: np.ndarray,
    *,
    semiring: Semiring = ARITHMETIC,
    complement: bool = False,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Masked semiring SpMV; masked-out rows read the semiring identity."""
    valid = _resolve_mask(mask, A.nrows, complement)
    y = bmv_bin_full_full(
        A, x, semiring=semiring, skip=skip, counters=counters
    )
    y[~valid] = semiring.zero
    return y


def bmv_bin_full_full_multi(
    A: B2SRMatrix,
    x: np.ndarray,
    semiring: Semiring = ARITHMETIC,
    *,
    changed: np.ndarray | None = None,
    skip: bool = False,
    counters: dict | None = None,
) -> np.ndarray:
    """Batched semiring SpMV over ``k`` full-precision vectors (columns of
    ``x``, shape ``(ncols, k)``) in one tile sweep — batched PageRank's,
    SSSP's and FastSV's kernel.  Returns shape ``(nrows, k)`` in the
    operand's value dtype (float32, or float64 when ``x`` is float64).

    Min/max/OR semirings gather all ``k`` columns per stored bit in one
    pass (see :func:`bmv_bin_full_full` for when).  The dense sweep
    stripes value planes of at most ``d`` columns over each resident
    tile chunk, so scratch stays one plane deep and the tile payloads
    stream once per sweep.  With ``skip=True`` a tile is elided per
    plane when every value of its segment across the plane's columns is
    bit-identical to the semiring identity; the gather keeps the
    entries of tiles active in any plane.

    ``changed`` is a bool ``(ncols, k)`` mask as in
    :func:`bmv_bin_full_full`: a stored bit is gathered, for every
    column of the batch, when its column changed in any of them.
    """
    xv = np.asarray(x).astype(value_dtype(x), copy=False)
    if xv.ndim != 2 or xv.shape[0] != A.ncols:
        raise ValueError(
            f"vectors must have shape ({A.ncols}, k), got {xv.shape}"
        )
    return _semiring_pull(A, xv, semiring, changed, skip, counters)


# ---------------------------------------------------------------------------
# Reference implementation (dense; used only by tests)
# ---------------------------------------------------------------------------
def bmv_reference(
    dense: np.ndarray, x: np.ndarray, semiring: Semiring = ARITHMETIC
) -> np.ndarray:
    """O(n²) dense oracle: the semiring product over an explicit 0/1 matrix.

    Exists so every scheme can be checked against unambiguous semantics.
    """
    a = np.asarray(dense) != 0
    xv = np.asarray(x, dtype=np.float32)
    m = semiring.mult_matrix_one(xv)
    vals = np.broadcast_to(m[None, :], a.shape)
    return semiring.reduce_masked(vals, a, axis=-1).astype(np.float32)
