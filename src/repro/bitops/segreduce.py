"""Segment reductions over CSR-sorted data.

The B2SR layout keeps stored tiles sorted by tile row (upper level) and
duplicate-merge paths keep candidate tiles sorted by output coordinate, so
every "combine all contributions to one output" step in the kernels is a
*segment reduction* over contiguous runs of a sorted array — exactly what
``np.ufunc.reduceat`` computes in one buffered C loop.  The scatter
alternatives (``np.add.at`` / ``np.logical_or.at``) are unbuffered
per-element ufunc loops and dominate the BMV hot path; see
:mod:`repro.kernels.bmv` for the layout that makes reduceat applicable.

Two helpers live here because both the kernels and the formats need them:

* :func:`segment_reduce` — reduce the leading axis of an array over the
  segments delimited by a CSR-style ``indptr``, with correct identity
  output for *empty* segments (``reduceat``'s documented behaviour for an
  empty segment is to return the element *at* the boundary, not the
  identity — the classic gotcha this wrapper exists to hide);
* :func:`run_starts` — start offsets of each run of equal keys in a sorted
  key array (the ``return_index`` part of ``np.unique`` without the
  re-sort), turning duplicate-key merges into ``reduceat`` calls.
"""

from __future__ import annotations

import numpy as np

#: Maximum segment length :class:`SequentialFoldPlan` rank-loops over;
#: longer (skewed) segments fall back to one ``np.add.at`` scatter, which
#: accumulates in the same sequential element order.
_SEQUENTIAL_MAX_LEN = 64


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a sorted 1-D array.

    ``keys[run_starts(keys)]`` are the unique values in order; consecutive
    starts delimit the runs, the last run extending to ``len(keys)``.
    Every NaN opens a run of its own (``NaN != NaN``).

    One pass: the run heads are written into one preallocated bool
    array (``heads[0]`` plus ``keys[1:] != keys[:-1]``) and the result
    is its ``flatnonzero`` — no concatenation of the offset pieces.
    Change-driven SSSP rounds call this once each, through
    :meth:`repro.kernels.plan.SetBitIndex.select`.
    """
    k = np.asarray(keys)
    if k.ndim != 1:
        raise ValueError(f"expected 1-D keys, got shape {k.shape}")
    if k.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    heads = np.empty(k.shape[0], dtype=bool)
    heads[0] = True
    np.not_equal(k[1:], k[:-1], out=heads[1:])
    return np.flatnonzero(heads)


def segment_reduce(
    ufunc: np.ufunc,
    values: np.ndarray,
    indptr: np.ndarray,
    *,
    identity,
    dtype=None,
) -> np.ndarray:
    """Reduce ``values`` along axis 0 over the segments of ``indptr``.

    Segment ``i`` covers ``values[indptr[i]:indptr[i + 1]]``; empty
    segments yield ``identity`` (unlike raw ``reduceat``).  Works for any
    binary ufunc whose ``reduceat`` is defined (``np.add``,
    ``np.bitwise_or``, ``np.minimum``, …).

    Returns an array of shape ``(len(indptr) - 1,) + values.shape[1:]``
    with dtype ``dtype`` (default: the values' dtype).
    """
    vals = np.asarray(values)
    ptr = np.asarray(indptr, dtype=np.int64)
    if ptr.ndim != 1 or ptr.shape[0] == 0:
        raise ValueError(f"indptr must be 1-D and non-empty, got {ptr.shape}")
    n_seg = ptr.shape[0] - 1
    out = np.full(
        (n_seg,) + vals.shape[1:], identity, dtype=dtype or vals.dtype
    )
    nonempty = np.diff(ptr) > 0
    if nonempty.any():
        # Consecutive non-empty starts still delimit exactly the right
        # slices: the empty segments between them contribute no elements.
        reduced = ufunc.reduceat(vals, ptr[:-1][nonempty], axis=0)
        out[nonempty] = reduced.astype(out.dtype, copy=False)
    return out


def segment_sum_sequential(
    values: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-segment sum along axis 0 in strictly sequential element order.

    ``np.add.reduceat`` uses pairwise summation, which changes the
    low-order float bits relative to the unbuffered sequential scatter
    (``np.add.at``) it replaces.  Reductions that must stay bit-compatible
    with sequential accumulation (the arithmetic semiring's add monoid) use
    this instead: a one-shot :class:`SequentialFoldPlan`.

    ``starts`` must be sorted ascending and every segment non-empty; the
    last segment extends to ``len(values)``.
    """
    return SequentialFoldPlan(starts, len(values))(values)


class SequentialFoldPlan:
    """The sequential segment sum for fixed ``starts``, compiled once.

    A rank-parallel loop: iteration ``j`` adds the ``j``-th element of
    every still-active segment, so each segment accumulates
    left-to-right while the work per iteration stays vectorized.
    Segments longer than :data:`_SEQUENTIAL_MAX_LEN` make the whole fold
    one ``np.add.at`` scatter (the same sequential order) rather than a
    long Python loop.  The control structure — the per-iteration
    active segments and their source rows, or the scatter's repeat
    index — is derived from ``starts`` here, so a caller whose
    ``starts`` are launch-invariant (the kernels' chunk tables) pays for
    it once.
    """

    def __init__(self, starts: np.ndarray, total: int) -> None:
        s = np.asarray(starts, dtype=np.int64)
        self._starts = s
        self._empty = s.shape[0] == 0
        if self._empty:
            return
        lens = np.diff(np.concatenate([s, [np.int64(total)]]))
        maxlen = int(lens.max())
        self._scatter = maxlen > _SEQUENTIAL_MAX_LEN
        if self._scatter:
            self._repeat = np.repeat(
                np.arange(s.shape[0], dtype=np.int64), lens
            )
            self._n = s.shape[0]
        else:
            self._steps = [
                (act := np.nonzero(lens > j)[0], s[act] + j)
                for j in range(1, maxlen)
            ]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        if self._empty:
            return np.empty((0,) + v.shape[1:], dtype=v.dtype)
        if self._scatter:
            out = np.zeros((self._n,) + v.shape[1:], dtype=v.dtype)
            np.add.at(out, self._repeat, v)
            return out
        out = v[self._starts].astype(v.dtype, copy=True)
        for active, src in self._steps:
            out[active] += v[src]
        return out
