"""Copy-on-write edge deltas over B2SR — the mutation path.

Serving graphs are frozen at registration: every B2SR array is read-only
(:mod:`repro.formats.b2sr`), which is the whole safety argument for the
memoized per-matrix :class:`~repro.kernels.plan.SweepPlan`.  Dynamic
graphs therefore never mutate a matrix — a batch of edge inserts/deletes
produces a **new** immutable version, built copy-on-write at bit-tile
granularity:

* only tiles containing an effective edit are rebuilt (old words copied,
  bits set/cleared, empty tiles dropped);
* every untouched tile's packed words are carried over verbatim — one
  vectorized gather, never unpacked — into a fresh matrix assembled via
  :meth:`B2SRMatrix.from_tiles` with ``packed=True`` (never raw
  ``__init__``), so the new version is frozen and plan-safe like any
  other;
* a delta with no effective edits returns the *same* matrix object, so
  its warm plan is shared outright.

Edit semantics: deletes apply before inserts (an edge in both lists ends
up present); deleting an absent edge or inserting a present one is a
no-op.  Only *effective* edits count toward the rebuilt-tile statistics
that the re-warm cost model consumes
(:func:`repro.kernels.costmodel.delta_rewarm_stats`).

The CSR delta is a sorted merge.  Every CSR the package builds is
canonical — its flat keys ``row·ncols + col`` strictly increase
(:func:`~repro.formats.convert.csr_from_coo` sorts and dedupes,
transposes and :func:`delta_csr` keep the order) — so the edits are
located with ``searchsorted`` and spliced in with ``np.delete`` /
``np.insert``; no pass re-sorts the edge set.  A CSR whose keys do not
strictly increase is rejected.

:func:`apply_edge_delta` lifts the per-matrix delta to a whole
:class:`~repro.graph.Graph`: the CSR and its transpose are merged, and
every B2SR form cached on the base graph is patched copy-on-write and
adopted into the new graph's caches — the new version never pays a
from-scratch CSR→B2SR conversion for a form the old one already had,
and forms nobody cached are not built.  Derived views take the same
path: :func:`symmetric_edits` turns a directed delta into the edits of
the symmetrized view, which :func:`apply_edge_delta` then applies to
that view.  Construction is verified bitwise against
:func:`~repro.formats.convert.b2sr_from_csr` on the post-mutation CSR in
``tests/test_delta.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitops.intrinsics import dtype_for_width
from repro.bitops.segreduce import run_starts
from repro.formats.b2sr import B2SRMatrix, TILE_DIMS
from repro.formats.csr import CSRMatrix
from repro.graph import Graph, csr_row_indices


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaStats:
    """Tile-level accounting for one copy-on-write B2SR delta.

    ``rebuilt_tiles`` survive in the new matrix with edited content;
    ``dropped_tiles`` were touched but came out all-zero (deleted);
    ``carried_tiles`` moved over as packed words without being unpacked.
    ``inserts``/``deletes`` count *effective* edge edits only.
    """

    inserts: int
    deletes: int
    rebuilt_tiles: int
    carried_tiles: int
    dropped_tiles: int
    n_tiles: int

    @property
    def touched_tiles(self) -> int:
        """Tiles whose content had to be rebuilt (surviving + dropped)."""
        return self.rebuilt_tiles + self.dropped_tiles

    @property
    def rebuilt_fraction(self) -> float:
        """Fraction of tile-build work redone vs a full rebuild: touched
        tiles over all tiles processed (touched + carried).  0.0 for a
        no-op delta, 1.0 when nothing could be carried."""
        total = self.touched_tiles + self.carried_tiles
        return self.touched_tiles / total if total else 0.0


@dataclass(eq=False)
class DeltaReport:
    """Graph-level delta outcome: the effective directed edge edits plus
    per-form tile statistics (keyed ``"A{d}"`` / ``"At{d}"`` for the
    adjacency and its transpose at tile_dim ``d``;
    :meth:`~repro.serving.cluster.GraphRegistry.mutate` adds the
    symmetrized view's forms under a ``Sym_`` prefix)."""

    inserts: np.ndarray
    deletes: np.ndarray
    forms: dict[str, DeltaStats] = field(default_factory=dict)

    @property
    def n_inserts(self) -> int:
        return int(self.inserts.shape[0])

    @property
    def n_deletes(self) -> int:
        return int(self.deletes.shape[0])

    @property
    def rebuilt_fraction(self) -> float:
        """Worst (largest) rebuilt fraction across the patched forms —
        the conservative input to the re-warm cost model."""
        if not self.forms:
            return 0.0
        return max(s.rebuilt_fraction for s in self.forms.values())


# ----------------------------------------------------------------------
# Edge-list plumbing
# ----------------------------------------------------------------------
def as_edge_array(
    edges: np.ndarray | None, nrows: int, ncols: int, label: str
) -> np.ndarray:
    """Validate an ``(m, 2)`` integer edge array of ``(row, col)`` ids
    within an ``nrows × ncols`` matrix; ``None``/empty give ``(0, 2)``.
    Returns it as ``int64``."""
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"{label} must be an (m, 2) edge array, got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"{label} must hold integer vertex ids, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    if (
        arr[:, 0].min() < 0 or arr[:, 0].max() >= nrows
        or arr[:, 1].min() < 0 or arr[:, 1].max() >= ncols
    ):
        raise ValueError(
            f"{label} contain out-of-range vertex ids for a "
            f"{nrows}x{ncols} matrix"
        )
    return arr


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an edit-sized key array.

    Sort, then keep each run's first key.  Plain ``np.unique`` first
    evaluates ``np.ma.is_masked``, which imports ``numpy.ma`` (about
    14 ms cold) at a serving process's first epoch swap.
    """
    ordered = np.sort(keys)
    return ordered[run_starts(ordered)]


def _edge_keys(edges: np.ndarray, ncols: int) -> np.ndarray:
    """Unique sorted flat keys ``row * ncols + col`` of an edge array."""
    if edges.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return _unique_keys(edges[:, 0] * np.int64(ncols) + edges[:, 1])


def _keys_to_edges(keys: np.ndarray, ncols: int) -> np.ndarray:
    """Flat keys back to an ``(m, 2)`` edge array."""
    return np.stack([keys // ncols, keys % ncols], axis=1).astype(np.int64)


def _lookup(
    keys: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Membership of ``probe`` in the strictly increasing ``keys``:
    ``(pos, hit)`` with ``pos`` the ``searchsorted`` insertion points and
    ``hit`` true where ``keys[pos] == probe``."""
    pos = np.searchsorted(keys, probe)
    if keys.size == 0:
        return pos, np.zeros(pos.shape, dtype=bool)
    return pos, keys[np.minimum(pos, keys.size - 1)] == probe


def _edit_keys(
    ins: np.ndarray, dels: np.ndarray, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique sorted insert and delete keys, deletes before inserts: a
    key in both lists is only inserted."""
    ins_k = _edge_keys(ins, ncols)
    del_k = _edge_keys(dels, ncols)
    return ins_k, del_k[~_lookup(ins_k, del_k)[1]]


def _csr_keys(csr: CSRMatrix) -> np.ndarray:
    """Flat keys ``row * ncols + col`` of a canonical CSR, in storage
    order; raises unless they strictly increase."""
    keys = csr_row_indices(csr, csr.nrows) * np.int64(csr.ncols) + csr.indices
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError(
            "edge deltas need a canonical CSR: columns strictly "
            "increasing within each row (sorted, no duplicate entries)"
        )
    return keys


# ----------------------------------------------------------------------
# CSR delta
# ----------------------------------------------------------------------
def delta_csr(
    csr: CSRMatrix,
    inserts: np.ndarray | None,
    deletes: np.ndarray | None,
) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Apply an edge-set edit to a canonical binary CSR by sorted merge.

    Returns ``(new_csr, effective_inserts, effective_deletes)`` — the
    effective arrays hold the edits that actually changed the edge set
    (deletes before inserts; an edge in both lists stays present), in
    ``(m, 2)`` form, deduplicated and key-sorted.  ``new_csr`` is
    canonical too; a ``csr`` that is not raises ``ValueError``.
    """
    ins = as_edge_array(inserts, csr.nrows, csr.ncols, "inserts")
    dels = as_edge_array(deletes, csr.nrows, csr.ncols, "deletes")
    old = _csr_keys(csr)
    ins_k, del_k = _edit_keys(ins, dels, csr.ncols)
    del_pos, present = _lookup(old, del_k)
    eff_del = del_k[present]
    eff_ins = ins_k[~_lookup(old, ins_k)[1]]
    new_keys = np.delete(old, del_pos[present])
    new_keys = np.insert(
        new_keys, np.searchsorted(new_keys, eff_ins), eff_ins
    )
    counts = np.bincount(new_keys // csr.ncols, minlength=csr.nrows)
    indptr = np.zeros(csr.nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    new_csr = CSRMatrix(
        csr.nrows, csr.ncols, indptr, new_keys % csr.ncols,
        np.ones(new_keys.shape[0], dtype=np.float32),
    )
    return (
        new_csr,
        _keys_to_edges(eff_ins, csr.ncols),
        _keys_to_edges(eff_del, csr.ncols),
    )


def symmetric_edits(
    new_csr: CSRMatrix,
    inserts: np.ndarray | None,
    deletes: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized view's edits induced by a directed delta.

    ``inserts``/``deletes`` are the directed delta's *effective* edits
    (a :class:`DeltaReport`'s arrays) and ``new_csr`` the square directed
    CSR after them.  Every insert is returned in both directions; a
    delete is returned in both directions only when ``new_csr`` holds
    neither direction any more — otherwise the undirected edge survives.
    Applied to the symmetrized view of the old graph, the edits give the
    symmetrized view of the new one.  A self-loop appears twice; the
    delta functions collapse duplicates.
    """
    n = new_csr.ncols
    ins = as_edge_array(inserts, new_csr.nrows, n, "inserts")
    dels = as_edge_array(deletes, new_csr.nrows, n, "deletes")
    keys = _csr_keys(new_csr)
    fwd = _lookup(keys, dels[:, 0] * np.int64(n) + dels[:, 1])[1]
    rev = _lookup(keys, dels[:, 1] * np.int64(n) + dels[:, 0])[1]
    gone = dels[~(fwd | rev)]
    return (
        np.concatenate([ins, ins[:, ::-1]]),
        np.concatenate([gone, gone[:, ::-1]]),
    )


# ----------------------------------------------------------------------
# B2SR copy-on-write delta
# ----------------------------------------------------------------------
def _present_bits(
    base: B2SRMatrix, edges: np.ndarray, stored_keys: np.ndarray
) -> np.ndarray:
    """Boolean mask: which of ``edges`` are set bits in ``base``."""
    d = base.tile_dim
    pos, hit = _lookup(
        stored_keys,
        (edges[:, 0] // d) * np.int64(base.n_tile_cols) + edges[:, 1] // d,
    )
    words = base.tiles[pos[hit], edges[hit, 0] % d].astype(np.uint64)
    out = np.zeros(edges.shape[0], dtype=bool)
    out[hit] = ((words >> (edges[hit, 1] % d).astype(np.uint64)) & 1) > 0
    return out


def delta_b2sr(
    base: B2SRMatrix,
    inserts: np.ndarray | None,
    deletes: np.ndarray | None,
) -> tuple[B2SRMatrix, DeltaStats]:
    """Apply an edge edit to a B2SR matrix, copy-on-write per tile.

    Only tiles containing an effective edit are rebuilt; every other
    stored tile's packed words are carried over without unpacking.  A
    delta with no effective edits returns ``base`` itself (shared warm
    plan included).  The result is bitwise identical — ``indptr``,
    ``indices``, ``tiles`` — to a from-scratch
    :func:`~repro.formats.convert.b2sr_from_csr` of the edited matrix.
    """
    d = base.tile_dim
    ins = as_edge_array(inserts, base.nrows, base.ncols, "inserts")
    dels = as_edge_array(deletes, base.nrows, base.ncols, "deletes")
    ntc = np.int64(base.n_tile_cols)
    stored_keys = base.tile_row_of() * ntc + base.indices

    # Effective edits only: deletes before inserts, no-ops filtered.
    ins_k, del_k = _edit_keys(ins, dels, base.ncols)
    ins = _keys_to_edges(ins_k, base.ncols)
    dels = _keys_to_edges(del_k, base.ncols)
    ins = ins[~_present_bits(base, ins, stored_keys)]
    dels = dels[_present_bits(base, dels, stored_keys)]
    if ins.shape[0] == 0 and dels.shape[0] == 0:
        stats = DeltaStats(
            inserts=0, deletes=0, rebuilt_tiles=0,
            carried_tiles=base.n_tiles, dropped_tiles=0,
            n_tiles=base.n_tiles,
        )
        return base, stats

    edits = np.concatenate([dels, ins])
    touched = _unique_keys((edits[:, 0] // d) * ntc + edits[:, 1] // d)

    # Stored tiles in the touched set are rebuilt; the rest are carried.
    slot_of_stored, existing = _lookup(touched, stored_keys)
    carried_mask = ~existing

    # Rebuild touched tiles: start from the old words (zeros for tiles
    # that did not exist), clear deleted bits, set inserted bits.  The
    # scatter works in a flat uint64 buffer, like b2sr_from_csr.
    flat = np.zeros(touched.size * d, dtype=np.uint64)
    if existing.any():
        rows_existing = (
            slot_of_stored[existing][:, None] * d + np.arange(d)
        ).ravel()
        flat[rows_existing] = base.tiles[existing].astype(np.uint64).ravel()
    del_slots = (
        np.searchsorted(touched, (dels[:, 0] // d) * ntc + dels[:, 1] // d)
        * d + dels[:, 0] % d
    )
    np.bitwise_and.at(
        flat, del_slots,
        ~(np.uint64(1) << (dels[:, 1] % d).astype(np.uint64)),
    )
    ins_slots = (
        np.searchsorted(touched, (ins[:, 0] // d) * ntc + ins[:, 1] // d)
        * d + ins[:, 0] % d
    )
    np.bitwise_or.at(
        flat, ins_slots,
        np.uint64(1) << (ins[:, 1] % d).astype(np.uint64),
    )
    words = flat.reshape(touched.size, d).astype(dtype_for_width(d))
    keep = words.any(axis=1)

    new_keys = np.concatenate([stored_keys[carried_mask], touched[keep]])
    packed = np.concatenate(
        [base.tiles[carried_mask], words[keep]], axis=0
    )
    out = B2SRMatrix.from_tiles(
        base.nrows, base.ncols, d,
        new_keys // ntc, new_keys % ntc, packed, packed=True,
    )
    stats = DeltaStats(
        inserts=int(ins.shape[0]),
        deletes=int(dels.shape[0]),
        rebuilt_tiles=int(keep.sum()),
        carried_tiles=int(carried_mask.sum()),
        dropped_tiles=int((~keep).sum()),
        n_tiles=out.n_tiles,
    )
    return out, stats


# ----------------------------------------------------------------------
# Graph-level delta
# ----------------------------------------------------------------------
def apply_edge_delta(
    graph: Graph,
    inserts: np.ndarray | None,
    deletes: np.ndarray | None,
) -> tuple[Graph, DeltaReport]:
    """Build the next version of ``graph`` from an edge edit.

    The CSR and its transpose are merged key-wise; every B2SR form
    cached on the base graph is patched copy-on-write (transposed forms
    with the swapped edge lists) and adopted into the new graph's
    caches, so engines built on the new version find warm-format state
    instead of re-converting.  Forms the base never built are not built
    here either: an engine that needs one converts it lazily, as on any
    fresh graph.

    The vertex set is fixed: mutations are edge-level (ids must be in
    ``[0, n)``); growing the vertex set is a new graph, not a delta.
    """
    new_csr, eff_ins, eff_del = delta_csr(graph.csr, inserts, deletes)
    swapped_ins = eff_ins[:, ::-1]
    swapped_del = eff_del[:, ::-1]
    new_csr_t, _, _ = delta_csr(graph.csr_t, swapped_ins, swapped_del)
    new_graph = Graph(
        new_csr, name=graph.name, category=graph.category,
        _csr_t=new_csr_t,
    )
    report = DeltaReport(inserts=eff_ins, deletes=eff_del)
    for d in TILE_DIMS:
        mat = mat_t = None
        base = graph.cached_b2sr(d)
        if base is not None:
            mat, report.forms[f"A{d}"] = delta_b2sr(base, eff_ins, eff_del)
        base_t = graph.cached_b2sr_t(d)
        if base_t is not None:
            mat_t, report.forms[f"At{d}"] = delta_b2sr(
                base_t, swapped_ins, swapped_del
            )
        new_graph.adopt_b2sr(d, mat=mat, mat_t=mat_t)
    return new_graph, report


__all__ = [
    "DeltaReport",
    "DeltaStats",
    "apply_edge_delta",
    "as_edge_array",
    "delta_b2sr",
    "delta_csr",
    "symmetric_edits",
]
