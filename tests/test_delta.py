"""Tests for copy-on-write B2SR deltas (`repro.formats.delta`).

The contract under test: a delta-built matrix is **bitwise identical**
(indptr / indices / tiles) to a from-scratch ``b2sr_from_csr`` of the
post-mutation CSR, while only the touched tiles are rebuilt.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import hybrid_pattern, rmat_graph, road_pattern
from repro.formats.b2sr import B2SRMatrix, TILE_DIMS
from repro.formats.convert import b2sr_from_csr, transpose_csr
from repro.formats.csr import CSRMatrix
from repro.formats.delta import (
    DeltaStats,
    apply_edge_delta,
    delta_b2sr,
    delta_csr,
    symmetric_edits,
)
from repro.graph import Graph, csr_row_indices
from repro.serving import GraphRegistry, mutation_trace


def random_graph(n, m, seed=0):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return Graph.from_edges(n, edges), edges


def edge_set(csr):
    rows = csr_row_indices(csr, csr.nrows)
    return set(zip(rows.tolist(), csr.indices.tolist(), strict=True))


def assert_bitwise_equal(a: B2SRMatrix, b: B2SRMatrix):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.tiles, b.tiles)


class TestFromTilesPacked:
    """The packed-words path of B2SRMatrix.from_tiles."""

    def test_packed_roundtrip_matches_dense_path(self):
        g, _ = random_graph(40, 120, seed=3)
        ref = b2sr_from_csr(g.csr, 8)
        out = B2SRMatrix.from_tiles(
            ref.nrows, ref.ncols, 8,
            ref.tile_row_of(), ref.indices, ref.tiles, packed=True,
        )
        assert_bitwise_equal(out, ref)

    def test_packed_duplicates_or_merge(self):
        d = 8
        words = np.array([[1] + [0] * (d - 1), [2] + [0] * (d - 1)],
                         dtype=np.uint8)
        out = B2SRMatrix.from_tiles(
            d, d, d, np.zeros(2, np.int64), np.zeros(2, np.int64),
            words, packed=True,
        )
        assert out.n_tiles == 1
        assert out.tiles[0, 0] == 3

    def test_packed_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="packed tiles"):
            B2SRMatrix.from_tiles(
                8, 8, 8, np.zeros(1, np.int64), np.zeros(1, np.int64),
                np.zeros((1, 4), np.uint8), packed=True,
            )

    def test_packed_empty(self):
        out = B2SRMatrix.from_tiles(
            16, 16, 8,
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty((0, 8), np.uint8), packed=True,
        )
        assert out.n_tiles == 0
        assert out.nnz == 0


class TestDeltaCSR:
    def test_edge_set_semantics(self):
        g, edges = random_graph(30, 80, seed=1)
        rng = np.random.default_rng(2)
        ins = rng.integers(0, 30, size=(12, 2))
        dels = edges[:10]
        new, eff_ins, eff_del = delta_csr(g.csr, ins, dels)
        want = (
            edge_set(g.csr)
            - ({tuple(e) for e in dels} - {tuple(e) for e in ins})
        ) | {tuple(e) for e in ins}
        assert edge_set(new) == want
        # Effective arrays are the exact symmetric difference.
        assert {tuple(e) for e in eff_ins} == want - edge_set(g.csr)
        assert {tuple(e) for e in eff_del} == edge_set(g.csr) - want

    def test_insert_wins_over_delete(self):
        g = Graph.from_edges(4, np.array([[0, 1]]))
        e = np.array([[0, 1]])
        new, eff_ins, eff_del = delta_csr(g.csr, e, e)
        assert edge_set(new) == {(0, 1)}
        assert eff_ins.shape[0] == 0 and eff_del.shape[0] == 0

    def test_noop_edits(self):
        g, edges = random_graph(20, 40, seed=4)
        # Insert existing edges, delete absent ones: nothing effective.
        absent = np.array([[0, 0]])
        while tuple(absent[0]) in edge_set(g.csr):
            absent += 1
        new, eff_ins, eff_del = delta_csr(g.csr, edges[:5], absent)
        assert edge_set(new) == edge_set(g.csr)
        assert eff_ins.shape[0] == 0 and eff_del.shape[0] == 0

    def test_validation(self):
        g, _ = random_graph(10, 20)
        with pytest.raises(ValueError, match="out-of-range"):
            delta_csr(g.csr, np.array([[0, 10]]), None)
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            delta_csr(g.csr, np.array([1, 2, 3]), None)
        with pytest.raises(ValueError, match="integer"):
            delta_csr(g.csr, np.array([[0.5, 1.0]]), None)

    def test_empty_inputs(self):
        g, _ = random_graph(10, 20)
        new, eff_ins, eff_del = delta_csr(g.csr, None, np.empty((0, 2)))
        assert edge_set(new) == edge_set(g.csr)
        assert eff_ins.shape == (0, 2) and eff_del.shape == (0, 2)


class TestDeltaB2SR:
    @pytest.mark.parametrize("tile_dim", TILE_DIMS)
    def test_bitwise_equal_to_rebuild(self, tile_dim):
        g, edges = random_graph(70, 250, seed=7)
        rng = np.random.default_rng(8)
        ins = rng.integers(0, 70, size=(25, 2))
        dels = np.concatenate([edges[:20], rng.integers(0, 70, (5, 2))])
        base = b2sr_from_csr(g.csr, tile_dim)
        new_csr, _, _ = delta_csr(g.csr, ins, dels)
        out, stats = delta_b2sr(base, ins, dels)
        assert_bitwise_equal(out, b2sr_from_csr(new_csr, tile_dim))
        assert stats.rebuilt_tiles + stats.carried_tiles == out.n_tiles
        assert 0.0 <= stats.rebuilt_fraction <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tile_dim=st.sampled_from(TILE_DIMS),
    )
    def test_random_edits_property(self, seed, tile_dim):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 64))
        m = int(rng.integers(0, 3 * n))
        g, edges = random_graph(n, m, seed=seed)
        ins = rng.integers(0, n, size=(int(rng.integers(0, 15)), 2))
        k = int(rng.integers(0, m + 1)) if m else 0
        dels = edges[:k] if k else None
        base = b2sr_from_csr(g.csr, tile_dim)
        new_csr, _, _ = delta_csr(g.csr, ins, dels)
        out, _ = delta_b2sr(base, ins, dels)
        assert_bitwise_equal(out, b2sr_from_csr(new_csr, tile_dim))

    def test_noop_delta_shares_the_matrix(self):
        g, edges = random_graph(30, 60, seed=9)
        base = b2sr_from_csr(g.csr, 16)
        plan = base.plan()
        out, stats = delta_b2sr(base, edges[:5], None)  # all present
        assert out is base
        assert out.plan() is plan  # warm plan shared outright
        assert stats.rebuilt_fraction == 0.0
        assert stats.carried_tiles == base.n_tiles

    def test_untouched_tiles_carried_not_rebuilt(self):
        # Two far-apart tiles; edit only one of them.
        d = 8
        g = Graph.from_edges(64, np.array([[0, 0], [63, 63]]))
        base = b2sr_from_csr(g.csr, d)
        assert base.n_tiles == 2
        out, stats = delta_b2sr(base, np.array([[1, 1]]), None)
        assert stats.rebuilt_tiles == 1
        assert stats.carried_tiles == 1
        assert stats.rebuilt_fraction == 0.5

    def test_delete_to_empty_tile_drops_it(self):
        d = 8
        g = Graph.from_edges(64, np.array([[0, 0], [63, 63]]))
        base = b2sr_from_csr(g.csr, d)
        out, stats = delta_b2sr(base, None, np.array([[0, 0]]))
        assert out.n_tiles == 1
        assert stats.dropped_tiles == 1
        assert stats.touched_tiles == 1

    def test_delete_everything(self):
        g, edges = random_graph(20, 40, seed=11)
        base = b2sr_from_csr(g.csr, 4)
        out, stats = delta_b2sr(base, None, edges)
        assert out.n_tiles == 0
        assert out.nnz == 0
        assert stats.carried_tiles == 0

    def test_insert_into_empty_matrix(self):
        base = B2SRMatrix.empty(32, 32, 8)
        out, stats = delta_b2sr(base, np.array([[3, 5], [20, 1]]), None)
        ref_g = Graph.from_edges(32, np.array([[3, 5], [20, 1]]))
        assert_bitwise_equal(out, b2sr_from_csr(ref_g.csr, 8))
        assert stats.carried_tiles == 0
        assert stats.rebuilt_fraction == 1.0

    def test_duplicate_edits_collapse(self):
        g, _ = random_graph(20, 0, seed=0)
        base = b2sr_from_csr(g.csr, 8)
        ins = np.array([[1, 2]] * 7)
        out, stats = delta_b2sr(base, ins, None)
        assert stats.inserts == 1
        assert out.nnz == 1


class TestDeltaStats:
    def test_fraction_bounds(self):
        s = DeltaStats(
            inserts=1, deletes=0, rebuilt_tiles=2, carried_tiles=6,
            dropped_tiles=2, n_tiles=8,
        )
        assert s.touched_tiles == 4
        assert s.rebuilt_fraction == pytest.approx(0.4)
        empty = DeltaStats(0, 0, 0, 0, 0, 0)
        assert empty.rebuilt_fraction == 0.0


class TestApplyEdgeDelta:
    def test_patches_cached_forms_bitwise(self):
        g, edges = random_graph(50, 160, seed=13)
        g.b2sr(8)
        g.b2sr_t(32)
        rng = np.random.default_rng(14)
        ins = rng.integers(0, 50, size=(10, 2))
        g2, rep = apply_edge_delta(g, ins, edges[:8])
        assert set(rep.forms) == {"A8", "At32"}
        # Cached A-form at 8 and At-form at 32 were both patched.
        assert_bitwise_equal(
            g2.cached_b2sr(8), b2sr_from_csr(g2.csr, 8)
        )
        assert_bitwise_equal(
            g2.cached_b2sr_t(32), b2sr_from_csr(g2.csr_t, 32)
        )
        # Transpose CSR was delta-edited, matches a fresh transpose.
        fresh = Graph(g2.csr)
        assert edge_set(g2.csr_t) == edge_set(fresh.csr_t)
        assert rep.n_inserts == rep.inserts.shape[0]
        assert 0.0 <= rep.rebuilt_fraction <= 1.0

    def test_name_and_category_preserved(self):
        g = Graph.from_edges(
            8, np.array([[0, 1]]), name="web", category="power-law"
        )
        g2, _ = apply_edge_delta(g, np.array([[1, 2]]), None)
        assert g2.name == "web"
        assert g2.category == "power-law"


class TestSymmetricEdits:
    """The symmetrized view's edits, derived from a directed delta."""

    @staticmethod
    def derive(edges, ins, dels, n=6):
        """Apply a directed delta, derive the view's edits, and check
        that they turn the old symmetrized view into the new one."""
        g = Graph.from_edges(n, np.array(edges, dtype=np.int64))
        new_csr, eff_ins, eff_del = delta_csr(g.csr, ins, dels)
        sym_ins, sym_del = symmetric_edits(new_csr, eff_ins, eff_del)
        view, _, _ = delta_csr(g.symmetrized().csr, sym_ins, sym_del)
        want = Graph(new_csr).symmetrized().csr
        assert np.array_equal(view.indptr, want.indptr)
        assert np.array_equal(view.indices, want.indices)
        return {tuple(e) for e in sym_ins}, {tuple(e) for e in sym_del}

    def test_self_loop(self):
        ins, dels = self.derive(
            [[3, 3], [0, 1]], np.array([[2, 2]]), np.array([[3, 3]])
        )
        assert ins == {(2, 2)}
        assert dels == {(3, 3)}

    def test_delete_with_surviving_reverse_is_no_deletion(self):
        ins, dels = self.derive([[0, 1], [1, 0]], None, np.array([[0, 1]]))
        assert ins == set()
        assert dels == set()

    def test_both_directions_deleted_in_one_batch(self):
        ins, dels = self.derive(
            [[0, 1], [1, 0], [2, 3]], None, np.array([[0, 1], [1, 0]])
        )
        assert ins == set()
        assert dels == {(0, 1), (1, 0)}

    def test_insert_whose_reverse_existed(self):
        ins, dels = self.derive([[1, 0]], np.array([[0, 1]]), None)
        assert ins == {(0, 1), (1, 0)}  # no-op on the view: both present
        assert dels == set()


class TestCanonicalCSR:
    @pytest.mark.parametrize(
        "indices", [[2, 1], [1, 1]], ids=["unsorted-row", "duplicate"]
    )
    def test_delta_csr_rejects_non_canonical(self, indices):
        csr = CSRMatrix(
            3, 3, np.array([0, 2, 2, 2]), np.array(indices),
            np.ones(2, dtype=np.float32),
        )
        with pytest.raises(ValueError, match="canonical"):
            delta_csr(csr, np.array([[2, 2]]), None)


GRAPHS = {
    "hybrid": lambda n, seed: hybrid_pattern(n, seed=seed),
    "road": lambda n, seed: road_pattern(n, seed=seed),
    "rmat": lambda n, seed: rmat_graph(n.bit_length() - 1, seed=seed),
}


def assert_csr_equal(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class TestEpochChainProperty:
    """Epoch swaps chained through ``GraphRegistry.mutate``: every
    epoch's CSRs and both engines' B2SR operands equal from-scratch
    builds of the edge set the trace has reached."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GRAPHS)),
        n=st.sampled_from((64, 128, 256, 512)),
        tile_dim=st.sampled_from(TILE_DIMS),
        seed=st.integers(0, 10_000),
        batch_size=st.integers(1, 48),
        insert_fraction=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
    )
    def test_epochs_equal_from_scratch_builds(
        self, kind, n, tile_dim, seed, batch_size, insert_fraction
    ):
        g = GRAPHS[kind](n, seed)
        registry = GraphRegistry(max_batch=8)
        registry.add("g", g, tile_dim=tile_dim)
        trace = mutation_trace(
            g, batches=4, batch_size=batch_size,
            insert_fraction=insert_fraction, seed=seed, name="g",
        )
        present = edge_set(g.csr)
        for batch in trace:
            entry, _ = registry.mutate("g", batch.inserts, batch.deletes)
            for edits, apply in (
                (batch.deletes, present.difference_update),
                (batch.inserts, present.update),
            ):
                if edits is not None:
                    apply(map(tuple, edits.tolist()))
            ref = Graph.from_edges(
                g.n, np.array(sorted(present), dtype=np.int64).reshape(-1, 2)
            )
            sym = ref.symmetrized()
            assert_csr_equal(entry.graph.csr, ref.csr)
            assert_csr_equal(entry.graph.csr_t, transpose_csr(ref.csr))
            assert_csr_equal(entry.sym_graph.csr, sym.csr)
            assert_bitwise_equal(
                entry.engine._At, b2sr_from_csr(ref.csr_t, tile_dim)
            )
            assert_bitwise_equal(
                entry.cc_engine._At, b2sr_from_csr(sym.csr_t, tile_dim)
            )


class TestAdoptB2SR:
    def test_geometry_validated(self):
        g, _ = random_graph(20, 40)
        wrong = b2sr_from_csr(random_graph(24, 40)[0].csr, 8)
        with pytest.raises(ValueError, match="expected"):
            g.adopt_b2sr(8, mat=wrong)
        with pytest.raises(ValueError, match="tile_dim"):
            g.adopt_b2sr(7, mat=None)

    def test_adopted_form_is_served_from_cache(self):
        g, _ = random_graph(20, 40)
        mat = b2sr_from_csr(g.csr, 8)
        g.adopt_b2sr(8, mat=mat)
        assert g.b2sr(8) is mat
