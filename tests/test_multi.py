"""Tests for the batched multi-vector layer: the batch-word codecs, the
``bmv_*_multi`` kernels (including ragged shapes and the strict
packed-operand validation), engine batching, and the batched algorithms.

Binary batches travel as batch words (``pack_bitmatrix``: one word row
per vertex, lane ``j`` of plane ``p`` is batch column ``p·d + j``), so
each column is compared through ``unpack_bitmatrix`` with the vector
codecs and kernels."""

import numpy as np
import pytest

from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    plane_count,
    plane_slices,
    unpack_bitmatrix,
    unpack_bitvector,
)
from repro.datasets.generators import (
    dot_pattern,
    hybrid_pattern,
    rmat_graph,
    road_pattern,
)
from repro.engines import BitEngine, GraphBLASTEngine
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.kernels import planless
from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_bin_multi,
    bmv_bin_bin_bin_multi_masked,
    bmv_bin_bin_full,
    bmv_bin_bin_full_multi,
    bmv_bin_full_full,
    bmv_bin_full_full_multi,
)
from repro.semiring import ARITHMETIC, MIN_PLUS, SEMIRINGS


def lane(words, d, j):
    """Batch column ``j`` of batch words, as 0/1 uint8."""
    return ((words[:, j // d] >> (j % d)) & 1).astype(np.uint8)


def setup(nrows=77, ncols=53, k=5, seed=0, density=0.15):
    """Deliberately ragged: neither dimension is a multiple of any
    tile_dim."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((nrows, ncols)) < density).astype(np.float32)
    Xb = (rng.random((ncols, k)) < 0.35).astype(np.float32)
    Xf = (rng.random((ncols, k)) * 10).astype(np.float32)
    masks = rng.random((nrows, k)) < 0.5
    return dense, Xb, Xf, masks


# ---------------------------------------------------------------------------
# Packed-matrix codec
# ---------------------------------------------------------------------------
class TestBitmatrixPacking:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_columns_equal_bitvector_packing(self, d):
        """Lane ``j`` of the batch words carries the same binarized
        vector as the vector codec packs from column ``j``."""
        _, Xb, _, _ = setup(seed=d)
        n = Xb.shape[0]
        words = pack_bitmatrix(Xb, d)
        assert words.shape == (n, plane_count(Xb.shape[1], d))
        for j in range(Xb.shape[1]):
            vec = unpack_bitvector(pack_bitvector(Xb[:, j], d), d, n)
            assert np.array_equal(lane(words, d, j), vec)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_roundtrip_ragged(self, d):
        rng = np.random.default_rng(d + 1)
        n = 3 * d + d // 2
        X = (rng.random((n, 4)) < 0.4).astype(np.uint8)
        assert np.array_equal(
            unpack_bitmatrix(pack_bitmatrix(X, d), d, 4), X
        )

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            pack_bitmatrix(np.zeros(8), 8)

    def test_unpack_wrong_word_rows(self):
        """The plane count must be exactly ``⌈k/d⌉``: too few or surplus
        word planes for ``k`` are rejected."""
        words = pack_bitmatrix(np.ones((16, 2)), 8)
        assert words.shape == (16, 1)
        with pytest.raises(ValueError):
            unpack_bitmatrix(words, 8, 9)  # two planes needed
        with pytest.raises(ValueError):
            unpack_bitmatrix(words, 8, 0)  # surplus plane

    def test_unpack_bitvector_exact_length(self):
        words = pack_bitvector(np.ones(16), 8)
        assert words.shape == (2,)
        with pytest.raises(ValueError):
            unpack_bitvector(words, 8, 24)  # too few words for n
        with pytest.raises(ValueError):
            unpack_bitvector(words, 8, 8)  # surplus word


# ---------------------------------------------------------------------------
# Multi-word plane layout (k > tile word width)
# ---------------------------------------------------------------------------
class TestWordPlanes:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_plane_count_boundaries(self, d):
        assert plane_count(0, d) == 0
        assert plane_count(1, d) == 1
        assert plane_count(d, d) == 1
        assert plane_count(d + 1, d) == 2
        assert plane_count(2 * d + 3, d) == 3

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_plane_slices_cover_batch_disjointly(self, d):
        for k in (0, 1, d, d + 1, 2 * d + 3):
            slices = plane_slices(k, d)
            assert len(slices) == plane_count(k, d)
            cols = [j for sl in slices for j in range(k)[sl]]
            assert cols == list(range(k))  # disjoint, ordered, complete
            for sl in slices:
                assert sl.stop - sl.start <= d  # at most one word wide

    def test_validation(self):
        with pytest.raises(ValueError):
            plane_count(-1, 8)
        with pytest.raises(ValueError):
            plane_count(4, 5)
        with pytest.raises(ValueError):
            plane_slices(-1, 8)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_pack_bitmatrix_wider_than_word(self, d):
        """Packing accepts k > d; columns stay independent vectors."""
        rng = np.random.default_rng(d)
        n, k = 2 * d + 5, 2 * d + 3
        X = (rng.random((n, k)) < 0.4).astype(np.uint8)
        words = pack_bitmatrix(X, d)
        assert words.shape == (n, plane_count(k, d))
        assert np.array_equal(unpack_bitmatrix(words, d, k), X)
        for j in range(k):
            vec = unpack_bitvector(pack_bitvector(X[:, j], d), d, n)
            assert np.array_equal(lane(words, d, j), vec)
        # Lanes past k in the last plane stay 0.
        assert not (words[:, -1] >> (k - (plane_count(k, d) - 1) * d)).any()

    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize("k_kind", ("d", "d+1", "2d+3", "1", "d-1"))
    def test_kernels_stripe_across_planes(self, d, k_kind):
        """Every multi kernel must be bitwise identical to per-column
        singles when the batch straddles the word-width boundary or
        leaves lanes of its last plane unused, with either mask sense
        and in both skip modes."""
        k = {
            "d": d, "d+1": d + 1, "2d+3": 2 * d + 3, "1": 1, "d-1": d - 1,
        }[k_kind]
        dense, _, _, _ = setup(seed=d)
        rng = np.random.default_rng(100 + d + k)
        ncols = dense.shape[1]
        Xb = (rng.random((ncols, k)) < 0.35).astype(np.float32)
        Xf = (rng.random((ncols, k)) * 10).astype(np.float32)
        masks = rng.random((dense.shape[0], k)) < 0.5
        A = b2sr_from_dense(dense, d)
        Xw = pack_bitmatrix(Xb, d)

        nrows, lanes = dense.shape[0], plane_count(k, d) * d
        Yf = bmv_bin_full_full_multi(A, Xf, MIN_PLUS)
        for j in range(k):
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], MIN_PLUS)
            )
        for skip in (False, True):
            Yw = bmv_bin_bin_bin_multi(A, Xw, skip=skip)
            Yb = unpack_bitmatrix(Yw, d, k)
            Yc = bmv_bin_bin_full_multi(A, Xw, skip=skip)
            assert Yc.shape == (nrows, lanes)
            assert not Yc[:, k:].any()  # lanes past k read 0
            Ym = {
                c: unpack_bitmatrix(
                    bmv_bin_bin_bin_multi_masked(
                        A, Xw, masks, complement=c, skip=skip
                    ),
                    d, lanes,
                )
                for c in (False, True)
            }
            # Lanes past k read 0 even where the complemented mask is 1.
            assert not Ym[True][:, k:].any()
            for j in range(k):
                xw = pack_bitvector(Xb[:, j], d)
                ref = unpack_bitvector(bmv_bin_bin_bin(A, xw), d, nrows)
                assert np.array_equal(Yb[:, j], ref)
                assert np.array_equal(Yc[:, j], bmv_bin_bin_full(A, xw))
                for c, Y in Ym.items():
                    ref = bmv_bin_bin_bin_masked(
                        A, xw, masks[:, j], complement=c
                    )
                    assert np.array_equal(
                        Y[:, j], unpack_bitvector(ref, d, nrows)
                    )

    def test_plane_boundary_independent_of_chunking(self):
        """Plane striping composes with tile chunking: shrinking the
        chunk budget must not change any column of a multi-plane batch."""
        import repro.kernels.plan as plan_mod

        old = plan_mod._CHUNK_TILES
        plan_mod._CHUNK_TILES = 7
        try:
            dense, _, _, _ = setup(seed=41, density=0.3)
            rng = np.random.default_rng(4)
            k = 19  # three planes at d=8
            Xb = (rng.random((dense.shape[1], k)) < 0.4).astype(np.float32)
            Xf = (rng.random((dense.shape[1], k)) * 5).astype(np.float32)
            A = b2sr_from_dense(dense, 8)
            Yw = unpack_bitmatrix(
                bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8)), 8, k
            )
            Yf = bmv_bin_full_full_multi(A, Xf, ARITHMETIC)
            assert len(A.plan().chunks(8)) > 1  # one plane is 8 wide
        finally:
            plan_mod._CHUNK_TILES = old
        for j in range(k):
            yw = bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], 8))
            assert np.array_equal(
                Yw[:, j], unpack_bitvector(yw, 8, A.nrows)
            )
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], ARITHMETIC)
            )

    def test_engine_multi_expand_wide_batch(self):
        """Engine-level batched expansion equals the per-column fallback
        past the word width."""
        from repro.datasets.generators import dot_pattern

        g = dot_pattern(120, 0.04, seed=13)
        rng = np.random.default_rng(0)
        k = 21  # three planes at d=8
        F = np.zeros((g.n, k), dtype=bool)
        F[rng.choice(g.n, k), np.arange(k)] = True
        V = F.copy()
        bit = BitEngine(g, tile_dim=8)
        batched = bit.frontier_expand_multi(F, V)
        loop = super(BitEngine, bit).frontier_expand_multi(F, V)
        assert np.array_equal(batched, loop)


# ---------------------------------------------------------------------------
# Packed-operand validation (exact length, packing-width discipline)
# ---------------------------------------------------------------------------
class TestPackedOperandValidation:
    def _matrix(self, d=8):
        dense, _, _, _ = setup()
        return b2sr_from_dense(dense, d)

    def test_under_length_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin(A, np.zeros(A.n_tile_cols - 1, dtype=np.uint8))

    def test_over_length_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_full(A, np.zeros(A.n_tile_cols + 3, dtype=np.uint8))

    def test_wider_dtype_safely_narrowed(self):
        dense, xb, _, _ = setup(k=1)
        A = b2sr_from_dense(dense, 8)
        xw = pack_bitvector(xb[:, 0] if xb.ndim == 2 else xb, 8)
        wide = xw.astype(np.uint64)
        assert np.array_equal(
            bmv_bin_bin_bin(A, wide), bmv_bin_bin_bin(A, xw)
        )

    def test_wider_dtype_with_high_bits_rejected(self):
        """A word carrying bits beyond tile_dim was packed at a different
        width; silently truncating it would drop set bits."""
        A = self._matrix(d=8)
        bad = np.full(A.n_tile_cols, 0x1FF, dtype=np.uint16)
        with pytest.raises(ValueError, match="different tile_dim"):
            bmv_bin_bin_bin(A, bad)

    def test_mismatched_packing_width_rejected(self):
        """Packing at d=16 and running a d=8 kernel must not be silently
        accepted even when the word counts happen to collide."""
        dense = np.zeros((32, 32), dtype=np.float32)
        dense[0, 31] = 1.0
        A = b2sr_from_dense(dense, 8)  # 4 words of 8 bits
        v = np.zeros(32)
        v[15] = 1.0
        wrong = pack_bitvector(v, 16)  # 2 words of 16 bits
        with pytest.raises(ValueError):
            bmv_bin_bin_bin(A, wrong)

    def test_float_dtype_rejected(self):
        A = self._matrix()
        with pytest.raises(ValueError, match="integer"):
            bmv_bin_bin_bin(A, np.zeros(A.n_tile_cols, dtype=np.float32))

    def test_negative_signed_words_rejected(self):
        """A negative signed word is a sign bit beyond tile_dim; narrowing
        it would silently wrap and drop set bits."""
        A = self._matrix(d=8)
        bad = np.full(A.n_tile_cols, -32768, dtype=np.int16)
        with pytest.raises(ValueError, match="different tile_dim"):
            bmv_bin_bin_bin(A, bad)

    def test_nonnegative_signed_words_narrowed(self):
        dense, xb, _, _ = setup(k=1)
        A = b2sr_from_dense(dense, 8)
        xw = pack_bitvector(xb[:, 0] if xb.ndim == 2 else xb, 8)
        assert np.array_equal(
            bmv_bin_bin_bin(A, xw.astype(np.int64)), bmv_bin_bin_bin(A, xw)
        )

    def test_multi_wrong_word_rows_rejected(self):
        dense, Xb, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        words = pack_bitmatrix(Xb, 8)
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin_multi(A, words[:-1])
        with pytest.raises(ValueError, match="exactly"):
            bmv_bin_bin_bin_multi(A, words[:, 0])  # 1-D

    def test_multi_mask_shape_rejected(self):
        """A mask must have one row per output row, a batch width whose
        plane count matches the operand's words, and a column for every
        lane the operand sets: a narrower mask would drop that lane's
        output silently.  The planless seed validates alike."""
        dense, Xb, _, masks = setup()
        Xb[0, -1] = 1.0  # the last batch column is live
        A = b2sr_from_dense(dense, 8)
        words = pack_bitmatrix(Xb, 8)  # k = 5: one plane
        wide = np.ones((A.nrows, 9), dtype=bool)  # two planes
        for kernel in (
            bmv_bin_bin_bin_multi_masked,
            planless.bmv_bin_bin_bin_multi_masked,
        ):
            for bad in (masks[:-1], wide, masks[:, 0], masks[:, :-1]):
                with pytest.raises(ValueError, match="masks"):
                    kernel(A, words, bad, complement=True)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_multi_narrow_mask_over_clear_lanes_accepted(self, d):
        """A mask narrower than the operand's batch is accepted when the
        uncovered lanes are clear, and returns what the full mask does."""
        dense, _, _, _ = setup(seed=d)
        A = b2sr_from_dense(dense, d)
        rng = np.random.default_rng(d)
        k = d + 3
        Xb = rng.random((A.ncols, k)) < 0.35
        Xb[:, k - 2:] = False
        masks = rng.random((A.nrows, k)) < 0.5
        words = pack_bitmatrix(Xb, d)
        for complement in (False, True):
            full = bmv_bin_bin_bin_multi_masked(
                A, words, masks, complement=complement
            )
            for kernel in (
                bmv_bin_bin_bin_multi_masked,
                planless.bmv_bin_bin_bin_multi_masked,
            ):
                got = kernel(A, words, masks[:, :-2], complement=complement)
                assert np.array_equal(got, full)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_multi_words_with_high_bits_rejected(self, d):
        """A batch word with bits beyond tile_dim was packed at a wider
        width, as for the vector kernels."""
        dense, _, _, _ = setup(seed=d)
        A = b2sr_from_dense(dense, d)
        wide = np.full((A.ncols, 1), 1 << d, dtype=np.uint64)
        with pytest.raises(ValueError, match="different tile_dim"):
            bmv_bin_bin_bin_multi(A, wide)


# ---------------------------------------------------------------------------
# Multi kernels == per-column single kernels
# ---------------------------------------------------------------------------
class TestMultiKernels:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_bin_multi(self, d):
        dense, Xb, _, _ = setup(seed=d)
        A = b2sr_from_dense(dense, d)
        k = Xb.shape[1]
        Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, d))
        assert Yw.shape == (A.nrows, plane_count(k, d))
        Y = unpack_bitmatrix(Yw, d, k)
        for j in range(k):
            ref = bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], d))
            assert np.array_equal(Y[:, j], unpack_bitvector(ref, d, A.nrows))

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_bin_multi_masked(self, d):
        dense, Xb, _, masks = setup(seed=d + 10)
        A = b2sr_from_dense(dense, d)
        k = Xb.shape[1]
        Y = unpack_bitmatrix(
            bmv_bin_bin_bin_multi_masked(
                A, pack_bitmatrix(Xb, d), masks, complement=True
            ),
            d, k,
        )
        for j in range(k):
            ref = bmv_bin_bin_bin_masked(
                A, pack_bitvector(Xb[:, j], d), masks[:, j],
                complement=True,
            )
            assert np.array_equal(Y[:, j], unpack_bitvector(ref, d, A.nrows))

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_bin_bin_full_multi(self, d):
        dense, Xb, _, _ = setup(seed=d + 20, density=0.25)
        A = b2sr_from_dense(dense, d)
        k = Xb.shape[1]
        Y = bmv_bin_bin_full_multi(A, pack_bitmatrix(Xb, d))
        assert Y.shape == (dense.shape[0], plane_count(k, d) * d)
        assert not Y[:, k:].any()  # one column per lane; lanes past k
        for j in range(k):
            ref = bmv_bin_bin_full(A, pack_bitvector(Xb[:, j], d))
            assert np.array_equal(Y[:, j], ref)

    @pytest.mark.parametrize("d", (4, 16, 32))
    @pytest.mark.parametrize(
        "semiring_name", sorted(SEMIRINGS), ids=lambda s: s
    )
    def test_bin_full_full_multi(self, d, semiring_name):
        dense, _, Xf, _ = setup(seed=d + 30)
        s = SEMIRINGS[semiring_name]
        A = b2sr_from_dense(dense, d)
        Y = bmv_bin_full_full_multi(A, Xf, s)
        for j in range(Xf.shape[1]):
            ref = bmv_bin_full_full(A, Xf[:, j], s)
            assert np.array_equal(Y[:, j], ref, equal_nan=True)

    def test_chunking_boundary(self):
        """Batch widths shrink the tile chunk; crossing chunk boundaries
        must not change any column."""
        import repro.kernels.plan as plan_mod

        old = plan_mod._CHUNK_TILES
        plan_mod._CHUNK_TILES = 7
        try:
            dense, Xb, Xf, _ = setup(seed=40, density=0.3)
            A = b2sr_from_dense(dense, 8)
            assert A.n_tiles > 14
            k = Xb.shape[1]
            Yw = unpack_bitmatrix(
                bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8)), 8, k
            )
            Yf = bmv_bin_full_full_multi(A, Xf, MIN_PLUS)
            assert len(A.plan().chunks(min(k, 8))) > 1
        finally:
            plan_mod._CHUNK_TILES = old
        for j in range(k):
            yw = bmv_bin_bin_bin(A, pack_bitvector(Xb[:, j], 8))
            assert np.array_equal(
                Yw[:, j], unpack_bitvector(yw, 8, A.nrows)
            )
            assert np.array_equal(
                Yf[:, j], bmv_bin_full_full(A, Xf[:, j], MIN_PLUS)
            )

    def test_empty_matrix(self):
        A = b2sr_from_dense(np.zeros((20, 12), dtype=np.float32), 8)
        Xb = np.ones((12, 3), dtype=np.float32)
        Yw = bmv_bin_bin_bin_multi(A, pack_bitmatrix(Xb, 8))
        assert Yw.shape == (20, 1) and not Yw.any()  # one word plane
        Y = bmv_bin_bin_full_multi(A, pack_bitmatrix(Xb, 8))
        assert Y.shape == (20, 8) and not Y.any()  # one column per lane
        Yf = bmv_bin_full_full_multi(A, np.ones((12, 3)), ARITHMETIC)
        assert Yf.shape == (20, 3) and not Yf.any()

    def test_all_zero_frontiers(self):
        dense, _, _, masks = setup()
        A = b2sr_from_dense(dense, 16)
        Z = np.zeros((dense.shape[1], 4), dtype=np.float32)
        Yw = bmv_bin_bin_bin_multi_masked(
            A, pack_bitmatrix(Z, 16), masks[:, :4]
        )
        assert not Yw.any()

    def test_zero_width_batch(self):
        dense, _, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        Yw = bmv_bin_bin_bin_multi(
            A, np.zeros((A.ncols, 0), dtype=np.uint8)
        )
        assert Yw.shape == (A.nrows, 0)


# ---------------------------------------------------------------------------
# Engines and algorithms
# ---------------------------------------------------------------------------
class TestBatchedAlgorithms:
    @pytest.mark.parametrize("tile_dim", TILE_DIMS)
    def test_multi_source_bfs_equals_singles(self, tile_dim):
        """On the serving workloads' graph families, with a batch that
        leaves lanes of its last word plane unused."""
        from repro.algorithms import bfs, multi_source_bfs

        rng = np.random.default_rng(1)
        for g in (
            hybrid_pattern(300, seed=5),
            rmat_graph(7, seed=1),
            road_pattern(64, seed=1),
        ):
            sources = rng.choice(g.n, size=tile_dim + 3, replace=False)
            engine = BitEngine(g, tile_dim=tile_dim)
            depth, rep = multi_source_bfs(engine, sources)
            # One launch per level, whatever k is.
            assert rep.kernel_stats.launches == rep.iterations
            for j, s in enumerate(sources):
                ref, _ = bfs(engine, int(s))
                assert np.array_equal(depth[:, j], ref)

    def test_multi_source_bfs_backends_agree(self):
        from repro.algorithms import multi_source_bfs

        g = dot_pattern(200, 0.02, seed=2)
        sources = np.array([0, 3, 11, 42])
        db, _ = multi_source_bfs(BitEngine(g, tile_dim=16), sources)
        dg, _ = multi_source_bfs(GraphBLASTEngine(g), sources)
        assert np.array_equal(db, dg)

    def test_multi_source_bfs_validates_sources(self):
        from repro.algorithms import multi_source_bfs

        g = dot_pattern(50, 0.05, seed=3)
        engine = BitEngine(g, tile_dim=8)
        with pytest.raises(ValueError):
            multi_source_bfs(engine, np.array([0, g.n]))
        with pytest.raises(ValueError):
            multi_source_bfs(engine, np.empty(0, dtype=np.int64))

    def test_pagerank_multi_matches_width_one(self):
        from repro.algorithms import pagerank_multi

        g = hybrid_pattern(200, seed=7)
        engine = BitEngine(g, tile_dim=32)
        seeds = np.array([2, 17, 101])
        ranks, rep = pagerank_multi(engine, seeds)
        assert ranks.shape == (g.n, 3)
        assert np.allclose(ranks.sum(axis=0), 1.0, atol=1e-4)
        for j, s in enumerate(seeds):
            col, _ = pagerank_multi(engine, np.array([s]))
            assert np.allclose(ranks[:, j], col[:, 0], atol=1e-6)

    def test_pagerank_multi_backends_agree(self):
        from repro.algorithms import pagerank_multi

        g = dot_pattern(150, 0.03, seed=9)
        seeds = np.array([1, 10, 20, 30])
        rb, _ = pagerank_multi(BitEngine(g, tile_dim=32), seeds)
        rg, _ = pagerank_multi(GraphBLASTEngine(g), seeds)
        assert np.allclose(rb, rg, atol=1e-4)

    def test_landmark_diameter_bounds(self):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import shortest_path

        from repro.algorithms import landmark_diameter

        g = hybrid_pattern(250, seed=11).symmetrized()
        engine = BitEngine(g, tile_dim=32)
        est, rep = landmark_diameter(engine, landmarks=12, seed=0)
        dist = shortest_path(
            sp.csr_matrix(
                (np.ones(g.nnz), g.csr.indices, g.csr.indptr),
                shape=g.csr.shape,
            ),
            method="D", unweighted=True,
        )
        true_diameter = int(dist[np.isfinite(dist)].max())
        # A valid, non-trivial lower bound, produced by batched sweeps.
        assert 0 < est <= true_diameter
        assert rep.iterations > 0

    def test_engine_base_fallback_matches_bit(self):
        """The default per-column fallback and the batched bit kernels
        produce identical expansions."""
        g = dot_pattern(120, 0.04, seed=13)
        rng = np.random.default_rng(0)
        F = np.zeros((g.n, 3), dtype=bool)
        F[rng.choice(g.n, 3), np.arange(3)] = True
        V = F.copy()
        bit = BitEngine(g, tile_dim=8)
        batched = bit.frontier_expand_multi(F, V)
        loop = super(BitEngine, bit).frontier_expand_multi(F, V)
        assert np.array_equal(batched, loop)


# ---------------------------------------------------------------------------
# bmm_bin_bin_b2sr chunked OR-merge
# ---------------------------------------------------------------------------
class TestBmmB2srChunking:
    def _check(self, dense_a, dense_b, d):
        from repro.kernels.bmm import bmm_bin_bin_b2sr

        A = b2sr_from_dense(dense_a, d)
        B = b2sr_from_dense(dense_b, d)
        C = bmm_bin_bin_b2sr(A, B)
        ref = ((dense_a != 0).astype(np.int64)
               @ (dense_b != 0).astype(np.int64)) > 0
        assert np.array_equal(C.to_dense() != 0, ref)

    @pytest.mark.parametrize("d", (4, 8, 32))
    def test_matches_dense_boolean_product(self, d):
        rng = np.random.default_rng(d)
        a = (rng.random((45, 37)) < 0.2).astype(np.float32)
        b = (rng.random((37, 51)) < 0.2).astype(np.float32)
        self._check(a, b, d)

    def test_chunk_boundary_merge(self):
        """Output tiles straddling the pair-chunk boundary must OR-merge
        across chunks, not duplicate."""
        import repro.kernels.bmm as bmm_mod

        rng = np.random.default_rng(0)
        a = (rng.random((40, 40)) < 0.4).astype(np.float32)
        b = (rng.random((40, 40)) < 0.4).astype(np.float32)
        old = bmm_mod._CHUNK_PAIRS
        bmm_mod._CHUNK_PAIRS = 3
        try:
            self._check(a, b, 8)
        finally:
            bmm_mod._CHUNK_PAIRS = old

    def test_dense_tile_graph_peak_scratch(self):
        """A dense tile graph produces many pairs; the chunked merge must
        handle it without materialising all pair tiles (smoke: result
        correctness on a dense-ish product)."""
        rng = np.random.default_rng(1)
        a = (rng.random((64, 64)) < 0.6).astype(np.float32)
        self._check(a, a, 4)
