"""Tests for the B2SR format — the paper's contribution (§III)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.b2sr import B2SRMatrix, TILE_DIMS, bytes_per_tile
from repro.formats.convert import (
    b2sr_from_csr,
    b2sr_from_dense,
    csr_from_b2sr,
    csr_from_dense,
)


def random_dense(n, m=None, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((n, m or n)) < density).astype(np.float32)


def from_frozen_views(nrows, ncols, tile_dim, indptr, indices, tiles):
    """:meth:`B2SRMatrix.from_shared_views` over read-only copies in
    the stored dtypes, as the shared-memory attach path passes them."""
    views = []
    for arr, dtype in (
        (indptr, np.int64), (indices, np.int64), (tiles, np.uint8)
    ):
        view = np.array(arr, dtype=dtype)
        view.flags.writeable = False
        views.append(view)
    return B2SRMatrix.from_shared_views(nrows, ncols, tile_dim, *views)


#: Both constructors run one geometry check, with the same messages.
CONSTRUCTORS = (B2SRMatrix, from_frozen_views)


class TestBytesPerTile:
    """Table I: binarized packing format."""

    def test_table1_values_with_nibble(self):
        assert bytes_per_tile(4) == 2.0    # 4 × 0.5 B (nibble, §III.B)
        assert bytes_per_tile(8) == 8.0    # 8 × 1 uchar
        assert bytes_per_tile(16) == 32.0  # 16 × 1 ushort
        assert bytes_per_tile(32) == 128.0  # 32 × 1 uint

    def test_table1_savings_vs_float(self):
        # A d×d float tile is 4d² bytes; Table I claims 16×/32× savings.
        assert 4 * 4 * 4 / bytes_per_tile(4, nibble=False) == 16
        assert 4 * 4 * 4 / bytes_per_tile(4, nibble=True) == 32
        for d in (8, 16, 32):
            assert 4 * d * d / bytes_per_tile(d) == 32

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            bytes_per_tile(5)


class TestGeometry:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_tile_row_count_formula(self, d):
        """§III.A: nTileRow = (nRows + tileDim - 1) / tileDim."""
        for n in (1, d - 1, d, d + 1, 3 * d, 3 * d + 2):
            mat = B2SRMatrix.empty(n, n, d)
            assert mat.n_tile_rows == (n + d - 1) // d

    def test_empty_matrix(self):
        m = B2SRMatrix.empty(10, 10, 4)
        assert m.n_tiles == 0 and m.nnz == 0
        assert m.nonempty_tile_ratio() == 0.0
        assert m.tile_occupancy() == 0.0
        assert np.array_equal(m.to_dense(), np.zeros((10, 10)))

    def test_validation_indptr(self):
        for make in CONSTRUCTORS:
            with pytest.raises(ValueError, match="indptr must have length"):
                make(
                    8, 8, 8,
                    np.array([0, 0, 1]),  # wrong length for 1 tile row
                    np.array([0]), np.zeros((1, 8), dtype=np.uint8),
                )

    def test_validation_tile_shape(self):
        for make in CONSTRUCTORS:
            with pytest.raises(ValueError, match="tiles must have shape"):
                make(
                    8, 8, 8, np.array([0, 1]), np.array([0]),
                    np.zeros((1, 4), dtype=np.uint8),
                )

    def test_validation_tile_dim(self):
        for make in CONSTRUCTORS:
            with pytest.raises(ValueError, match="tile_dim must be one of"):
                make(
                    8, 8, 5, np.zeros(3, dtype=np.int64),
                    np.zeros(0), np.zeros((0, 5), dtype=np.uint8),
                )

    def test_validation_col_range(self):
        for make in CONSTRUCTORS:
            with pytest.raises(ValueError, match="out of range"):
                make(
                    8, 8, 8, np.array([0, 1]), np.array([3]),
                    np.zeros((1, 8), dtype=np.uint8),
                )

    #: One bit outside the matrix of each kind, beside the stored edge
    #: (0, 1) of a one-tile matrix: ``(nrows, ncols, tile_dim, tile row,
    #: stray word bits, message)``.
    STRAY_BITS = {
        "beyond_tile_dim": (8, 8, 4, 0, 1 << 4, "beyond tile_dim"),
        "padding_column": (6, 6, 8, 2, 1 << 7, "padding column"),
        "padding_row": (6, 6, 8, 7, 1 << 1, "padding row"),
    }

    @pytest.mark.parametrize("kind", sorted(STRAY_BITS))
    def test_stray_bits_rejected(self, kind):
        """A bit outside the matrix counted in ``nnz`` and reached the
        pulls as an edge: with a stray bit at (2, 7) of a 6×6 B2SR-8
        matrix, a min-plus pull read the operand's +0.0 padding through
        it.  All three constructors reject each kind; the same tile
        without the stray bit is accepted."""
        nrows, ncols, d, row, stray, message = self.STRAY_BITS[kind]
        edge = np.zeros((1, d), dtype=np.uint8)
        edge[0, 0] = 0b10
        tiles = edge.copy()
        tiles[0, row] |= stray
        indptr = np.ones((nrows + d - 1) // d + 1, dtype=np.int64)
        indptr[0] = 0
        zero = np.zeros(1, dtype=np.int64)
        makers = (
            lambda words: B2SRMatrix(nrows, ncols, d, indptr, zero, words),
            lambda words: B2SRMatrix.from_tiles(
                nrows, ncols, d, zero, zero, words, packed=True
            ),
            lambda words: from_frozen_views(
                nrows, ncols, d, indptr, zero, words
            ),
        )
        for make in makers:
            with pytest.raises(ValueError, match=message):
                make(tiles)
            mat = make(edge)
            assert mat.nnz == 1 and mat.to_dense()[0, 1] == 1

    def test_wide_words_checked_before_narrowing(self):
        """Words handed over in a wider dtype than the stored one are
        checked before the cast, so a high bit cannot wrap away and
        leave a stored tile with no set bit."""
        words = np.zeros((1, 8), dtype=np.uint16)
        words[0, 0] = 1 << 8
        zero = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="beyond tile_dim"):
            B2SRMatrix(8, 8, 8, np.array([0, 1]), zero, words)
        with pytest.raises(ValueError, match="beyond tile_dim"):
            B2SRMatrix.from_tiles(8, 8, 8, zero, zero, words, packed=True)


class TestConversion:
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize("n", (1, 7, 32, 63, 100))
    def test_dense_roundtrip(self, d, n):
        dense = random_dense(n, seed=n * d)
        mat = b2sr_from_dense(dense, d)
        assert np.array_equal(mat.to_dense(), dense)

    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_csr_roundtrip(self, d):
        """Square, rectangular and non-multiple shapes, down to one
        row or column, round-trip to the identical CSR arrays."""
        for nrows, ncols in ((75, 75), (37, 90), (90, 37), (1, 33), (33, 1)):
            dense = random_dense(nrows, ncols, seed=d)
            csr = csr_from_dense(dense)
            back = csr_from_b2sr(b2sr_from_csr(csr, d))
            assert back.shape == csr.shape, (nrows, ncols)
            assert np.array_equal(back.indptr, csr.indptr), (nrows, ncols)
            assert np.array_equal(back.indices, csr.indices), (nrows, ncols)
            assert np.array_equal(back.to_dense(), dense), (nrows, ncols)

    def test_nnz_matches(self):
        dense = random_dense(50, seed=5)
        for d in TILE_DIMS:
            assert b2sr_from_dense(dense, d).nnz == int(dense.sum())

    def test_rectangular(self):
        dense = random_dense(20, 50, seed=9)
        for d in (4, 16):
            assert np.array_equal(
                b2sr_from_dense(dense, d).to_dense(), dense
            )

    def test_indices_sorted_within_tile_rows(self):
        mat = b2sr_from_dense(random_dense(100, seed=2), 8)
        for tr in range(mat.n_tile_rows):
            lo, hi = mat.indptr[tr], mat.indptr[tr + 1]
            assert np.all(np.diff(mat.indices[lo:hi]) > 0)


class TestMetrics:
    def test_nonempty_ratio_full_matrix(self):
        dense = np.ones((16, 16), dtype=np.float32)
        mat = b2sr_from_dense(dense, 4)
        assert mat.nonempty_tile_ratio() == 1.0
        assert mat.tile_occupancy() == 1.0

    def test_single_nonzero(self):
        dense = np.zeros((64, 64), dtype=np.float32)
        dense[10, 42] = 1.0
        mat = b2sr_from_dense(dense, 8)
        assert mat.n_tiles == 1
        assert mat.nonempty_tile_ratio() == pytest.approx(1 / 64)
        assert mat.tile_occupancy() == pytest.approx(1 / 64)

    def test_figure3a_trend_on_scattered_matrix(self):
        """Figure 3a: for scattered matrices the non-empty tile *ratio*
        grows with tile size (tile count shrinks slower than 4× per
        step)."""
        dense = random_dense(256, seed=7, density=0.01)
        ratios = [
            b2sr_from_dense(dense, d).nonempty_tile_ratio()
            for d in TILE_DIMS
        ]
        assert ratios == sorted(ratios)

    def test_figure3b_trend_occupancy_decreases(self):
        """Figure 3b: nonzero occupancy inside non-empty tiles drops as
        tiles grow."""
        dense = random_dense(256, seed=8, density=0.01)
        occ = [
            b2sr_from_dense(dense, d).tile_occupancy() for d in TILE_DIMS
        ]
        assert occ == sorted(occ, reverse=True)

    def test_storage_bytes_formula(self):
        mat = b2sr_from_dense(random_dense(64, seed=3), 8)
        expect = 4 * (mat.n_tile_rows + 1) + 4 * mat.n_tiles + (
            mat.n_tiles * bytes_per_tile(8)
        )
        assert mat.storage_bytes() == expect

    def test_tile_row_lengths_sum(self):
        mat = b2sr_from_dense(random_dense(64, seed=4), 16)
        assert mat.tile_row_lengths().sum() == mat.n_tiles


class TestTranspose:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_transpose_matches_dense(self, d):
        dense = random_dense(70, seed=d + 50)
        mat = b2sr_from_dense(dense, d)
        assert np.array_equal(mat.transpose().to_dense(), dense.T)

    def test_transpose_involution(self):
        dense = random_dense(40, seed=11)
        mat = b2sr_from_dense(dense, 8)
        assert np.array_equal(
            mat.transpose().transpose().to_dense(), dense
        )

    def test_rectangular_transpose(self):
        dense = random_dense(24, 40, seed=12)
        mat = b2sr_from_dense(dense, 8)
        t = mat.transpose()
        assert t.shape == (40, 24)
        assert np.array_equal(t.to_dense(), dense.T)

    def test_colmajor_tiles_are_transposed_packing(self):
        dense = random_dense(32, seed=13)
        mat = b2sr_from_dense(dense, 32)
        from repro.bitops.packing import unpack_bits_rowmajor

        cm = mat.colmajor_tiles()
        for t in range(mat.n_tiles):
            assert np.array_equal(
                unpack_bits_rowmajor(cm[t], 32), mat.tile_dense(t).T
            )


class TestEwiseAnd:
    def test_intersection_matches_dense(self):
        a = random_dense(48, seed=20, density=0.3)
        b = random_dense(48, seed=21, density=0.3)
        out = b2sr_from_dense(a, 8).ewise_and(b2sr_from_dense(b, 8))
        assert np.array_equal(out.to_dense(), a * b)

    def test_empty_intersection_drops_tiles(self):
        a = np.zeros((16, 16), dtype=np.float32)
        b = np.zeros((16, 16), dtype=np.float32)
        a[0, 0] = 1.0
        b[8, 8] = 1.0
        out = b2sr_from_dense(a, 8).ewise_and(b2sr_from_dense(b, 8))
        assert out.n_tiles == 0

    def test_mismatched_shapes_raise(self):
        a = b2sr_from_dense(np.zeros((8, 8), dtype=np.float32), 8)
        b = b2sr_from_dense(np.zeros((16, 16), dtype=np.float32), 8)
        with pytest.raises(ValueError):
            a.ewise_and(b)


class TestFromTiles:
    def test_duplicate_coordinates_or_merge(self):
        t1 = np.zeros((4, 4), dtype=np.uint8)
        t2 = np.zeros((4, 4), dtype=np.uint8)
        t1[0, 0] = 1
        t2[3, 3] = 1
        mat = B2SRMatrix.from_tiles(
            8, 8, 4,
            np.array([0, 0]), np.array([1, 1]),
            np.stack([t1, t2]),
        )
        assert mat.n_tiles == 1
        dense = mat.to_dense()
        assert dense[0, 4] == 1 and dense[3, 7] == 1

    def test_tile_dense_accessor(self):
        dense = random_dense(16, seed=30)
        mat = b2sr_from_dense(dense, 16)
        assert np.array_equal(
            mat.tile_dense(0).astype(np.float32), dense
        )
        with pytest.raises(IndexError):
            mat.tile_dense(5)


@given(
    st.integers(min_value=1, max_value=80),
    st.sampled_from(TILE_DIMS),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_b2sr_roundtrip_property(n, d, seed, density):
    """Any 0/1 matrix survives dense → B2SR → dense at any tile size."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(np.float32)
    assert np.array_equal(b2sr_from_dense(dense, d).to_dense(), dense)
