"""Tests for the six BMV schemes (Table II) against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.packing import pack_bitvector, unpack_bitvector
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.kernels.bmv import (
    bmv_bin_bin_bin,
    bmv_bin_bin_bin_masked,
    bmv_bin_bin_full,
    bmv_bin_bin_full_masked,
    bmv_bin_full_full,
    bmv_bin_full_full_masked,
    bmv_reference,
)
from repro.semiring import (
    ARITHMETIC,
    BOOLEAN,
    MAX_TIMES,
    MIN_PLUS,
    MIN_SECOND,
    SEMIRINGS,
)


def setup(n=77, seed=0, density=0.1):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(np.float32)
    xb = (rng.random(n) < 0.35).astype(np.float32)
    xf = rng.random(n).astype(np.float32) * 10
    mask = rng.random(n) < 0.5
    return dense, xb, xf, mask


class TestBinBinBin:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_matches_boolean_product(self, d):
        dense, xb, _, _ = setup(seed=d)
        A = b2sr_from_dense(dense, d)
        yw = bmv_bin_bin_bin(A, pack_bitvector(xb, d))
        y = unpack_bitvector(yw, d, dense.shape[0])
        expect = ((dense @ xb) > 0).astype(np.uint8)
        assert np.array_equal(y, expect)

    def test_zero_vector_gives_zero(self):
        dense, _, _, _ = setup(seed=1)
        A = b2sr_from_dense(dense, 8)
        yw = bmv_bin_bin_bin(A, pack_bitvector(np.zeros(77), 8))
        assert np.all(unpack_bitvector(yw, 8, 77) == 0)

    def test_empty_matrix(self):
        A = b2sr_from_dense(np.zeros((16, 16), dtype=np.float32), 4)
        yw = bmv_bin_bin_bin(A, pack_bitvector(np.ones(16), 4))
        assert np.all(unpack_bitvector(yw, 4, 16) == 0)

    def test_short_vector_rejected(self):
        dense, _, _, _ = setup()
        A = b2sr_from_dense(dense, 32)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin(A, np.zeros(1, dtype=np.uint32))


class TestBinBinBinMasked:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_mask_filters_output(self, d):
        dense, xb, _, mask = setup(seed=d + 10)
        A = b2sr_from_dense(dense, d)
        yw = bmv_bin_bin_bin_masked(A, pack_bitvector(xb, d), mask)
        y = unpack_bitvector(yw, d, dense.shape[0])
        expect = (((dense @ xb) > 0) & mask).astype(np.uint8)
        assert np.array_equal(y, expect)

    @pytest.mark.parametrize("d", (8, 32))
    def test_complement_mask(self, d):
        """§V BFS: AND with the negation of the visited vector."""
        dense, xb, _, visited = setup(seed=d + 20)
        A = b2sr_from_dense(dense, d)
        yw = bmv_bin_bin_bin_masked(
            A, pack_bitvector(xb, d), visited, complement=True
        )
        y = unpack_bitvector(yw, d, dense.shape[0])
        expect = (((dense @ xb) > 0) & ~visited).astype(np.uint8)
        assert np.array_equal(y, expect)

    def test_bad_mask_shape(self):
        dense, xb, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        with pytest.raises(ValueError):
            bmv_bin_bin_bin_masked(
                A, pack_bitvector(xb, 8), np.ones(3, dtype=bool)
            )


class TestBinBinFull:
    @pytest.mark.parametrize("d", TILE_DIMS)
    def test_counts_match_integer_product(self, d):
        dense, xb, _, _ = setup(seed=d + 30, density=0.2)
        A = b2sr_from_dense(dense, d)
        y = bmv_bin_bin_full(A, pack_bitvector(xb, d))
        assert np.allclose(y, dense @ xb)

    @pytest.mark.parametrize("d", (4, 32))
    def test_masked_zeros_excluded_rows(self, d):
        dense, xb, _, mask = setup(seed=d + 40)
        A = b2sr_from_dense(dense, d)
        y = bmv_bin_bin_full_masked(A, pack_bitvector(xb, d), mask)
        expect = (dense @ xb) * mask
        assert np.allclose(y, expect)

    def test_masked_complement(self):
        dense, xb, _, mask = setup(seed=50)
        A = b2sr_from_dense(dense, 16)
        y = bmv_bin_bin_full_masked(
            A, pack_bitvector(xb, 16), mask, complement=True
        )
        assert np.allclose(y, (dense @ xb) * ~mask)


class TestBinFullFull:
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize(
        "semiring", [ARITHMETIC, MIN_PLUS, MAX_TIMES, MIN_SECOND, BOOLEAN],
        ids=lambda s: s.name,
    )
    def test_matches_reference_all_semirings(self, d, semiring):
        dense, _, xf, _ = setup(seed=d + 60)
        A = b2sr_from_dense(dense, d)
        y = bmv_bin_full_full(A, xf, semiring)
        ref = bmv_reference(dense, xf, semiring)
        assert np.allclose(y, ref, atol=1e-3)

    def test_min_plus_isolated_row_is_inf(self):
        """§V: 0s in the adjacency matrix are identified as infinite."""
        dense = np.zeros((8, 8), dtype=np.float32)
        dense[0, 1] = 1.0
        A = b2sr_from_dense(dense, 4)
        y = bmv_bin_full_full(A, np.zeros(8, dtype=np.float32), MIN_PLUS)
        assert y[0] == 1.0  # 0 + unit edge weight
        assert np.all(np.isinf(y[1:]))

    def test_arithmetic_row_sums_with_unit_vector(self):
        dense, _, _, _ = setup(seed=70, density=0.3)
        A = b2sr_from_dense(dense, 8)
        y = bmv_bin_full_full(A, np.ones(77, dtype=np.float32), ARITHMETIC)
        assert np.allclose(y, dense.sum(axis=1))

    def test_wrong_vector_length(self):
        dense, _, _, _ = setup()
        A = b2sr_from_dense(dense, 8)
        with pytest.raises(ValueError):
            bmv_bin_full_full(A, np.zeros(5), ARITHMETIC)

    @pytest.mark.parametrize("d", (4, 32))
    def test_masked_semiring_identity_fill(self, d):
        dense, _, xf, mask = setup(seed=d + 80)
        A = b2sr_from_dense(dense, d)
        y = bmv_bin_full_full_masked(A, xf, mask, semiring=MIN_PLUS)
        ref = bmv_reference(dense, xf, MIN_PLUS)
        assert np.allclose(y[mask], ref[mask])
        assert np.all(np.isinf(y[~mask]))

    def test_chunking_boundary(self):
        """Exercise the tile-chunk loop with a matrix crossing the chunk
        size."""
        import repro.kernels.plan as plan_mod

        old = plan_mod._CHUNK_TILES
        plan_mod._CHUNK_TILES = 3
        try:
            dense, _, xf, _ = setup(seed=90, density=0.2)
            A = b2sr_from_dense(dense, 8)
            assert A.n_tiles > 6
            y = bmv_bin_full_full(A, xf, ARITHMETIC)
            assert len(A.plan().chunks(1)) > 1
            assert np.allclose(
                y, bmv_reference(dense, xf, ARITHMETIC), atol=1e-3
            )
        finally:
            plan_mod._CHUNK_TILES = old


class TestNonSquare:
    def test_rectangular_bmv(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((20, 50)) < 0.2).astype(np.float32)
        x = rng.random(50).astype(np.float32)
        A = b2sr_from_dense(dense, 8)
        y = bmv_bin_full_full(A, x, ARITHMETIC)
        assert y.shape == (20,)
        assert np.allclose(y, dense @ x, atol=1e-4)


@given(
    st.integers(min_value=1, max_value=70),
    st.sampled_from(TILE_DIMS),
    st.sampled_from(sorted(SEMIRINGS)),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_bmv_full_matches_reference_property(n, d, semiring_name, seed):
    """Property: every (size, tile_dim, semiring) agrees with the dense
    oracle."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.15).astype(np.float32)
    x = (rng.random(n) * 5).astype(np.float32)
    s = SEMIRINGS[semiring_name]
    A = b2sr_from_dense(dense, d)
    assert np.allclose(
        bmv_bin_full_full(A, x, s), bmv_reference(dense, x, s), atol=1e-3
    )
