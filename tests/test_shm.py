"""Shared-memory graph export lifecycle (repro.formats.shm): bitwise
round-trips across tile dims, read-only enforcement, CRC tamper
detection, idempotent close/unlink, and leak-free teardown."""

import numpy as np
import pytest

from repro.engines import BitEngine
from repro.formats.b2sr import TILE_DIMS, B2SRMatrix
from repro.formats.shm import (
    SEGMENT_PREFIX,
    AttachedGraph,
    ShmGraphExport,
    attach,
    list_segments,
    shm_available,
)
from repro.graph import Graph
from repro.kernels.bmv import bmv_bin_full_full
from repro.kernels.plan import SetBitIndex
from repro.semiring import MIN_PLUS

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def random_graph(seed=0, n=96, m=400):
    rng = np.random.default_rng(seed)
    edges = np.stack(
        [rng.integers(0, n, m), rng.integers(0, n, m)], axis=1
    )
    return Graph.from_edges(n, edges)


def assert_no_segments():
    segs = list_segments()
    assert segs is None or segs == []


class TestRoundTrip:
    @pytest.mark.parametrize("tile_dim", TILE_DIMS)
    def test_bitwise_identical_across_tile_dims(self, tile_dim):
        g = random_graph(seed=tile_dim)
        A = g.b2sr_t(tile_dim)
        with ShmGraphExport(A) as exp:
            att = attach(exp.manifest)
            B = att.matrix
            assert B.tile_dim == A.tile_dim
            assert np.array_equal(B.indptr, A.indptr)
            assert np.array_equal(B.indices, A.indices)
            assert np.array_equal(B.tiles, A.tiles)
            assert B.tiles.dtype == A.tiles.dtype
            # The plan's set-bit index was exported and adopted, and
            # every array is a true zero-copy view into the segment.
            got, want = B.plan().bit_index, A.plan().bit_index
            for name in SetBitIndex.FIELDS:
                arr = getattr(got, name)
                assert np.array_equal(arr, getattr(want, name)), name
                assert arr.base is not None and not arr.flags.writeable
            assert not B.tiles.flags.writeable
            del B, got, arr  # release the views before unmapping
            att.close()
        assert_no_segments()

    def test_kernel_results_identical_through_attach(self):
        g = random_graph(seed=7)
        engine = BitEngine(g)
        frontier = np.zeros(g.n, dtype=bool)
        frontier[:5] = True
        visited = frontier.copy()
        want = engine.frontier_expand(frontier, visited)
        with ShmGraphExport(g.b2sr_t(32)) as exp:
            att = attach(exp.manifest)
            shadow = BitEngine(g)
            shadow._At = att.matrix
            got = shadow.frontier_expand(frontier, visited)
            assert np.array_equal(got, want)
            # The SSSP pull reads the adopted set-bit index.
            x = np.full(g.n, np.inf, dtype=np.float32)
            x[:5] = np.arange(5, dtype=np.float32)
            assert np.array_equal(
                bmv_bin_full_full(att.matrix, x, MIN_PLUS),
                bmv_bin_full_full(g.b2sr_t(32), x, MIN_PLUS),
            )
            del shadow  # release the attached matrix before unmapping
            att.close()
        assert_no_segments()

    def test_without_plan(self):
        g = random_graph(seed=3)
        with ShmGraphExport(g.b2sr_t(16), with_plan=False) as exp:
            assert exp.manifest.keys == ("indptr", "indices", "tiles")
            att = attach(exp.manifest)
            assert np.array_equal(att.matrix.tiles, g.b2sr_t(16).tiles)
            att.close()
        assert_no_segments()


class TestLifecycle:
    def test_segment_named_and_listed(self):
        g = random_graph(seed=1)
        exp = ShmGraphExport(g.b2sr_t(8), token="lifecycle-test")
        try:
            assert exp.name == SEGMENT_PREFIX + "lifecycle-test"
            assert exp.name in (list_segments() or [])
        finally:
            exp.unlink()
        assert_no_segments()

    def test_double_unlink_is_noop(self):
        g = random_graph(seed=2)
        exp = ShmGraphExport(g.b2sr_t(8))
        exp.unlink()
        exp.unlink()  # second unlink must not raise
        assert_no_segments()

    def test_close_idempotent(self):
        g = random_graph(seed=2)
        exp = ShmGraphExport(g.b2sr_t(8))
        att = attach(exp.manifest)
        att.close()
        att.close()  # idempotent
        exp.close()
        exp.close()
        exp.unlink()
        assert_no_segments()

    def test_duplicate_token_raises(self):
        g = random_graph(seed=4)
        exp = ShmGraphExport(g.b2sr_t(8), token="dup")
        try:
            with pytest.raises(FileExistsError):
                ShmGraphExport(g.b2sr_t(8), token="dup")
        finally:
            exp.unlink()
        assert_no_segments()

    def test_attach_after_unlink_raises(self):
        g = random_graph(seed=5)
        exp = ShmGraphExport(g.b2sr_t(8))
        manifest = exp.manifest
        exp.unlink()
        with pytest.raises(FileNotFoundError):
            attach(manifest)


class TestVerification:
    def test_crc_tamper_detected(self):
        g = random_graph(seed=6)
        exp = ShmGraphExport(g.b2sr_t(8))
        try:
            spec = exp.manifest.spec("tiles")
            exp._shm.buf[spec.offset] ^= 0xFF
            with pytest.raises(ValueError, match="bitwise"):
                attach(exp.manifest)
            # verify=False maps it anyway (caller's risk)
            att = attach(exp.manifest, verify=False)
            att.close()
        finally:
            exp.unlink()
        assert_no_segments()

    def test_attached_arrays_read_only(self):
        g = random_graph(seed=8)
        with ShmGraphExport(g.b2sr_t(8)) as exp:
            att = attach(exp.manifest)
            for arr in (att.matrix.indptr, att.matrix.indices,
                        att.matrix.tiles):
                with pytest.raises(ValueError):
                    arr[...] = 0
            del arr  # release the last view before unmapping
            att.close()
        assert_no_segments()


class TestFromSharedViews:
    def _frozen_views(self, A):
        parts = []
        for arr in (A.indptr, A.indices, A.tiles):
            c = arr.copy()
            c.flags.writeable = False
            parts.append(c)
        return parts

    def test_writable_views_rejected(self):
        g = random_graph(seed=9)
        A = g.b2sr_t(8)
        with pytest.raises(ValueError, match="read-only"):
            B2SRMatrix.from_shared_views(
                A.nrows, A.ncols, A.tile_dim,
                A.indptr.copy(), A.indices.copy(), A.tiles.copy(),
            )

    def test_geometry_validated(self):
        g = random_graph(seed=9)
        A = g.b2sr_t(8)
        indptr, indices, tiles = self._frozen_views(A)
        with pytest.raises(ValueError):
            B2SRMatrix.from_shared_views(
                A.nrows, A.ncols, 8, indptr[:-1], indices, tiles
            )

    def test_valid_views_accepted(self):
        g = random_graph(seed=9)
        A = g.b2sr_t(8)
        indptr, indices, tiles = self._frozen_views(A)
        B = B2SRMatrix.from_shared_views(
            A.nrows, A.ncols, A.tile_dim, indptr, indices, tiles
        )
        assert B.nnz == A.nnz

    def test_adopt_bit_index_validates(self):
        g = random_graph(seed=10)
        A = g.b2sr_t(8)
        index = A.plan().bit_index

        def frozen(**changes):
            arrays = {}
            for name in SetBitIndex.FIELDS:
                arr = changes.get(name, getattr(index, name)).copy()
                arr.flags.writeable = False
                arrays[name] = arr
            return arrays

        A.plan().adopt_bit_index(frozen())  # round-trips
        assert np.array_equal(A.plan().bit_index.icol, index.icol)
        for bad in (
            {"icol": index.icol[:-1]},  # entry arrays disagree
            {"irow": index.irow.astype(np.int32)},  # wrong dtype
            {"rows": index.rows[:-1]},  # runs and rows disagree
            {"tile": index.tile + A.n_tiles},  # out of range
        ):
            with pytest.raises(ValueError):
                A.plan().adopt_bit_index(frozen(**bad))
        writable = frozen()
        writable["icol"] = index.icol.copy()
        with pytest.raises(ValueError, match="read-only"):
            A.plan().adopt_bit_index(writable)


class TestAttachedGraph:
    def test_context_manager(self):
        g = random_graph(seed=11)
        with ShmGraphExport(g.b2sr_t(8)) as exp:
            with attach(exp.manifest) as att:
                assert isinstance(att, AttachedGraph)
                assert att.matrix is not None
            assert att.matrix is None
        assert_no_segments()
