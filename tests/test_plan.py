"""Tests for the kernel sweep-plan subsystem (kernels/plan.py).

The contract under test: every plan-backed kernel — warm or cold, dense
or active-tile skip — returns results *bitwise identical* to the
preserved planless seed kernels, across all schemes × semirings × tile
dims × batch widths; plans are memoized per matrix and can never go
stale because B2SR is immutable.
"""

import numpy as np
import pytest

import repro.bitops.packing as packing_mod
from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bitvector,
    plane_slices,
)
from repro.bitops.segreduce import (
    SequentialFoldPlan,
    segment_sum_sequential,
)
from repro.datasets.generators import diagonal_pattern
from repro.engines import BitEngine
from repro.formats.b2sr import TILE_DIMS
from repro.formats.convert import b2sr_from_dense
from repro.kernels import bmv, planless
from repro.kernels.costmodel import bmv_stats
from repro.kernels.plan import SweepPlan, value_activity, word_activity
from repro.gpusim.device import GTX1080
from repro.semiring import ARITHMETIC, MIN_PLUS, SEMIRINGS


def build(n=77, d=8, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(np.float32)
    return b2sr_from_dense(dense, d), dense, rng


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        u = np.dtype(f"u{a.dtype.itemsize}")
        return np.array_equal(a.view(u), b.view(u))
    return np.array_equal(a, b)


#: Operand families of the semiring differential test.  ``signed`` mixes
#: NaN, +0.0 and -0.0 — the values whose min/max depends on fold order,
#: which must route the idempotent semirings to the dense sweep.
OPERAND_FAMILIES = ("identity_heavy", "signed", "float64", "all_identity")


def operand(family, s, shape, rng):
    X = (rng.standard_normal(shape) * 5).astype(np.float32)
    if family == "all_identity":
        return np.full(shape, s.zero, dtype=np.float32)
    if family == "signed":
        X[rng.random(shape) < 0.3] = 0.0
        X[rng.random(shape) < 0.3] = -0.0
        X[rng.random(shape) < 0.05] = np.nan
    elif family == "float64":
        X = X.astype(np.float64)
    # Identity-heavy operands exercise the elision paths.
    X[rng.random(shape) < 0.6] = s.zero
    return X


def expected_counters(A, X, s, skip):
    """What every semiring sweep must report: per word plane, the stored
    tiles whose column block is active (skip) or all of them (dense)."""
    d = A.tile_dim
    cols = X.reshape(X.shape[0], -1)
    xpad = np.zeros((A.n_tile_cols * d, cols.shape[1]), dtype=cols.dtype)
    xpad[: A.ncols] = cols
    active = visits = 0.0
    for sl in plane_slices(cols.shape[1], d):
        act = value_activity(xpad[:, sl], d, s.zero)[A.indices]
        active += float(act.sum()) if skip else float(A.n_tiles)
        visits += float(A.n_tiles)
    return {"active_tiles": active, "tile_visits": visits}


# ----------------------------------------------------------------------
# Bitwise plan-vs-planless equality
# ----------------------------------------------------------------------
class TestBitwiseEquality:
    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize("skip", [False, True])
    def test_binary_schemes_all_widths(self, d, skip):
        A, dense, rng = build(n=77, d=d, seed=d)
        n = dense.shape[0]
        for k in (1, d, d + 1, 2 * d + 3):
            X = rng.random((n, k)) < 0.15
            XW = pack_bitmatrix(X, d)
            assert bitwise_equal(
                bmv.bmv_bin_bin_bin_multi(A, XW, skip=skip),
                planless.bmv_bin_bin_bin_multi(A, XW),
            )
            assert bitwise_equal(
                bmv.bmv_bin_bin_full_multi(A, XW, skip=skip),
                planless.bmv_bin_bin_full_multi(A, XW),
            )
            masks = rng.random((n, k)) < 0.5
            assert bitwise_equal(
                bmv.bmv_bin_bin_bin_multi_masked(
                    A, XW, masks, complement=True, skip=skip
                ),
                planless.bmv_bin_bin_bin_multi_masked(
                    A, XW, masks, complement=True
                ),
            )
        xw = pack_bitvector(rng.random(n) < 0.2, d)
        mask = rng.random(n) < 0.5
        assert bitwise_equal(
            bmv.bmv_bin_bin_bin(A, xw, skip=skip),
            planless.bmv_bin_bin_bin(A, xw),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_full(A, xw, skip=skip),
            planless.bmv_bin_bin_full(A, xw),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_bin_masked(A, xw, mask, skip=skip),
            planless.bmv_bin_bin_bin_masked(A, xw, mask),
        )
        assert bitwise_equal(
            bmv.bmv_bin_bin_full_masked(A, xw, mask, skip=skip),
            planless.bmv_bin_bin_full_masked(A, xw, mask),
        )

    @pytest.mark.parametrize("d", TILE_DIMS)
    @pytest.mark.parametrize(
        "semiring_name", sorted(SEMIRINGS), ids=lambda s: s
    )
    @pytest.mark.parametrize("skip", [False, True])
    def test_semiring_schemes_all_widths(self, d, semiring_name, skip):
        s = SEMIRINGS[semiring_name]
        A, dense, rng = build(n=77, d=d, seed=d + 100)
        n = dense.shape[0]
        for family in OPERAND_FAMILIES:
            for k in (1, d, d + 1, 2 * d + 3):
                X = operand(family, s, (n, k), rng)
                counters = {}
                assert bitwise_equal(
                    bmv.bmv_bin_full_full_multi(
                        A, X, s, skip=skip, counters=counters
                    ),
                    planless.bmv_bin_full_full_multi(A, X, s),
                ), (family, k)
                assert counters == expected_counters(A, X, s, skip), (
                    family, k
                )
            x = operand(family, s, (n,), rng)
            mask = rng.random(n) < 0.5
            counters = {}
            assert bitwise_equal(
                bmv.bmv_bin_full_full(A, x, s, skip=skip, counters=counters),
                planless.bmv_bin_full_full(A, x, s),
            ), family
            assert counters == expected_counters(A, x, s, skip), family
            assert bitwise_equal(
                bmv.bmv_bin_full_full_masked(
                    A, x, mask, semiring=s, skip=skip
                ),
                planless.bmv_bin_full_full_masked(A, x, mask, semiring=s),
            ), family

    @pytest.mark.parametrize("skip", [False, True])
    def test_float64_payloads_with_signed_zeros(self, skip):
        A, dense, rng = build(n=90, d=16, seed=5)
        x = rng.standard_normal(90)
        x[rng.random(90) < 0.5] = 0.0
        x[rng.random(90) < 0.2] = -0.0
        for s in SEMIRINGS.values():
            a = bmv.bmv_bin_full_full(A, x, s, skip=skip)
            b = planless.bmv_bin_full_full(A, x, s)
            assert a.dtype == np.float64
            assert bitwise_equal(a, b)

    def test_negative_zero_stays_active(self):
        # -0.0 equals +0.0 numerically but not bit-wise; the activity
        # test must keep it active or the first fold element would flip
        # sign bits (see value_activity).
        xpad = np.array([0.0, -0.0, 0.0, 0.0], dtype=np.float32)
        act = value_activity(xpad, 4, 0.0)
        assert act.tolist() == [True]
        assert value_activity(
            np.zeros(4, dtype=np.float32), 4, 0.0
        ).tolist() == [False]

    def test_chunked_matrices_hit_multiple_chunks(self, monkeypatch):
        monkeypatch.setattr(bmv, "_CHUNK_TILES", 3)
        A, dense, rng = build(n=130, d=8, density=0.15, seed=9)
        assert len(A.plan().chunks(1, row_aligned=True)) > 3
        x = rng.random(130).astype(np.float32)
        x[rng.random(130) < 0.5] = np.inf
        for skip in (False, True):
            assert bitwise_equal(
                bmv.bmv_bin_full_full(A, x, MIN_PLUS, skip=skip),
                planless.bmv_bin_full_full(A, x, MIN_PLUS),
            )


# ----------------------------------------------------------------------
# Plan reuse / warm-vs-cold
# ----------------------------------------------------------------------
class TestPlanReuse:
    def test_plan_is_memoized_per_matrix(self):
        A, _, _ = build()
        assert A.plan() is A.plan()
        B, _, _ = build(seed=1)
        assert A.plan() is not B.plan()

    def test_kernel_rejects_foreign_plan(self):
        A, _, rng = build()
        B, _, _ = build(seed=1)
        xw = pack_bitvector(rng.random(77) < 0.5, 8)
        with pytest.raises(ValueError, match="different matrix"):
            bmv.bmv_bin_bin_bin_multi(
                A, pack_bitmatrix(rng.random((77, 2)) < 0.5, 8),
                plan=B.plan(),
            )

    def test_warm_launch_does_not_reunpack(self, monkeypatch):
        """After one launch (or an explicit warm()), repeated launches
        never call unpack_bits_rowmajor again — the per-launch unpack was
        the seed kernels' dominant cost."""
        A, dense, rng = build(n=100, d=8, seed=3)
        x = rng.random(100).astype(np.float32)
        y0 = bmv.bmv_bin_full_full(A, x, ARITHMETIC)  # builds the plan

        calls = {"n": 0}
        real = packing_mod.unpack_bits_rowmajor

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        import repro.kernels.plan as plan_mod

        monkeypatch.setattr(plan_mod, "unpack_bits_rowmajor", counting)
        y1 = bmv.bmv_bin_full_full(A, x, ARITHMETIC)
        assert calls["n"] == 0
        assert bitwise_equal(y0, y1)

    def test_zero_budget_plan_still_bitwise(self):
        A, dense, rng = build(n=100, d=16, seed=4)
        plan = SweepPlan(A, bits_budget=0)
        x = rng.random(100).astype(np.float32)
        for skip in (False, True):
            got = bmv.bmv_bin_full_full(
                A, x, ARITHMETIC, plan=plan, skip=skip
            )
            assert bitwise_equal(got, planless.bmv_bin_full_full(A, x))
        assert plan.bits_cached_bytes == 0

    def test_warm_builds_state(self):
        """warm() builds what serving launches read — the chunk tables
        and the set-bit index; the dense sweep's bit-mask caches stay
        empty until the first arithmetic launch fills them."""
        A, _, rng = build(n=100, d=8, seed=6)
        plan = SweepPlan(A)
        st = plan.stats()
        assert st["chunk_tables"] == 0 and st["bit_index_cached"] == 0
        plan.warm((1, 8))
        st = plan.stats()
        assert st["chunk_tables"] >= 2
        assert st["bit_index_cached"] == 1
        assert st["bit_index_bytes"] == plan.bit_index.nbytes > 0
        assert plan.bits_cached_bytes == 0
        x = rng.random(100).astype(np.float32)
        X = rng.random((100, 3)).astype(np.float32)
        bmv.bmv_bin_full_full(A, x, MIN_PLUS, plan=plan)
        bmv.bmv_bin_full_full_multi(A, X, MIN_PLUS, plan=plan)
        assert plan.bits_cached_bytes == 0
        got = bmv.bmv_bin_full_full(A, x, ARITHMETIC, plan=plan)
        assert plan.bits_cached_bytes > 0
        assert bitwise_equal(got, planless.bmv_bin_full_full(A, x))

    def test_set_bit_index_lists_every_stored_bit(self):
        A, dense, _ = build(n=77, d=8, density=0.2, seed=14)
        ix = A.plan().bit_index
        assert ix.icol.size == A.nnz
        # Sorted by output row, runs delimited exactly.
        assert np.all(np.diff(ix.irow) >= 0)
        assert np.array_equal(ix.rows, np.unique(ix.irow))
        assert np.array_equal(ix.irow[ix.starts], ix.rows)
        # Every entry is a stored bit of its owning tile, and the
        # (row, col) pairs are exactly the matrix's nonzeros.
        d = A.tile_dim
        assert np.array_equal(A.indices[ix.tile], ix.icol // d)
        assert np.array_equal(A.tile_row_of()[ix.tile], ix.irow // d)
        got = sorted(zip(ix.irow.tolist(), ix.icol.tolist()))
        want = sorted(zip(*(a.tolist() for a in np.nonzero(dense))))
        assert got == want
        for name in ix.FIELDS:
            assert not getattr(ix, name).flags.writeable

    def test_registry_entry_owns_warm_plans(self):
        g = diagonal_pattern(128, bandwidth=2, seed=1)
        from repro.serving import GraphRegistry

        reg = GraphRegistry(max_batch=8)
        entry = reg.add("g", g, tile_dim=8)
        plan = entry.engine._At.plan()
        assert plan.stats()["chunk_tables"] >= 2

    def test_sequential_fold_plan_matches_adhoc(self):
        rng = np.random.default_rng(0)
        for total, n_seg in ((0, 0), (7, 3), (300, 4), (50, 50)):
            if n_seg:
                starts = np.unique(
                    rng.integers(0, total, size=n_seg)
                )
                starts[0] = 0
            else:
                starts = np.zeros(0, dtype=np.int64)
            v = rng.standard_normal((total, 3)).astype(np.float32)
            prog = SequentialFoldPlan(starts, total)
            got = prog(v)
            want = segment_sum_sequential(v, starts)
            assert bitwise_equal(got, want)


# ----------------------------------------------------------------------
# Active-tile skip behaviour
# ----------------------------------------------------------------------
class TestSkipMode:
    @pytest.mark.parametrize("d", (8, 32))
    def test_empty_full_single_bit_frontiers(self, d):
        A, dense, rng = build(n=96, d=d, density=0.2, seed=d)
        n = dense.shape[0]
        cases = {
            "empty": np.zeros(n, dtype=bool),
            "full": np.ones(n, dtype=bool),
            "single": np.eye(1, n, 5, dtype=bool)[0],
        }
        for label, frontier in cases.items():
            xw = pack_bitvector(frontier, d)
            counters = {}
            got = bmv.bmv_bin_bin_bin(A, xw, skip=True, counters=counters)
            assert bitwise_equal(got, planless.bmv_bin_bin_bin(A, xw)), label
            if label == "empty":
                assert counters["active_tiles"] == 0
                assert not got.any()
            if label == "full":
                assert counters["active_tiles"] == counters["tile_visits"]
            if label == "single":
                # Only tiles in the source's tile column can be active.
                col_tiles = int((A.indices == 5 // d).sum())
                assert counters["active_tiles"] == col_tiles

    def test_counters_dense_mode_report_full_visits(self):
        A, dense, rng = build(n=64, d=8, seed=11)
        xw = pack_bitvector(np.ones(64), 8)
        counters = {}
        bmv.bmv_bin_bin_bin(A, xw, skip=False, counters=counters)
        assert counters["active_tiles"] == counters["tile_visits"]
        assert counters["tile_visits"] == A.n_tiles

    def test_multi_plane_counters(self):
        d = 8
        A, dense, rng = build(n=80, d=d, seed=12)
        k = 2 * d + 3  # 3 planes
        X = np.zeros((80, k), dtype=bool)
        X[4, 0] = True  # only plane 0 has any activity
        XW = pack_bitmatrix(X, d)
        counters = {}
        got = bmv.bmv_bin_bin_bin_multi(A, XW, skip=True, counters=counters)
        assert bitwise_equal(got, planless.bmv_bin_bin_bin_multi(A, XW))
        assert counters["tile_visits"] == A.n_tiles * 3
        col_tiles = int((A.indices == 4 // d).sum())
        assert counters["active_tiles"] == col_tiles

    def test_min_plus_all_inf_is_fully_inactive(self):
        A, dense, rng = build(n=64, d=8, seed=13)
        x = np.full(64, np.inf, dtype=np.float32)
        counters = {}
        got = bmv.bmv_bin_full_full(
            A, x, MIN_PLUS, skip=True, counters=counters
        )
        assert counters["active_tiles"] == 0
        assert bitwise_equal(got, planless.bmv_bin_full_full(A, x, MIN_PLUS))
        assert np.isinf(got).all()

    def test_word_activity_shapes(self):
        assert word_activity(np.array([0, 3, 0], dtype=np.uint8)).tolist() \
            == [False, True, False]
        two = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        assert word_activity(two).tolist() == [True, False]


# ----------------------------------------------------------------------
# Immutability: plan invalidation is impossible
# ----------------------------------------------------------------------
class TestImmutability:
    def test_b2sr_arrays_are_frozen(self):
        A, _, _ = build()
        for arr in (A.indptr, A.indices, A.tiles):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_view_backed_construction_cannot_alias_mutable_base(self):
        """Freezing a view would leave its base writable — the matrix
        must take an owned copy so no caller-held array can mutate it
        (and invalidate the memoized plan) after construction."""
        from repro.formats.b2sr import B2SRMatrix

        base = np.zeros((4, 8), dtype=np.uint8)
        base[0, 0] = 1
        A = B2SRMatrix(
            nrows=8, ncols=8, tile_dim=8,
            indptr=np.array([0, 1, 9])[:2],  # views, not owners
            indices=np.array([0, 0])[:1],
            tiles=base[:1],
        )
        before = A.nnz
        y0 = bmv.bmv_bin_bin_full(A, pack_bitvector(np.ones(8), 8))
        base[:] = 0xFF
        assert A.nnz == before
        y1 = bmv.bmv_bin_bin_full(A, pack_bitvector(np.ones(8), 8))
        assert bitwise_equal(y0, y1)

    def test_tile_row_of_memoized_and_frozen(self):
        A, _, _ = build()
        rows = A.tile_row_of()
        assert rows is A.tile_row_of()
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 99

    def test_no_mutating_api(self):
        """Every public B2SRMatrix method either reads or returns a new
        matrix — there is no in-place mutator to invalidate a plan."""
        from repro.formats.b2sr import B2SRMatrix

        allowed_prefixes = ("_",)
        for name in vars(B2SRMatrix):
            if name.startswith(allowed_prefixes):
                continue
            member = getattr(B2SRMatrix, name)
            if callable(member) or isinstance(member, property):
                # No setters anywhere on the class.
                if isinstance(member, property):
                    assert member.fset is None, name
        A, _, _ = build()
        before = (
            A.indptr.copy(), A.indices.copy(), A.tiles.copy(), A.nnz,
        )
        # Exercise the transforms; none may touch the source matrix.
        A.transpose()
        A.to_dense()
        A.colmajor_tiles()
        A.ewise_and(A)
        A.plan().warm((1, 4))
        assert np.array_equal(A.indptr, before[0])
        assert np.array_equal(A.indices, before[1])
        assert np.array_equal(A.tiles, before[2])
        assert A.nnz == before[3]


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_frontier_expand_packs_bool_directly(self):
        """Satellite fix: no float32 round-trip before packing — bool,
        float32 and uint8 frontiers pack identically and expand
        identically."""
        g = diagonal_pattern(128, bandwidth=2, seed=2)
        frontier = np.zeros(128, dtype=bool)
        frontier[3] = True
        visited = frontier.copy()
        assert np.array_equal(
            pack_bitvector(frontier, 32),
            pack_bitvector(frontier.astype(np.float32), 32),
        )
        outs = []
        for dt in (bool, np.float32, np.uint8):
            e = BitEngine(g, tile_dim=32)
            outs.append(e.frontier_expand(frontier.astype(dt), visited))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_skip_engine_matches_dense_engine(self):
        from repro.algorithms import bfs, connected_components, sssp

        g = diagonal_pattern(200, bandwidth=3, seed=4)
        for alg in (bfs, sssp):
            a, _ = alg(BitEngine(g, skip_inactive=True), 0)
            b, _ = alg(BitEngine(g, skip_inactive=False), 0)
            assert np.array_equal(a, b, equal_nan=True)
        ga = g.symmetrized()
        a, _ = connected_components(BitEngine(ga, skip_inactive=True))
        b, _ = connected_components(BitEngine(ga, skip_inactive=False))
        assert np.array_equal(a, b)

    def test_skip_engine_models_less_kernel_time(self):
        from repro.algorithms import sssp

        g = diagonal_pattern(600, bandwidth=3, seed=4)
        _, r_skip = sssp(BitEngine(g, skip_inactive=True), 0)
        _, r_dense = sssp(BitEngine(g, skip_inactive=False), 0)
        assert r_skip.kernel_ms < r_dense.kernel_ms


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestActiveTileStats:
    def test_none_matches_full_visits(self):
        g = diagonal_pattern(256, bandwidth=2, seed=1)
        A = g.b2sr(32)
        base = bmv_stats(A, "bin_bin_bin", GTX1080)
        full = bmv_stats(
            A, "bin_bin_bin", GTX1080, active_tiles=float(A.n_tiles)
        )
        assert base.dram_bytes == full.dram_bytes
        assert base.warp_instructions == full.warp_instructions
        assert base.flops == full.flops

    def test_fewer_active_tiles_cost_less(self):
        g = diagonal_pattern(256, bandwidth=2, seed=1)
        A = g.b2sr(32)
        dense = bmv_stats(A, "bin_full_full", GTX1080)
        sparse = bmv_stats(
            A, "bin_full_full", GTX1080, active_tiles=A.n_tiles / 10
        )
        empty = bmv_stats(A, "bin_full_full", GTX1080, active_tiles=0.0)
        assert empty.dram_bytes < sparse.dram_bytes < dense.dram_bytes
        assert empty.flops < sparse.flops < dense.flops
        # The index walk and the per-tile word test are never skipped.
        assert empty.dram_bytes > 0
        assert empty.warp_instructions > 0

    def test_negative_active_tiles_rejected(self):
        g = diagonal_pattern(64, bandwidth=2, seed=1)
        with pytest.raises(ValueError, match="active_tiles"):
            bmv_stats(g.b2sr(8), "bin_bin_bin", GTX1080, active_tiles=-1.0)
