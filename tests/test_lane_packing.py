"""The lane packer behind ``ballot_sync`` and the packing codecs, checked
against the weight-multiply-sum bodies it replaced.

Each ``_oracle_*`` function below is the previous implementation of the
helper of the same name, kept verbatim: widen every bit to ``uint64``,
multiply by ``1 << lane`` and sum (or shift and mask to unpack).  The
batch-word oracles apply the same weight-multiply-sum along the batch
axis (lane ``j`` of plane ``p`` is batch column ``p·d + j``).  The
properties require the ``np.packbits`` bodies to match them in value,
dtype and shape over every tile dim, ragged lengths, batch widths past
two word planes, all-zero/all-one inputs and non-bool inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.intrinsics import ballot_sync, dtype_for_width
from repro.bitops.packing import (
    pack_bitmatrix,
    pack_bits_rowmajor,
    pack_bitvector,
    unpack_bitmatrix,
    unpack_bitvector,
)
from repro.gpusim.counters import Counters
from repro.gpusim.memory import GlobalMemory
from repro.gpusim.warp import WarpContext

DIMS = (4, 8, 16, 32)


# ---------------------------------------------------------------------------
# Oracles: the weight-multiply-sum bodies
# ---------------------------------------------------------------------------
def _oracle_ballot_sync(pred, width):
    arr = np.asarray(pred)
    bits = (arr != 0).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    word = (bits * weights).sum(axis=-1, dtype=np.uint64)
    word = word.astype(dtype_for_width(width))
    if word.ndim == 0:
        return int(word)
    return word


def _oracle_pack_bits_rowmajor(tiles):
    arr = np.asarray(tiles)
    d = arr.shape[-1]
    bits = (arr != 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(d, dtype=np.uint64)
    words = (bits * weights).sum(axis=-1, dtype=np.uint64)
    return words.astype(dtype_for_width(d))


def _oracle_pack_bitvector(x, tile_dim):
    v = np.asarray(x)
    n = v.shape[0]
    nwords = (n + tile_dim - 1) // tile_dim
    bits = np.zeros(nwords * tile_dim, dtype=np.uint64)
    bits[:n] = v != 0
    bits = bits.reshape(nwords, tile_dim)
    weights = np.uint64(1) << np.arange(tile_dim, dtype=np.uint64)
    words = (bits * weights).sum(axis=1, dtype=np.uint64)
    return words.astype(dtype_for_width(tile_dim))


def _oracle_unpack_bitvector(words, tile_dim, n):
    arr = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(tile_dim, dtype=np.uint64)
    bits = ((arr[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return bits.reshape(-1)[:n]


def _oracle_pack_bitmatrix(x, tile_dim):
    v = np.asarray(x)
    n, k = v.shape
    planes = (k + tile_dim - 1) // tile_dim
    bits = np.zeros((n, planes * tile_dim), dtype=np.uint64)
    bits[:, :k] = v != 0
    bits = bits.reshape(n, planes, tile_dim)
    weights = np.uint64(1) << np.arange(tile_dim, dtype=np.uint64)
    words = (bits * weights).sum(axis=2, dtype=np.uint64)
    return words.astype(dtype_for_width(tile_dim))


def _oracle_unpack_bitmatrix(words, tile_dim, k):
    arr = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(tile_dim, dtype=np.uint64)
    bits = ((arr[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return bits.reshape(arr.shape[0], arr.shape[1] * tile_dim)[:, :k]


def assert_same(got, want):
    """Bitwise equal, with the same dtype and shape (and the same Python
    type for a scalar)."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
#: How a drawn input is filled: random bits, all zero, all one, or
#: non-bool values that must binarize as nonzero.
FILLS = ("bits", "zeros", "ones", "float", "negint")


def make_input(rng, shape, fill):
    if fill == "zeros":
        return np.zeros(shape, dtype=bool)
    if fill == "ones":
        return np.ones(shape, dtype=bool)
    mask = rng.random(shape) < 0.4
    if fill == "bits":
        return mask
    if fill == "float":
        vals = rng.standard_normal(shape).astype(np.float32)
        vals[rng.random(shape) < 0.1] = np.nan
        vals[rng.random(shape) < 0.1] = -0.0
        return np.where(mask, vals, np.float32(0.0))
    return np.where(mask, -rng.integers(1, 1 << 40, size=shape), 0)


def random_words(rng, shape, tile_dim):
    """Words of the tile dim's dtype over its full range, so bits at or
    above ``tile_dim`` (B2SR-4's high nibble) are set too."""
    dt = dtype_for_width(tile_dim)
    info = np.iinfo(dt)
    return rng.integers(0, int(info.max), size=shape, dtype=dt, endpoint=True)


seeds = st.integers(min_value=0, max_value=2**31 - 1)
fills = st.sampled_from(FILLS)
dims = st.sampled_from(DIMS)


@st.composite
def lengths(draw, d):
    """``n`` near a multiple of the tile dim: ``m·d − 1``, ``m·d`` or
    ``m·d + 1``."""
    m = draw(st.integers(min_value=0, max_value=5))
    return max(0, m * d + draw(st.integers(min_value=-1, max_value=1)))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@given(
    width=st.integers(min_value=1, max_value=64),
    form=st.sampled_from(("vector", "empty", "batch", "strided")),
    a=st.integers(min_value=0, max_value=4),
    b=st.integers(min_value=0, max_value=4),
    fill=fills,
    seed=seeds,
)
@settings(max_examples=150, deadline=None)
def test_ballot_sync_matches_oracle(width, form, a, b, fill, seed):
    """``strided`` is a swapped-axes view, as the planless batched
    kernel passes: its lanes are not contiguous."""
    shape = {
        "vector": (width,), "empty": (0, width), "batch": (a, b, width),
        "strided": (a, width, b),
    }
    pred = make_input(np.random.default_rng(seed), shape[form], fill)
    if form == "strided":
        pred = np.swapaxes(pred, 1, 2)
    assert_same(
        ballot_sync(pred, width=width), _oracle_ballot_sync(pred, width)
    )


@given(d=dims, a=st.integers(0, 4), b=st.integers(1, 3), fill=fills,
       seed=seeds)
@settings(max_examples=60, deadline=None)
def test_pack_bits_rowmajor_matches_oracle(d, a, b, fill, seed):
    rng = np.random.default_rng(seed)
    for shape in ((d, d), (a, d, d), (a, b, d, d)):
        tiles = make_input(rng, shape, fill)
        # Column-major packing hands over the transposed view.
        for view in (tiles, np.swapaxes(tiles, -1, -2)):
            assert_same(
                pack_bits_rowmajor(view), _oracle_pack_bits_rowmajor(view)
            )


@given(data=st.data(), d=dims, fill=fills, seed=seeds)
@settings(max_examples=80, deadline=None)
def test_bitvector_codecs_match_oracle(data, d, fill, seed):
    rng = np.random.default_rng(seed)
    n = data.draw(lengths(d))
    x = make_input(rng, (n,), fill)
    words = pack_bitvector(x, d)
    assert_same(words, _oracle_pack_bitvector(x, d))
    noisy = random_words(rng, words.shape, d)
    for w in (words, noisy):
        assert_same(
            unpack_bitvector(w, d, n), _oracle_unpack_bitvector(w, d, n)
        )


@given(data=st.data(), d=dims, fill=fills, seed=seeds)
@settings(max_examples=120, deadline=None)
def test_bitmatrix_codecs_match_oracle(data, d, fill, seed):
    rng = np.random.default_rng(seed)
    n = data.draw(lengths(d))
    # Batch widths at the plane boundaries, or anywhere up to 2d + 3.
    k = data.draw(
        st.sampled_from((0, 1, d - 1, d, d + 1, 2 * d + 3))
        | st.integers(min_value=0, max_value=2 * d + 3)
    )
    x = make_input(rng, (n, k), fill)
    words = pack_bitmatrix(x, d)
    assert_same(words, _oracle_pack_bitmatrix(x, d))
    # Noisy words set lanes at or past k and B2SR-4's high nibble too.
    noisy = random_words(rng, words.shape, d)
    for w in (words, noisy):
        got = unpack_bitmatrix(w, d, k)
        assert got.flags.c_contiguous
        assert_same(got, _oracle_unpack_bitmatrix(w, d, k))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", [0, 1, 31, 64, 100])
def test_zero_width_bitmatrix_round_trip(d, n):
    """A batch of no vectors packs to ``(n, 0)`` batch words and unpacks
    back to ``(n, 0)`` — the shape ``bmv_bin_bin_full_multi`` returns at
    k = 0."""
    words = pack_bitmatrix(np.zeros((n, 0), dtype=bool), d)
    assert words.shape == (n, 0)
    assert words.dtype == dtype_for_width(d)
    back = unpack_bitmatrix(words, d, 0)
    assert back.shape == (n, 0) and back.dtype == np.uint8


@pytest.mark.parametrize("width", [1, 4, 8, 17, 32, 33, 64])
def test_vector_ballot_returns_python_int(width):
    """A 1-D ballot is a Python ``int``, which the SIMT executor's
    ``WarpContext.ballot_sync`` hands to kernels as a register value."""
    pred = np.ones(width, dtype=bool)
    word = ballot_sync(pred, width=width)
    assert type(word) is int and word == (1 << width) - 1
    assert type(ballot_sync(np.zeros(width), width=width)) is int


def test_warp_ballot_is_the_intrinsic():
    ctx = WarpContext(0, 0, GlobalMemory(), Counters())
    pred = np.arange(32) % 3 == 0
    word = ctx.ballot_sync(pred)
    assert type(word) is int
    assert word == _oracle_ballot_sync(pred, 32) == ballot_sync(pred)


@pytest.mark.parametrize("width", [0, 65])
def test_ballot_rejects_widths_outside_a_word(width):
    with pytest.raises(ValueError):
        ballot_sync(np.ones(width, dtype=bool), width=width)
