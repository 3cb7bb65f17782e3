"""Vectorized software implementations of CUDA integer intrinsics.

The paper's kernels (§IV) are written around four warp/bit intrinsics:

* ``__popc(x)``       — population count of a 32-bit word;
* ``__brev(x)``       — bit reversal of a 32-bit word;
* ``__ballot_sync``   — warp vote: collect one predicate bit per lane into a
  32-bit word (lane ``N`` → bit ``N``);
* ``__shfl_sync``     — warp shuffle: broadcast a lane's register across the
  warp.

Here each is a NumPy ufunc-style function operating elementwise on unsigned
integer arrays, so a "warp" is simply a length-32 vector and a batch of warps
is a 2-D array.  Widths other than 32 are supported because B2SR tiles come
in 4-, 8-, 16- and 32-bit row widths (§III.B, Table I).
"""

from __future__ import annotations

import numpy as np

#: Number of lanes in a warp on every GPU the paper evaluates (Pascal, Volta).
WARP_SIZE = 32

_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def dtype_for_width(width: int) -> np.dtype:
    """Smallest unsigned NumPy dtype holding ``width`` bits.

    B2SR uses 4-bit (nibble, stored in ``uint8``), 8-, 16- and 32-bit tile
    rows (Table I).  Widths up to 64 are accepted.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    for bits, dt in _DTYPES.items():
        if width <= bits:
            return np.dtype(dt)
    raise ValueError(f"width {width} exceeds 64 bits")


def mask_for_width(width: int) -> int:
    """All-ones mask of ``width`` bits (e.g. ``0xF`` for a nibble row)."""
    if not 0 < width <= 64:
        raise ValueError(f"width must be in 1..64, got {width}")
    return (1 << width) - 1


def _pack_lanes(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack the ``width`` lanes of the last axis into one word each.

    Lane ``N`` lands in bit ``N`` (nonzero counts as set): the body of
    :func:`ballot_sync` and of every packing codec in
    :mod:`repro.bitops.packing`.  Zero lanes pad the last axis to the
    word's bit count, so a narrow width such as B2SR-4's nibble keeps
    zeros in its unused high bits; one ``np.packbits`` over the
    flattened C-contiguous lanes then yields little-endian bytes, which
    are read as little-endian words of :func:`dtype_for_width`.  The
    bytes equal ``np.packbits(..., axis=-1)``'s without its per-row
    strided pass.
    """
    dt = dtype_for_width(width)
    nbits = 8 * dt.itemsize
    if bits.dtype != np.bool_:
        bits = bits != 0
    lanes = bits.shape[-1]
    if lanes < nbits:
        padded = np.zeros(bits.shape[:-1] + (nbits,), dtype=bool)
        padded[..., :lanes] = bits
        bits = padded
    packed = np.packbits(
        np.ascontiguousarray(bits).reshape(-1), bitorder="little"
    )
    words = packed.view(dt.newbyteorder("<")).reshape(bits.shape[:-1])
    return words.astype(dt, copy=False)


def _unpack_lanes(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_lanes`: words of any shape become uint8
    0/1 lanes of shape ``words.shape + (width,)``, lane ``N`` holding
    bit ``N``.  Bits at or above ``width`` are ignored.

    One ``np.unpackbits`` over the words' flattened little-endian bytes
    unpacks every bit; the lanes past ``width`` are sliced off the
    result (a view).
    """
    dt = dtype_for_width(width).newbyteorder("<")
    w = np.ascontiguousarray(words, dtype=dt)
    bits = np.unpackbits(w.view(np.uint8).reshape(-1), bitorder="little")
    return bits.reshape(w.shape + (8 * dt.itemsize,))[..., :width]


def popc(x: np.ndarray | int) -> np.ndarray | int:
    """Population count (``__popc``): number of set bits per element.

    Works on any unsigned integer dtype.  This is the primitive behind the
    bit-dot-product ``popc(a & b)`` used by every BMV/BMM scheme.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "ui":
        raise TypeError(f"popc requires an integer array, got {arr.dtype}")
    out = np.bitwise_count(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return int(out)
    return out.astype(np.int64)


def brev(x: np.ndarray | int, width: int = 32) -> np.ndarray | int:
    """Bit reversal (``__brev``) within a ``width``-bit word.

    Used in bit packing: paired with :func:`ballot_sync` it rotates a bit
    column 90° anticlockwise into a bit row (§IV).
    """
    if not 0 < width <= 64:
        raise ValueError(f"width must be in 1..64, got {width}")
    arr = np.asarray(x, dtype=np.uint64)
    out = np.zeros_like(arr)
    src = arr.copy()
    for _ in range(width):
        out = (out << np.uint64(1)) | (src & np.uint64(1))
        src = src >> np.uint64(1)
    out &= np.uint64(mask_for_width(width))
    dt = dtype_for_width(width)
    out = out.astype(dt)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return int(out)
    return out


def ballot_sync(pred: np.ndarray, width: int = WARP_SIZE) -> np.ndarray | int:
    """Warp vote (``__ballot_sync``): pack lane predicates into a word.

    ``pred`` holds one boolean (or nonzero-as-true) per lane along its last
    axis, which must have length ``width``.  Lane ``N``'s predicate lands in
    bit ``N`` of the result — the paper notes this is a 90° clockwise
    transposition of a bit column into a bit row.

    Accepts a batch: an input of shape ``(..., width)`` yields ``(...,)``.
    """
    arr = np.asarray(pred)
    if arr.shape[-1] != width:
        raise ValueError(
            f"last axis must have length {width} (one predicate per lane), "
            f"got shape {arr.shape}"
        )
    word = _pack_lanes(arr, width)
    if word.ndim == 0:
        return int(word)
    return word


def shfl_sync(values: np.ndarray, src_lane: int | np.ndarray) -> np.ndarray:
    """Warp shuffle (``__shfl_sync``): read another lane's register.

    ``values`` has the per-lane registers along its last axis (length 32).
    With a scalar ``src_lane`` every lane reads the same register — the
    broadcast pattern Listing 2 uses to stream B's bit rows across the warp.
    With an array ``src_lane`` of the same shape as ``values``, each lane
    reads the lane it names (general shuffle).
    """
    vals = np.asarray(values)
    if vals.shape[-1] != WARP_SIZE:
        raise ValueError(
            f"last axis must have length {WARP_SIZE}, got shape {vals.shape}"
        )
    if np.isscalar(src_lane) or np.asarray(src_lane).ndim == 0:
        lane = int(src_lane) % WARP_SIZE
        picked = vals[..., lane]
        return np.broadcast_to(picked[..., None], vals.shape).copy()
    src = np.asarray(src_lane) % WARP_SIZE
    if src.shape != vals.shape:
        raise ValueError(
            f"src_lane shape {src.shape} must match values shape {vals.shape}"
        )
    return np.take_along_axis(vals, src, axis=-1)


def funnel_shift_l(hi: np.ndarray, lo: np.ndarray, shift: int) -> np.ndarray:
    """Funnel shift left (``__funnelshift_l``): ``(hi:lo) << shift >> 32``.

    Concatenates ``hi`` and ``lo`` into a 64-bit window and returns the upper
    32 bits after shifting left — handy for unaligned bit-row extraction.
    """
    if not 0 <= shift < 32:
        raise ValueError(f"shift must be in 0..31, got {shift}")
    h = np.asarray(hi, dtype=np.uint64)
    l = np.asarray(lo, dtype=np.uint64)
    window = (h << np.uint64(32)) | l
    out = (window << np.uint64(shift)) >> np.uint64(32)
    return (out & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def funnel_shift_r(hi: np.ndarray, lo: np.ndarray, shift: int) -> np.ndarray:
    """Funnel shift right (``__funnelshift_r``): lower 32 bits of
    ``(hi:lo) >> shift``."""
    if not 0 <= shift < 32:
        raise ValueError(f"shift must be in 0..31, got {shift}")
    h = np.asarray(hi, dtype=np.uint64)
    l = np.asarray(lo, dtype=np.uint64)
    window = (h << np.uint64(32)) | l
    out = window >> np.uint64(shift)
    return (out & np.uint64(0xFFFFFFFF)).astype(np.uint32)
