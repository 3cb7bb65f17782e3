"""Bit pack/unpack codecs for B2SR tiles and binarized vectors (§III.B).

A *tile* is a ``d × d`` dense 0/1 submatrix (``d`` = tileDim ∈ {4, 8, 16,
32}).  Packing turns a tile into ``d`` unsigned words of ``d`` bits each:

* **row-major packing** — word ``r`` holds row ``r`` of the tile, with the
  bit for column ``c`` at LSB position ``c``;
* **column-major packing** — word ``c`` holds column ``c``, with the bit for
  row ``r`` at LSB position ``r``.  This is the paper's conversion-time
  default (Figure 2); it equals row-major packing of the transposed tile, so
  repacking the other way transposes for free.

A *binarized vector* packs ``d`` consecutive vector entries into one word per
tile-column block, so a tile row and the matching vector word can be combined
with ``popc(row & word)`` (Listing 1).

**Batch words (batched operands).**  A batch of ``k`` binarized vectors
over ``n`` entries packs one word row per entry: :func:`pack_bitmatrix`
returns ``(n, P)`` words of ``d`` bits, ``P = plane_count(k, d) =
⌈k/d⌉``, and bit ``j`` of word ``[v, p]`` is entry ``v`` of batch column
``p·d + j``.  Vertex ``v``'s membership in up to ``d`` concurrent
frontiers is thus one word — the multi-source BFS layout of Then et al.
(*The More the Merrier*, PVLDB 2014).  Lanes at or past ``k`` are 0.
Word column ``p`` is *plane* ``p``: batch columns
``p·d … min((p+1)·d, k)−1``.  With this layout a batched boolean
product needs no tile expansion: each stored bit ``(i, c)`` of a matrix
ORs word row ``c`` into word row ``i``, so one gather and one
``bitwise_or.reduceat`` over the matrix's set-bit index serve the whole
batch (:mod:`repro.kernels.bmv`).  :func:`plane_count` /
:func:`plane_slices` define the striping; they are the single source of
truth shared by the kernels and the cost model, and the semiring
kernels stripe their value operands across the same planes.

Nibble packing (§III.B) stores two 4-bit rows per byte, halving B2SR-4's
storage from Table I's 16× saving to the full 32×.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.intrinsics import _pack_lanes, _unpack_lanes

_VALID_DIMS = (4, 8, 16, 32)


def _check_dim(tile_dim: int) -> None:
    if tile_dim not in _VALID_DIMS:
        raise ValueError(
            f"tile_dim must be one of {_VALID_DIMS}, got {tile_dim}"
        )


def pack_bits_rowmajor(tiles: np.ndarray) -> np.ndarray:
    """Pack dense 0/1 tiles row-major.

    Parameters
    ----------
    tiles:
        Array of shape ``(..., d, d)``; nonzero entries are treated as 1.

    Returns
    -------
    Array of shape ``(..., d)`` with dtype from :func:`dtype_for_width`;
    element ``[..., r]`` packs row ``r`` (column ``c`` → bit ``c``).
    """
    arr = np.asarray(tiles)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) tiles, got shape {arr.shape}")
    d = arr.shape[-1]
    _check_dim(d)
    return _pack_lanes(arr, d)


def pack_bits_colmajor(tiles: np.ndarray) -> np.ndarray:
    """Pack dense 0/1 tiles column-major (Figure 2's default order).

    Element ``[..., c]`` packs column ``c`` (row ``r`` → bit ``r``).
    Equivalent to ``pack_bits_rowmajor`` of the transposed tile.
    """
    arr = np.asarray(tiles)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (..., d, d) tiles, got shape {arr.shape}")
    return pack_bits_rowmajor(np.swapaxes(arr, -1, -2))


def unpack_bits_rowmajor(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_rowmajor`; returns uint8 0/1 tiles."""
    _check_dim(tile_dim)
    arr = np.asarray(words, dtype=np.uint64)
    if arr.shape[-1] != tile_dim:
        raise ValueError(
            f"last axis must have length {tile_dim}, got shape {arr.shape}"
        )
    shifts = np.arange(tile_dim, dtype=np.uint64)
    bits = (arr[..., None] >> shifts) & np.uint64(1)
    return bits.astype(np.uint8)


def unpack_bits_colmajor(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_colmajor`; returns uint8 0/1 tiles."""
    return np.swapaxes(unpack_bits_rowmajor(words, tile_dim), -1, -2)


def transpose_packed(words: np.ndarray, tile_dim: int) -> np.ndarray:
    """Transpose packed tiles without materialising a full dense array.

    Because column-major packing of a tile equals row-major packing of its
    transpose, B2SR supports transpose by storing the alternate layout
    (§III.B).  This helper converts between the two layouts.
    """
    dense = unpack_bits_rowmajor(words, tile_dim)
    return pack_bits_rowmajor(np.swapaxes(dense, -1, -2))


def pack_bitvector(x: np.ndarray, tile_dim: int) -> np.ndarray:
    """Binarize and bit-pack a vector into ``tile_dim``-bit words.

    Entry ``j`` of the vector lands in word ``j // tile_dim`` at bit
    ``j % tile_dim`` (nonzero → 1).  The vector is zero-padded to a multiple
    of ``tile_dim``; word ``k`` therefore aligns with tile column ``k`` of a
    B2SR matrix with the same ``tile_dim`` (Listing 1's ``Bsub``).
    """
    _check_dim(tile_dim)
    v = np.asarray(x)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = v.shape[0]
    nwords = (n + tile_dim - 1) // tile_dim
    bits = np.zeros(nwords * tile_dim, dtype=bool)
    bits[:n] = v != 0
    return _pack_lanes(bits.reshape(nwords, tile_dim), tile_dim)


def unpack_bitvector(words: np.ndarray, tile_dim: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bitvector`; returns a 0/1 uint8 vector of
    length ``n``.

    The word count must be exactly ``ceil(n / tile_dim)`` — the length
    :func:`pack_bitvector` produces.  Under- *and* over-length inputs are
    rejected: a surplus word almost always means the vector was packed at a
    different ``tile_dim`` than the caller is unpacking at.
    """
    _check_dim(tile_dim)
    arr = np.asarray(words)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D packed words, got shape {arr.shape}")
    nwords = (n + tile_dim - 1) // tile_dim
    if arr.shape[0] != nwords:
        raise ValueError(
            f"packed vector must hold exactly {nwords} words of {tile_dim} "
            f"bits for {n} entries, got {arr.shape[0]} words"
        )
    return _unpack_lanes(arr, tile_dim).reshape(-1)[:n]


def plane_count(k: int, tile_dim: int) -> int:
    """Number of word planes a ``k``-wide batch stripes across: ``⌈k/d⌉``.

    Plane ``p`` holds batch columns ``p·d … min((p+1)·d, k)−1``; batches up
    to the tile word width fit a single plane, wider batches add one plane
    per ``tile_dim`` extra columns (see the module docstring).
    """
    _check_dim(tile_dim)
    if k < 0:
        raise ValueError(f"batch width k must be >= 0, got {k}")
    return (k + tile_dim - 1) // tile_dim


def plane_slices(k: int, tile_dim: int) -> list[slice]:
    """Column slices of the ``plane_count(k, tile_dim)`` word planes.

    ``plane_slices(k, d)[p]`` selects plane ``p``'s batch columns from a
    ``(n_words, k)`` packed matrix (or any ``(…, k)`` batched operand).  The
    last plane may be partial — no physical padding columns are stored.
    """
    _check_dim(tile_dim)
    if k < 0:
        raise ValueError(f"batch width k must be >= 0, got {k}")
    return [
        slice(lo, min(lo + tile_dim, k)) for lo in range(0, k, tile_dim)
    ]


def pack_bitmatrix(x: np.ndarray, tile_dim: int) -> np.ndarray:
    """Binarize and bit-pack ``k`` vectors side by side as batch words.

    ``x`` has shape ``(n, k)`` — one vector per column, e.g. ``k`` BFS
    frontiers.  The result has shape ``(n, plane_count(k, tile_dim))``
    and dtype :func:`dtype_for_width` ``(tile_dim)``: bit ``j`` of word
    ``[v, p]`` is ``x[v, p·tile_dim + j] != 0``, and lanes at or past
    ``k`` are 0 (see the module docstring).
    """
    _check_dim(tile_dim)
    v = np.asarray(x)
    if v.ndim != 2:
        raise ValueError(f"expected an (n, k) matrix, got shape {v.shape}")
    n, k = v.shape
    planes = plane_count(k, tile_dim)
    bits = v if v.dtype == np.bool_ else v != 0
    if k < planes * tile_dim:
        lanes = np.zeros((n, planes * tile_dim), dtype=bool)
        lanes[:, :k] = bits
        bits = lanes
    return _pack_lanes(bits.reshape(n, planes, tile_dim), tile_dim)


def unpack_bitmatrix(words: np.ndarray, tile_dim: int, k: int) -> np.ndarray:
    """Inverse of :func:`pack_bitmatrix`; returns a C-contiguous 0/1
    uint8 array of shape ``(n, k)``.

    ``words`` must have exactly ``plane_count(k, tile_dim)`` columns —
    the count :func:`pack_bitmatrix` produces.  Bits at or past lane
    ``k`` are ignored.
    """
    _check_dim(tile_dim)
    arr = np.asarray(words)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D packed words, got shape {arr.shape}")
    planes = plane_count(k, tile_dim)
    if arr.shape[1] != planes:
        raise ValueError(
            f"packed matrix must hold exactly {planes} word planes of "
            f"{tile_dim} bits for {k} batch columns, got {arr.shape[1]}"
        )
    n = arr.shape[0]
    lanes = _unpack_lanes(arr, tile_dim).reshape(n, planes * tile_dim)
    return np.ascontiguousarray(lanes[:, :k])


def nibble_pack(rows: np.ndarray) -> np.ndarray:
    """Pack 4-bit tile rows two-per-byte (§III.B nibble packing).

    ``rows`` is a 1-D uint8 array whose elements each use only their low
    nibble.  Rows ``2k`` and ``2k+1`` share byte ``k`` (low nibble = even
    row).  An odd count is padded with an empty nibble; the pad is never
    observable because :func:`nibble_unpack` takes the true ``count`` —
    ``nibble_unpack(nibble_pack(rows), len(rows))`` round-trips for every
    length, odd counts included.
    """
    arr = np.asarray(rows, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D rows, got shape {arr.shape}")
    if np.any(arr > 0xF):
        bad = int(arr[arr > 0xF][0])
        raise ValueError(
            f"nibble rows must fit in 4 bits (values 0..15); got {bad} — "
            "only B2SR-4 tile rows are nibble-packable"
        )
    n = arr.shape[0]
    padded = np.zeros(n + (n % 2), dtype=np.uint8)
    padded[:n] = arr
    pairs = padded.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def nibble_unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`nibble_pack`; returns ``count`` 4-bit rows.

    The byte count must be exactly ``ceil(count / 2)`` — the length
    :func:`nibble_pack` produces.  Under- *and* over-length inputs are
    rejected (same discipline as :func:`unpack_bitvector`): a surplus byte
    almost always means ``count`` disagrees with the rows that were packed,
    which would silently drop or invent tile rows at the B2SR-4 call sites.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D packed bytes, got shape {arr.shape}")
    nbytes = (count + 1) // 2
    if arr.shape[0] != nbytes:
        raise ValueError(
            f"packed nibbles must hold exactly {nbytes} bytes for {count} "
            f"rows, got {arr.shape[0]} bytes"
        )
    out = np.empty(arr.shape[0] * 2, dtype=np.uint8)
    out[0::2] = arr & 0xF
    out[1::2] = arr >> 4
    return out[:count]
