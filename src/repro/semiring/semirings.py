"""Semiring definitions used by the BMV/BMM schemes.

A semiring bundles an *add* monoid (the reduction combining contributions
from different neighbours) and a *multiply* operator (combining a matrix
entry with a vector entry).  Because Bit-GraphBLAS matrices are binary, the
multiply's matrix operand is always 1; the semantics the paper gives each
domain (§V) are:

* **Boolean**: ``add = OR``, ``mult = AND`` — BFS frontier expansion;
* **Arithmetic**: ``add = +``, ``mult = ×`` — PR, TC;
* **Min-plus** (tropical): ``add = min``, ``mult = +`` with the matrix bit
  treated as edge weight 1 and absent bits as +∞ (§V SSSP: "0s in the
  adjacency matrix are identified as infinite");
* **Max-times** (tropical): ``add = max``, ``mult = ×``.

Each semiring exposes both scalar identities and vectorized NumPy reduce /
combine hooks so the functional kernels stay loop-free.

``mult_matrix_one`` preserves a ``float64`` operand's precision (anything
else is computed in the kernels' native ``float32``): numeric-label
algorithms — FastSV connected components carrying vertex ids — need exact
integer arithmetic past ``float32``'s 2²⁴ contiguous-integer ceiling, and
``float64`` is exact through 2⁵³.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.bitops.segreduce import segment_sum_sequential


@dataclass(frozen=True)
class Semiring:
    """A GraphBLAS semiring with vectorized hooks.

    Attributes
    ----------
    name:
        Canonical name (``"boolean"``, ``"arithmetic"``, ``"min_plus"``,
        ``"max_times"``).
    zero:
        Identity of the add monoid (also the value of "no contribution"):
        0, 0.0, +inf, -inf respectively.
    add:
        Elementwise binary add (``np.logical_or``-style, vectorized).
    add_reduce:
        Axis reduction implementing the add monoid over an array.
    mult_matrix_one:
        Unary vectorized op computing ``mult(1, x)`` — the only multiply a
        binary matrix ever needs (identity for ×-based semirings, ``x + 1``
        for min-plus where the stored bit means edge weight 1).
    add_at:
        Scatter-reduce ``out[idx] = add(out[idx], vals)`` used by the tiled
        kernels (``np.add.at`` / ``np.minimum.at`` / ``np.maximum.at``).
    add_reduceat:
        Segment reduction ``(values, starts) -> per-segment add-monoid
        reduction along axis 0`` (``np.add.reduceat``-style).  The BMV
        kernels prefer this over ``add_at`` on the CSR-sorted tile order:
        one buffered ``reduceat`` sweep replaces the unbuffered per-element
        scatter loop.  Every segment named by ``starts`` must be non-empty
        (kernels guarantee this by reducing only stored-tile runs).
    idempotent:
        ``a ⊕ a = a`` (min, max, OR).  Such a fold over a row's stored
        bits gives the same bits in any order and grouping, provided the
        operands hold no NaN and no ``-0.0`` — the only floats whose
        min/max depends on fold order.  The BMV kernels pull these
        semirings through the plan's set-bit gather
        (:class:`repro.kernels.plan.SetBitIndex`); arithmetic sums keep
        the order-preserving dense sweep.
    """

    name: str
    zero: float
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    add_reduce: Callable[..., np.ndarray]
    mult_matrix_one: Callable[[np.ndarray], np.ndarray]
    add_at: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    add_reduceat: Callable[[np.ndarray, np.ndarray], np.ndarray]
    idempotent: bool = False

    def empty_output(self, n: int, dtype=np.float32) -> np.ndarray:
        """Length-``n`` output vector filled with the add identity."""
        out = np.empty(n, dtype=dtype)
        out.fill(self.zero)
        return out

    def reduce_masked(
        self, values: np.ndarray, mask: np.ndarray, axis: int = -1
    ) -> np.ndarray:
        """Reduce ``values`` along ``axis`` counting only positions where
        ``mask`` is true; masked-out positions contribute the identity."""
        filled = np.where(mask, values, self.zero)
        return self.add_reduce(filled, axis=axis)


def value_dtype(x: np.ndarray) -> np.dtype:
    """Kernel value dtype for a numeric operand.

    ``float64`` is preserved, and so are integer dtypes wide enough to
    hold values past ``float32``'s 2²⁴ exact-integer ceiling (≥ 32-bit
    ints — e.g. ``int64`` vertex labels fed to a pull directly): both
    route to ``float64`` (exact through 2⁵³).  Everything else — float32,
    bools, narrow ints — computes in the kernels' native ``float32``.

    The single source of truth for the dtype rule — the BMV/CSR kernels
    and every engine ``pull`` consult this, so the operand dtype an
    algorithm chooses selects the same precision on every layer (the
    bitwise-identity contracts depend on that agreement).
    """
    dt = np.asarray(x).dtype
    wide = dt == np.float64 or (dt.kind in "iu" and dt.itemsize >= 4)
    return np.dtype(np.float64 if wide else np.float32)


def _as_float(x: np.ndarray) -> np.ndarray:
    """Cast to :func:`value_dtype` (no copy when already there)."""
    return np.asarray(x).astype(value_dtype(x), copy=False)


def _minimum_at(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    np.minimum.at(out, idx, vals)


def _maximum_at(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    np.maximum.at(out, idx, vals)


def _add_at(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    np.add.at(out, idx, vals)


def _or_at(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    np.logical_or.at(out, idx, vals.astype(bool))


def _mult_bool(x: np.ndarray) -> np.ndarray:
    arr = _as_float(x)
    return (arr != 0).astype(arr.dtype)


def _mult_identity(x: np.ndarray) -> np.ndarray:
    return _as_float(x)


def _mult_plus_one(x: np.ndarray) -> np.ndarray:
    arr = _as_float(x)
    return arr + arr.dtype.type(1.0)


BOOLEAN = Semiring(
    name="boolean",
    zero=0.0,
    add=lambda a, b: np.logical_or(a, b).astype(a.dtype),
    add_reduce=lambda x, axis=-1: np.any(x, axis=axis).astype(np.float32),
    mult_matrix_one=_mult_bool,
    add_at=_or_at,
    add_reduceat=lambda v, starts: np.logical_or.reduceat(
        v, starts, axis=0
    ).astype(np.float32),
    idempotent=True,
)

ARITHMETIC = Semiring(
    name="arithmetic",
    zero=0.0,
    add=np.add,
    add_reduce=lambda x, axis=-1: np.sum(x, axis=axis),
    mult_matrix_one=_mult_identity,
    add_at=_add_at,
    # Sequential-order segmented sum: float addition is not associative, so
    # staying bit-compatible with the historical np.add.at accumulation
    # requires left-to-right order (reduceat would sum pairwise).
    add_reduceat=segment_sum_sequential,
)

MIN_PLUS = Semiring(
    name="min_plus",
    zero=np.inf,
    add=np.minimum,
    add_reduce=lambda x, axis=-1: np.min(x, axis=axis),
    # A stored bit is an edge of weight 1, so mult(1, x) = x + 1 (§V SSSP).
    mult_matrix_one=_mult_plus_one,
    add_at=_minimum_at,
    add_reduceat=lambda v, starts: np.minimum.reduceat(v, starts, axis=0),
    idempotent=True,
)

MAX_TIMES = Semiring(
    name="max_times",
    zero=-np.inf,
    add=np.maximum,
    add_reduce=lambda x, axis=-1: np.max(x, axis=axis),
    mult_matrix_one=_mult_identity,
    add_at=_maximum_at,
    add_reduceat=lambda v, starts: np.maximum.reduceat(v, starts, axis=0),
    idempotent=True,
)

# min-second: add = min, mult(a, x) = x.  The FastSV connected-components
# formulation (§V CC) propagates the *minimum neighbour label* without the
# +1 of min-plus; GraphBLAS calls this GrB_MIN_SECOND.
MIN_SECOND = Semiring(
    name="min_second",
    zero=np.inf,
    add=np.minimum,
    add_reduce=lambda x, axis=-1: np.min(x, axis=axis),
    mult_matrix_one=_mult_identity,
    add_at=_minimum_at,
    add_reduceat=lambda v, starts: np.minimum.reduceat(v, starts, axis=0),
    idempotent=True,
)

#: All semirings of Table IV (plus min-second for FastSV CC), by name.
SEMIRINGS: dict[str, Semiring] = {
    s.name: s
    for s in (BOOLEAN, ARITHMETIC, MIN_PLUS, MAX_TIMES, MIN_SECOND)
}


def semiring_by_name(name: str) -> Semiring:
    """Look up a semiring; raises ``KeyError`` with the valid names."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown semiring {name!r}; valid: {sorted(SEMIRINGS)}"
        ) from None
