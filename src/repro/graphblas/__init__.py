"""GraphBLAS-style operation layer.

A small GraphBLAS: :class:`Vector` (dense values with an optional packed
binary view), :class:`Descriptor` (mask/complement/backend options) and the
core operations ``mxv``, ``vxm``, ``mxm_sum`` and ``reduce`` dispatching to
either the Bit-GraphBLAS (B2SR) kernels or the CSR baseline kernels, under
any Table IV semiring.

This is the layer the paper's "graph programs can be implemented upon the
core operations" section (§V) refers to.  The algorithms in
:mod:`repro.algorithms` are not written against it: they run on the
:class:`repro.engines.base.Engine` interface, which each backend
implements directly.
"""

from repro.graphblas.descriptor import Descriptor
from repro.graphblas.vector import Vector
from repro.graphblas.ops import (
    mxv,
    vxm,
    mxm_sum,
    mxm_structural,
    reduce_vector,
)

__all__ = [
    "Descriptor",
    "Vector",
    "mxv",
    "vxm",
    "mxm_sum",
    "mxm_structural",
    "reduce_vector",
]
