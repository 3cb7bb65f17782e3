"""Zero-copy shared-memory export of B2SR matrices and warmed plans.

The serving cluster's real-parallel data plane (``serving/parallel.py``)
runs kernel launches in worker processes.  Shipping a graph to a worker
by pickling it would pay serialization per process (or worse, per
launch); instead this module flattens the frozen arrays of a
:class:`~repro.formats.b2sr.B2SRMatrix` — ``indptr``, ``indices``,
``tiles`` — plus the plan's precomputed set-bit index
(:class:`~repro.kernels.plan.SetBitIndex`, which every SSSP/CC pull
reads) into **one** named POSIX shared-memory segment.  Workers
``attach()`` by name and reconstruct read-only views over the same
physical pages: zero copies, bitwise-identical arrays (every attach
checks every array against the CRC its manifest carries).

B2SR immutability is the safety argument: every exported array is frozen
at construction and no API mutates it, so read-only cross-process
sharing cannot race.  The attach path re-freezes its views and adopts
them through :meth:`B2SRMatrix.from_shared_views` /
:meth:`SweepPlan.adopt_bit_index`, which validate but never copy.

Lifecycle
---------
The *exporter* (router process) owns the segment: it creates, names and
eventually ``unlink()``\\ s it.  Spawned workers share the exporter's
``resource_tracker`` daemon (the spawn machinery hands the tracker fd
to every child), and the tracker's cache is a *set* — so a worker's
attach-time registration is a no-op and the segment stays owned by the
one shared daemon.  That daemon is the crash guarantee: if the whole
process tree dies without ``unlink()``, the tracker unlinks every
registered segment at teardown, so ``/dev/shm`` cannot leak.  Segment
names are generated per exporter process.  ``close()`` and ``unlink()``
are both idempotent.
"""

from __future__ import annotations

import gc
import itertools
import os
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.formats.b2sr import B2SRMatrix
from repro.kernels.plan import SetBitIndex

try:  # pragma: no cover - exercised via shm_available()
    from multiprocessing import shared_memory

    _HAVE_SHM_MODULE = True
except ImportError:  # pragma: no cover - no POSIX shm on this platform
    _HAVE_SHM_MODULE = False

#: Every segment this module creates is named ``repro-b2sr-<token>`` so
#: leak checks can scan ``/dev/shm`` for the prefix.
SEGMENT_PREFIX = "repro-b2sr-"

#: Per-array alignment inside the segment (cache-line).
_ALIGN = 64

#: Manifest key prefix of the exported set-bit index arrays.
_BIT_INDEX = "bit_index."

# Monotonic suffix source for generated segment names.  An iterator —
# not a rebound module global — so concurrent dispatch paths cannot
# race a read-modify-write (and the linter's shared-state rule agrees).
_counter = itertools.count(1)


@lru_cache(maxsize=1)
def shm_available() -> bool:
    """Can this platform create POSIX shared memory?  Probed once
    (memoized via ``lru_cache`` — no module-global rebinding)."""
    if not _HAVE_SHM_MODULE:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.close()
        probe.unlink()
        return True
    except (OSError, ValueError):
        return False


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str] | None:
    """Names under ``/dev/shm`` starting with ``prefix`` (leak checks),
    or ``None`` when the platform has no ``/dev/shm`` to scan."""
    root = "/dev/shm"
    if not os.path.isdir(root):
        return None
    return sorted(n for n in os.listdir(root) if n.startswith(prefix))


@dataclass(frozen=True)
class ArraySpec:
    """Placement and checksum of one array inside a segment."""

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str
    crc32: int

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= int(dim)
        return n


@dataclass(frozen=True)
class ShmManifest:
    """Picklable description of one exported graph: segment name plus
    per-array placement.  This — never the arrays — crosses the queue."""

    segment: str
    nbytes: int
    nrows: int
    ncols: int
    tile_dim: int
    arrays: tuple[ArraySpec, ...]
    #: Exporter pid (diagnostics: which process owns the segment and
    #: holds its resource-tracker registration).
    pid: int = 0

    def spec(self, key: str) -> ArraySpec:
        for s in self.arrays:
            if s.key == key:
                return s
        raise KeyError(key)


def _fresh_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}-{next(_counter):x}"


class ShmGraphExport:
    """Flatten a frozen :class:`B2SRMatrix` and its plan's set-bit index
    (built here if still cold, so worker SSSP/CC pulls start warm) into
    one shared segment under a generated ``repro-b2sr-<pid>-<n>`` name.
    """

    def __init__(self, matrix: B2SRMatrix) -> None:
        if not shm_available():
            raise OSError("POSIX shared memory is not available")
        index = matrix.plan().bit_index
        arrays: list[tuple[str, np.ndarray]] = [
            ("indptr", matrix.indptr),
            ("indices", matrix.indices),
            ("tiles", matrix.tiles),
        ] + [
            (_BIT_INDEX + name, getattr(index, name))
            for name in SetBitIndex.FIELDS
        ]

        offset = 0
        placed: list[tuple[str, np.ndarray, int]] = []
        for key, arr in arrays:
            offset = -(-offset // _ALIGN) * _ALIGN
            placed.append((key, arr, offset))
            offset += arr.nbytes
        total = max(offset, 1)

        self._shm = None
        for _ in range(8):
            try:
                self._shm = shared_memory.SharedMemory(
                    create=True, size=total, name=_fresh_name()
                )
                break
            except FileExistsError:
                continue
        if self._shm is None:  # pragma: no cover - 8 collisions
            raise OSError("could not allocate a fresh shm segment name")

        specs: list[ArraySpec] = []
        buf = self._shm.buf
        for key, arr, off in placed:
            dst = np.frombuffer(
                buf, dtype=arr.dtype, count=arr.size, offset=off
            ).reshape(arr.shape)
            dst[...] = arr
            crc = zlib.crc32(buf[off : off + arr.nbytes])
            specs.append(
                ArraySpec(
                    key=key,
                    offset=off,
                    shape=tuple(arr.shape),
                    dtype=arr.dtype.str,
                    crc32=crc,
                )
            )
        del dst  # drop the last buffer view before close() can be called

        self.manifest = ShmManifest(
            segment=self._shm.name,
            nbytes=total,
            nrows=matrix.nrows,
            ncols=matrix.ncols,
            tile_dim=matrix.tile_dim,
            arrays=tuple(specs),
            pid=os.getpid(),
        )
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.manifest.segment

    def close(self) -> None:
        """Unmap the exporter's view (idempotent).  The segment itself
        survives until :meth:`unlink`."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept views
            pass

    def unlink(self) -> None:
        """Remove the named segment (idempotent; implies close)."""
        self.close()
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ShmGraphExport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()


class AttachedGraph:
    """Worker-side view of an exported graph.

    ``matrix`` is a real :class:`B2SRMatrix` whose arrays are read-only
    views into the shared segment; its plan has the exported set-bit
    index pre-adopted.  Keep this object alive as long as the
    matrix is in use; :meth:`close` unmaps the views.
    """

    def __init__(self, manifest: ShmManifest, matrix: B2SRMatrix, shm) -> None:
        self.manifest = manifest
        self.matrix = matrix
        self._shm = shm
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # The plan <-> matrix reference cycle outlives the last external
        # reference; collect it so the buffer views release now and the
        # segment unmaps cleanly instead of at interpreter teardown.
        self.matrix = None
        gc.collect()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept views
            pass

    def __enter__(self) -> "AttachedGraph":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def attach(manifest: ShmManifest) -> AttachedGraph:
    """Map an exported graph back into this process, zero-copy.

    Every array's CRC is re-computed over the mapped bytes and asserted
    against the manifest — the worker-side proof that what it serves is
    bitwise-identical to what the exporter published.
    """
    if not shm_available():
        raise OSError("POSIX shared memory is not available")
    shm = shared_memory.SharedMemory(name=manifest.segment)
    views: dict[str, np.ndarray] = {}
    view = None
    try:
        buf = shm.buf
        for spec in manifest.arrays:
            crc = zlib.crc32(buf[spec.offset : spec.offset + spec.nbytes])
            if crc != spec.crc32:
                raise ValueError(
                    f"shm attach: array {spec.key!r} of segment "
                    f"{manifest.segment!r} failed its bitwise check "
                    f"(crc {crc:#x} != {spec.crc32:#x})"
                )
            dtype = np.dtype(spec.dtype)
            count = 1
            for dim in spec.shape:
                count *= int(dim)
            view = np.frombuffer(
                buf, dtype=dtype, count=count, offset=spec.offset
            ).reshape(spec.shape)
            view.flags.writeable = False
            views[spec.key] = view
        matrix = B2SRMatrix.from_shared_views(
            manifest.nrows,
            manifest.ncols,
            manifest.tile_dim,
            views["indptr"],
            views["indices"],
            views["tiles"],
        )
        index = {
            name: views[_BIT_INDEX + name] for name in SetBitIndex.FIELDS
        }
        matrix.plan().adopt_bit_index(index)
    except BaseException:
        # Drop every buffer reference this frame created (it stays
        # alive while the exception propagates) so the unmap succeeds
        # now rather than noisily at garbage collection.
        views, index, matrix = {}, {}, None
        view = None
        buf = None
        gc.collect()
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass
        raise
    return AttachedGraph(manifest, matrix, shm)


__all__ = [
    "SEGMENT_PREFIX",
    "ArraySpec",
    "ShmManifest",
    "ShmGraphExport",
    "AttachedGraph",
    "attach",
    "shm_available",
    "list_segments",
]
