"""Shared-memory arena: stage arrays once, ship tiny refs to workers.

Mr. Scan's real deployment never copies the dataset between processes —
leaves read their partition slice straight off Lustre.  The honest
multi-process analogue on one host is POSIX shared memory: the driver
*stages* each array into a :class:`ShmArena` segment exactly once, and
every task shipped through the transport carries a :class:`ShmArrayRef`
— ``(segment, dtype, shape, offset)``, ~100 bytes on the wire — instead
of the array.  A worker's :meth:`ShmArrayRef.asarray` reattaches the
segment (cached per process) and returns a zero-copy numpy view.

Lifecycle rules
---------------
* The **creator** process owns every segment: :meth:`ShmArena.close`
  unlinks them (idempotent; also run from an ``atexit`` hook, so a run
  killed by ``KeyboardInterrupt`` or a chaos harness cannot leak
  ``/dev/shm`` entries).  Unlink happens before the local unmap, so a
  still-alive numpy view never blocks the name from being released.
  The creator's ``resource_tracker`` registration is the SIGKILL safety
  net: the tracker unlinks whatever a killed driver left behind.
* **Attachers** (worker agents, or the driver reading its own refs back)
  never unlink.  They map a segment with ``shm_open`` + ``mmap``, not
  ``SharedMemory``, so attaching registers nothing with any
  ``resource_tracker``: an agent is not a child of the driver's tracker,
  and one of its own would unlink the driver's live segments when the
  agent is killed.  Mappings are cached per process.
* Refs outlive nothing: once the creator unlinks, new attaches fail
  (``FileNotFoundError`` → :class:`~repro.errors.TransportError`), while
  already-mapped views stay valid until their process unmaps.
* Nor do refs outlive :meth:`ShmArena.rewind`, which hands the same
  pages (and every attachment to them) to the next run's staging.

Segments are named ``mrscan-<pid>-<counter>-<token>`` so tests (and
operators) can sweep ``/dev/shm`` for leftovers from this package alone.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import secrets
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import _posixshmem
import numpy as np

from ..errors import ArenaFullError, TransportError
from ..points import PointSet

__all__ = [
    "ShmArena",
    "ShmArrayRef",
    "PointSetRef",
    "as_pointset",
    "attach_segment",
    "active_segment_names",
    "REF_WIRE_BYTES",
    "SEGMENT_PREFIX",
]

#: Prefix of every segment this package creates (the ``/dev/shm`` sweep key).
SEGMENT_PREFIX = "mrscan-"

#: Wire-size estimate of one pickled ref — what a ref-carrying packet
#: actually costs, as opposed to the array bytes it avoids shipping.
REF_WIRE_BYTES = 96

#: Staging alignment; keeps attached views cache-line aligned.
_ALIGN = 64

#: Default size of one arena block; arrays larger than this get a
#: dedicated block of their exact (aligned) size.
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024

# --------------------------------------------------------------------- #
# Per-process attachment cache
# --------------------------------------------------------------------- #

_attach_lock = threading.Lock()
_attached: dict[str, memoryview | mmap.mmap] = {}
_name_counter = itertools.count()


def _map_segment(name: str) -> mmap.mmap:
    """Map an existing segment read-write, touching no resource tracker."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _release_fd(seg: shared_memory.SharedMemory) -> None:
    """Close a segment's descriptor and disarm its destructor, without
    unmapping.

    Part of the teardown contract (see :meth:`ShmArena.close`): the fd
    is freed eagerly, while the mapping must die by reference counting.
    ``SharedMemory.close()`` — which ``__del__`` also calls — unmaps
    even when numpy views are live (their buffer export does not pin
    the mmap), so the ``_buf``/``_mmap`` attributes are detached here:
    the view → memoryview → mmap chain then keeps the mapping alive for
    exactly as long as any view exists, and ``__del__`` finds nothing
    left to tear down.
    """
    fd = getattr(seg, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # already closed elsewhere
            pass
        seg._fd = -1
    seg._buf = None
    seg._mmap = None


def attach_segment(name: str) -> memoryview | mmap.mmap:
    """The (cached) mapping of segment ``name``: a buffer numpy views
    can sit on.  The mapping lives as long as any view of it."""
    with _attach_lock:
        buf = _attached.get(name)
        if buf is None:
            try:
                buf = _attached[name] = _map_segment(name)
            except FileNotFoundError as exc:
                raise TransportError(
                    f"shared-memory segment {name!r} is gone — the arena "
                    "that staged this ref was closed (or its creator died)"
                ) from exc
        return buf


# --------------------------------------------------------------------- #
# Refs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShmArrayRef:
    """Picklable handle to one staged array: reattaches as a numpy view.

    An empty array stages nowhere (``segment == ""``) and materializes
    without touching shared memory.
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def array_nbytes(self) -> int:
        """Bytes of the referenced array — the traffic the ref avoids."""
        n = int(np.dtype(self.dtype).itemsize)
        for dim in self.shape:
            n *= int(dim)
        return n

    def payload_bytes(self) -> int:
        """Wire size: the pickled handle, not the array (packets hook)."""
        return REF_WIRE_BYTES

    def asarray(self) -> np.ndarray:
        """A zero-copy view of the staged array (attaches the segment)."""
        if not self.segment:
            return np.empty(self.shape, dtype=np.dtype(self.dtype))
        return np.ndarray(
            self.shape,
            dtype=np.dtype(self.dtype),
            buffer=attach_segment(self.segment),
            offset=self.offset,
        )


@dataclass(frozen=True)
class PointSetRef:
    """A :class:`~repro.points.PointSet` staged as three array refs."""

    ids: ShmArrayRef
    coords: ShmArrayRef
    weights: ShmArrayRef

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def array_nbytes(self) -> int:
        return (
            self.ids.array_nbytes + self.coords.array_nbytes + self.weights.array_nbytes
        )

    def payload_bytes(self) -> int:
        return 3 * REF_WIRE_BYTES

    def materialize(self) -> PointSet:
        """Zero-copy :class:`PointSet` over the staged columns."""
        return PointSet(
            ids=self.ids.asarray(),
            coords=self.coords.asarray(),
            weights=self.weights.asarray(),
        )


def as_pointset(obj: "PointSet | PointSetRef") -> PointSet:
    """Materialize a ref, pass a real :class:`PointSet` through."""
    if isinstance(obj, PointSetRef):
        return obj.materialize()
    return obj


# --------------------------------------------------------------------- #
# The arena
# --------------------------------------------------------------------- #

_arena_lock = threading.Lock()
_live_arenas: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()
_created_segments: set[str] = set()  # linked segments created by this process
_atexit_installed = False


def _cleanup_live_arenas() -> None:  # pragma: no cover - exercised via test call
    for arena in list(_live_arenas):
        arena.close()


def _install_atexit() -> None:
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_cleanup_live_arenas)
        _atexit_installed = True


def active_segment_names() -> list[str]:
    """Segments created by this process that are still linked in
    ``/dev/shm`` — the leak-sweep hook for tests."""
    with _arena_lock:
        return sorted(_created_segments)


class _Block:
    """One shared-memory segment with a bump allocator."""

    __slots__ = ("seg", "used", "size")

    def __init__(self, seg: shared_memory.SharedMemory) -> None:
        self.seg = seg
        self.used = 0
        self.size = seg.size


class ShmArena:
    """Bump-allocating staging area over one or more shm segments.

    ``stage`` copies an array in (the one and only copy the data plane
    pays) and returns its :class:`ShmArrayRef`.  Staging walks forward
    through the existing blocks and creates one only past the last —
    ``block_bytes`` at a time, or the exact aligned size for an
    oversized array — so no upfront size estimate is needed.
    """

    def __init__(self, *, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes < _ALIGN:
            raise TransportError(f"block_bytes must be >= {_ALIGN}")
        self.block_bytes = int(block_bytes)
        self._blocks: list[_Block] = []
        self._cursor = 0  # index of the block staging bumps into
        self._lock = threading.Lock()
        self.closed = False
        self.bytes_staged = 0
        self.n_staged = 0
        _install_atexit()
        with _arena_lock:
            _live_arenas.add(self)

    # -------------------------------------------------------------- #

    @property
    def segment_names(self) -> list[str]:
        return [b.seg.name for b in self._blocks]

    def _new_block(self, min_bytes: int) -> _Block:
        size = max(self.block_bytes, min_bytes)
        name = (
            f"{SEGMENT_PREFIX}{os.getpid()}-{next(_name_counter)}-"
            f"{secrets.token_hex(4)}"
        )
        # The creator's resource-tracker registration stays: close()
        # unlinks (retiring it) on every normal or atexit path, and the
        # tracker — a separate process that survives SIGKILL of the
        # driver — unlinks whatever a killed run left behind.
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=size)
        except OSError as exc:
            # ENOSPC (/dev/shm full) and friends: a typed error so the
            # executor can degrade to pickled payloads instead of dying.
            raise ArenaFullError(
                f"cannot create {size}-byte shared-memory segment: {exc}"
            ) from exc
        block = _Block(seg)
        self._blocks.append(block)
        with _arena_lock:
            _created_segments.add(seg.name)
        # Creator-side refs resolve through the same cache as workers.
        with _attach_lock:
            _attached.setdefault(seg.name, seg.buf)
        return block

    def stage(self, array: np.ndarray) -> ShmArrayRef:
        """Copy ``array`` into the arena; returns its ref."""
        if self.closed:
            raise TransportError("cannot stage into a closed arena")
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            return ShmArrayRef(
                segment="", dtype=arr.dtype.str, shape=tuple(arr.shape), offset=0
            )
        with self._lock:
            while self._cursor < len(self._blocks):
                block = self._blocks[self._cursor]
                offset = (block.used + _ALIGN - 1) // _ALIGN * _ALIGN
                if offset + arr.nbytes <= block.size:
                    break
                self._cursor += 1
            else:
                block = self._new_block(arr.nbytes + _ALIGN)
                offset = 0
            dst = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=block.seg.buf, offset=offset
            )
            dst[...] = arr
            block.used = offset + arr.nbytes
            self.bytes_staged += arr.nbytes
            self.n_staged += 1
            return ShmArrayRef(
                segment=block.seg.name,
                dtype=arr.dtype.str,
                shape=tuple(arr.shape),
                offset=offset,
            )

    def stage_pointset(self, points: PointSet) -> PointSetRef:
        """Stage all three columns of a point set."""
        return PointSetRef(
            ids=self.stage(points.ids),
            coords=self.stage(points.coords),
            weights=self.stage(points.weights),
        )

    def rewind(self) -> None:
        """Reuse every block from offset 0; segments stay linked.

        Every ref staged so far will read whatever is staged next, so
        call this only once none is live — the end of a run, after its
        last batch (retries and failover resend the same refs).
        """
        with self._lock:
            for block in self._blocks:
                block.used = 0
            self._cursor = 0

    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Unlink every segment and release its descriptor (idempotent).

        The *mapping* is deliberately left to reference counting:
        ``SharedMemory.close()`` unmaps immediately even when numpy
        views are still alive (their buffer export does not protect the
        mmap), turning any later view read into a segfault.  Dropping
        our references instead lets a live view keep the mapping alive
        until it is collected, at which point the mmap deallocates and
        the memory is returned; with no views, that happens right here.
        The ``/dev/shm`` name is gone either way.
        """
        if self.closed:
            return
        self.closed = True
        for block in self._blocks:
            name = block.seg.name
            try:
                block.seg.unlink()
            except FileNotFoundError:  # already unlinked (e.g. double atexit)
                pass
            with _arena_lock:
                _created_segments.discard(name)
            with _attach_lock:
                _attached.pop(name, None)
            _release_fd(block.seg)
        self._blocks = []
        with _arena_lock:
            _live_arenas.discard(self)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
