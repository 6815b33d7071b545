"""The persistent shared-memory executor: :class:`ShmTransport`.

This is the zero-copy counterpart of
:class:`~repro.mrnet.transport.ProcessTransport` — a subclass sharing its
spawn pool and its channel into the healing engine
(:func:`~repro.mrnet.transport.run_batch_healing`), so
:class:`~repro.mrnet.network.Network` retries, preemptive timeouts,
failover and worker-death recovery work unchanged — but

* the spawn pool is **persistent and warm** — workers are initialized
  once with :func:`repro.runtime.worker.init_worker`, pre-attach the
  arena (a respawned pool re-attaches its *current* segment list), and
  keep a reusable simulated device between batches;
* tasks are expected to carry :class:`~repro.runtime.arena.ShmArrayRef`
  / :class:`~repro.runtime.arena.PointSetRef` handles staged through
  :meth:`stage_array` / :meth:`stage_pointset`, so a batch pickles
  kilobytes of refs instead of the partitions themselves.

A run that borrows the transport ends with :meth:`ShmTransport.rewind`,
so the next run restages into the same pages.  Closing the transport
closes the pool *and* its arena (unlinking every staged segment); an
``atexit`` guard covers abandoned instances so
interrupted runs cannot leak ``/dev/shm`` entries or pool processes.
When ``/dev/shm`` itself fills up, staging raises
:class:`~repro.errors.ArenaFullError`; :func:`stage_pointset_safe` turns
that into a graceful degrade — the point set travels in the task pickle
instead (process-transport semantics) and the run continues.
"""

from __future__ import annotations

import logging
from typing import Any

import numpy as np

from ..errors import ArenaFullError, ConfigError, TransportError
from ..mrnet.transport import LocalTransport, ProcessTransport
from ..points import PointSet
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .arena import DEFAULT_BLOCK_BYTES, PointSetRef, ShmArena, ShmArrayRef
from .worker import init_worker

__all__ = [
    "BorrowedTransport",
    "ShmTransport",
    "borrow_transport",
    "make_transport",
    "stage_pointset_safe",
    "TRANSPORT_NAMES",
]

logger = logging.getLogger(__name__)

#: Valid ``MrScanConfig.transport`` / ``--transport`` values.
TRANSPORT_NAMES = ("local", "process", "shm", "tcp")


class ShmTransport(ProcessTransport):
    """Persistent spawn-pool transport over a shared-memory arena.

    :class:`~repro.mrnet.transport.ProcessTransport`'s pool and healing
    channel plus three things: the staging arena, the
    :func:`~repro.runtime.worker.init_worker` initializer that pre-attaches
    it, and its teardown.  Unlike the pickling pool, a closed
    ``ShmTransport`` refuses further work.

    Parameters
    ----------
    n_workers:
        Pool size (default: CPU count).
    metrics:
        Optional :class:`repro.telemetry.Metrics`; staging and dispatch
        feed the ``runtime.*`` instruments.
    """

    backend = "shm"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        tracer=None,
        metrics=None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        super().__init__(n_workers, tracer=tracer, metrics=metrics)
        self._arena: ShmArena | None = None
        self._block_bytes = int(block_bytes)
        #: Set once staging has degraded to pickling on ArenaFullError.
        self.stage_degraded = False

    # ------------------------------------------------------------------ #
    # Staging
    # ------------------------------------------------------------------ #

    @property
    def arena(self) -> ShmArena:
        """The staging arena (created on first use)."""
        if self._arena is None:
            self._arena = ShmArena(block_bytes=self._block_bytes)
        return self._arena

    @property
    def supports_staging(self) -> bool:
        """Duck-typing hook the pipeline probes before staging."""
        return True

    def stage_array(self, array: np.ndarray) -> ShmArrayRef:
        """Stage one array; see :meth:`ShmArena.stage`."""
        if self.closed:
            raise TransportError("cannot stage through a closed transport")
        ref = self.arena.stage(array)
        self._record_staged(ref.array_nbytes, 1)
        return ref

    def stage_pointset(self, points: PointSet) -> PointSetRef:
        """Stage a point set's three columns; returns the bundle ref."""
        if self.closed:
            raise TransportError("cannot stage through a closed transport")
        ref = self.arena.stage_pointset(points)
        self._record_staged(ref.array_nbytes, 3)
        return ref

    def _record_staged(self, nbytes: int, n_arrays: int) -> None:
        if self.metrics.enabled:
            self.metrics.counter("runtime.bytes_staged").inc(nbytes)
            self.metrics.counter("runtime.arrays_staged").inc(n_arrays)
            self.metrics.gauge("runtime.segments").set(
                len(self.arena.segment_names)
            )

    # ------------------------------------------------------------------ #
    # Pool and lifecycle
    # ------------------------------------------------------------------ #

    def _pool_kwargs(self) -> dict[str, Any]:
        # The segment list is captured at every (re)spawn — a pool
        # respawned after a worker death therefore re-attaches everything
        # staged so far, not just what existed at first spawn.
        segments = tuple(self._arena.segment_names) if self._arena else ()
        return {"initializer": init_worker, "initargs": (segments,)}

    def rewind(self) -> None:
        """End of a run: the next run stages into the same pages.

        A pool that abandoned work (a timeout or a cancel) may still run
        a straggler that reads its staged block — or, with spills on,
        checkpoints an output computed from it — so that pool is
        terminated first; the next batch respawns it, re-attaching the
        current segments.
        """
        if self._arena is None:
            return
        if self._abandoned:
            self._terminate()
            self._abandoned = False
        self._arena.rewind()

    def close(self) -> None:
        """Reap the pool and unlink the arena (idempotent)."""
        self.closed = True
        super().close()
        if self._arena is not None:
            self._arena.close()

    def _reap(self) -> None:
        """atexit path: terminate unconditionally (never join a possibly
        hung worker at interpreter shutdown)."""
        super()._reap()
        self.close()


class BorrowedTransport:
    """A non-owning view of a transport: ``close()`` is a counted no-op.

    ``run_pipeline`` historically assumed every transport it was handed
    died with the run — callers like the serve daemon instead *lend*
    their resident transport to each partial run and keep the pool and
    arena warm afterwards.  This wrapper makes the loan explicit: every
    attribute read/write is forwarded to the wrapped transport (so
    degrade flags like ``stage_degraded`` set through the borrow reach
    the owner), but ``close()`` only increments :attr:`close_calls` —
    neither the pool is reaped nor the arena unlinked, and the atexit
    sweep keeps tracking the *owner*, never the borrow.
    """

    _OWN = frozenset({"_inner", "close_calls"})

    def __init__(self, inner: Any) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "close_calls", 0)

    @property
    def inner(self) -> Any:
        return self._inner

    def close(self) -> None:
        object.__setattr__(self, "close_calls", self.close_calls + 1)

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_inner"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(object.__getattribute__(self, "_inner"), name, value)

    def __enter__(self) -> "BorrowedTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"BorrowedTransport({self._inner!r}, close_calls={self.close_calls})"


def borrow_transport(transport: Any) -> BorrowedTransport:
    """Lend ``transport`` to a run without ceding ownership."""
    if isinstance(transport, BorrowedTransport):
        return transport
    return BorrowedTransport(transport)


def stage_pointset_safe(transport: Any, points: PointSet) -> Any:
    """Stage ``points`` through the transport's data plane, degrading to
    the point set itself when the arena is full.

    On :class:`~repro.errors.ArenaFullError` (``/dev/shm`` ENOSPC) the
    transport is flagged ``stage_degraded`` and the raw :class:`PointSet`
    is returned — it then rides the task pickle exactly as under
    :class:`ProcessTransport`, trading zero-copy for survival.  The first
    degrade is logged and counted (``runtime.stage_fallbacks``).
    """
    stage = getattr(transport, "stage_pointset", None)
    if stage is None or getattr(transport, "stage_degraded", False):
        return points
    try:
        return stage(points)
    except ArenaFullError as exc:
        transport.stage_degraded = True
        metrics = getattr(transport, "metrics", NOOP_METRICS)
        if metrics.enabled:
            metrics.counter("runtime.stage_fallbacks").inc()
        getattr(transport, "tracer", NOOP_TRACER).instant(
            "arena.degrade", cat="transport", backend="shm"
        )
        logger.warning(
            "shared-memory arena is full (%s); degrading to pickled "
            "point sets for the rest of the run",
            exc,
        )
        return points


def make_transport(
    name: str,
    *,
    n_workers: int | None = None,
    tracer=None,
    metrics=None,
):
    """Build a transport from its config/CLI name.

    ``local`` — sequential in-process; ``process`` — pickling
    multiprocessing pool; ``shm`` — persistent zero-copy executor;
    ``tcp`` — socket-framed worker agents (self-spawned on localhost by
    default, external via ``MRSCAN_TCP_PORT``/``MRSCAN_TCP_SPAWN=0``).
    """
    if name == "local":
        return LocalTransport(tracer=tracer)
    if name == "process":
        return ProcessTransport(n_workers, tracer=tracer, metrics=metrics)
    if name == "shm":
        return ShmTransport(n_workers, tracer=tracer, metrics=metrics)
    if name == "tcp":
        from ..mrnet.tcp import TcpTransport

        return TcpTransport(n_workers, tracer=tracer, metrics=metrics)
    raise ConfigError(
        f"unknown transport {name!r}; expected one of {TRANSPORT_NAMES}"
    )
