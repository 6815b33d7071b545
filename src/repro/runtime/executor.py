"""The pool transport: :class:`ShmTransport`.

A persistent spawn pool, one channel of the healing engine
(:func:`~repro.mrnet.transport.run_batch_healing`), so
:class:`~repro.mrnet.network.Network` retries, preemptive timeouts,
failover and worker-death recovery work on it unchanged — plus a
shared-memory arena:

* the pool is **warm** — workers are initialized once with
  :func:`repro.runtime.worker.init_worker`, pre-attach the arena (a
  respawned pool re-attaches its *current* segment list), and keep a
  reusable simulated device between batches;
* tasks carry :class:`~repro.runtime.arena.ShmArrayRef` /
  :class:`~repro.runtime.arena.PointSetRef` handles staged through
  :meth:`~ShmTransport.stage_array` / :meth:`~ShmTransport.stage_pointset`,
  so a batch pickles kilobytes of refs instead of the partitions.

A run handed the transport ends with :meth:`ShmTransport.rewind`,
so the next run restages into the same pages.  Closing the transport
closes the pool *and* its arena (unlinking every staged segment); an
``atexit`` guard covers abandoned instances so interrupted runs cannot
leak ``/dev/shm`` entries or pool processes.  When ``/dev/shm`` itself
fills up, staging raises :class:`~repro.errors.ArenaFullError`;
:func:`stage_pointset_safe` turns that into a graceful degrade — the
point set travels in the task pickle instead and the run continues.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..errors import ArenaFullError, ConfigError, TransportError
from ..mrnet.transport import (
    LocalTransport,
    run_batch_healing,
    track_open_pool,
    untrack_pool,
)
from ..points import PointSet
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .arena import DEFAULT_BLOCK_BYTES, PointSetRef, ShmArena, ShmArrayRef
from .worker import init_worker

__all__ = [
    "ShmTransport",
    "make_transport",
    "stage_pointset_safe",
    "TRANSPORT_NAMES",
]

logger = logging.getLogger(__name__)

#: Valid ``MrScanConfig.transport`` / ``--transport`` / ``MRSCAN_TRANSPORT``
#: values.
TRANSPORT_NAMES = ("local", "shm", "tcp")


def _invoke(args: tuple[Callable[[Any], Any], Any]) -> tuple[str, Any]:
    """Pool-worker body: tell the task's own exception apart from a
    failure to ship the task or its result (which the pool raises)."""
    fn, task = args
    try:
        return "ok", fn(task)
    except Exception as exc:
        return "err", exc


def _pool_damaged(pool: Any, known_pids: set[int]) -> bool:
    """Has any pool worker died since the pool (re)started?

    Two signals, because ``Pool``'s maintainer thread races us: a worker
    process whose ``exitcode`` is set has died and not yet been reaped,
    and a changed pid set means the maintainer already replaced a dead
    worker (whose in-flight task is still lost — replacements only pick
    up *queued* work).
    """
    procs = list(pool._pool)
    if any(p.exitcode is not None for p in procs):
        return True
    return {p.pid for p in procs} != known_pids


class ShmTransport:
    """Persistent spawn-pool transport over a shared-memory arena.

    ``fn`` and every task must be picklable.  The pool is spawned lazily,
    sized to ``n_workers`` (default: CPU count), and is the healing
    engine's channel: tasks go out one ``apply_async`` each, and their
    handles are polled, never blocked on — a handle whose worker was
    SIGKILLed never becomes ready.  A dead worker costs the whole pool:
    it is terminated and respawned, and every task it held is reported
    lost.  A closed transport refuses further work.

    Parameters
    ----------
    n_workers:
        Pool size (default: CPU count).
    metrics:
        Optional :class:`repro.telemetry.Metrics`; staging and dispatch
        feed the ``runtime.*`` instruments.
    """

    backend = "shm"
    #: A pool always has capacity, so the engine never falls back.
    connect_wait = 0.0

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        tracer=None,
        metrics=None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise TransportError("n_workers must be >= 1")
        self.n_workers = n_workers or mp.cpu_count()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # is-None check, not truthiness: a fresh Metrics registry is empty
        # and __len__ == 0 would read as falsy.
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.closed = False
        self._pool: mp.pool.Pool | None = None
        self._abandoned = False  # a worker missed a deadline and may hang
        self._known_pids: set[int] = set()
        self._pending: dict[int, Any] = {}  # task index -> result handle
        #: Self-healing activity (see :func:`run_batch_healing`).
        self.pool_respawns = 0
        self.quarantined_tasks = 0
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
    # Dispatch
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> "mp.pool.Pool":
        if self._pool is None:
            # The segment list is captured at every (re)spawn — a pool
            # respawned after a worker death therefore re-attaches
            # everything staged so far, not just what existed at first spawn.
            segments = tuple(self._arena.segment_names) if self._arena else ()
            with self.tracer.span(
                "transport.pool_start", cat="transport",
                n_workers=self.n_workers, backend=self.backend,
            ):
                try:
                    self._pool = mp.get_context("spawn").Pool(
                        self.n_workers, initializer=init_worker, initargs=(segments,)
                    )
                except OSError as exc:
                    raise TransportError(
                        f"{self.backend} pool cannot start: {exc}"
                    ) from exc
            self._known_pids = {p.pid for p in self._pool._pool}
            track_open_pool(self)
        return self._pool

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        timeout: float | None = None,
        cancel: Any = None,
    ) -> list[Any]:
        if not tasks:
            return []
        if self.closed:
            raise TransportError(f"{self.backend} transport is closed")
        with self.tracer.span(
            "transport.batch", cat="transport", n_tasks=len(tasks), backend=self.backend
        ):
            if self.metrics.enabled:
                self.metrics.counter("runtime.batches").inc()
                self.metrics.counter("runtime.tasks_dispatched").inc(len(tasks))
            self._ensure_pool()
            self._pending = {}
            return run_batch_healing(self, fn, tasks, timeout=timeout, cancel=cancel)

    # -- healing channel ------------------------------------------------ #

    def send(self, i: int, fn: Callable[[Any], Any], task: Any) -> bool:
        self._pending[i] = self._pool.apply_async(_invoke, ((fn, task),))
        return True

    def poll(self) -> Iterator[tuple[int, bool, Any]]:
        for i in [i for i, handle in self._pending.items() if handle.ready()]:
            try:
                status, value = self._pending.pop(i).get()
            except Exception as exc:  # the task or its result did not pickle
                raise TransportError(
                    f"{self.backend} transport cannot run task {i}: {exc}"
                ) from exc
            yield i, status == "ok", value

    def lost(self) -> list[int]:
        if not _pool_damaged(self._pool, self._known_pids):
            return []
        lost = list(self._pending)
        self._pending.clear()
        self._terminate()
        return lost

    def respawn(self) -> int:
        if self._pool is not None:
            return 0
        self._ensure_pool()  # workers re-attach the current segments
        return 1

    def abandon(self, indices: Sequence[int]) -> None:
        # The abandoned workers finish into the void; the pool may hold a
        # hung task, so close() must terminate rather than join it.
        for i in indices:
            self._pending.pop(i, None)
        self._abandoned = True

    def has_capacity(self) -> bool:
        return True

    def wait(self, timeout: float) -> None:
        # Sleep on the oldest handle, not on the clock: the batch returns
        # when its last result lands, and the timeout keeps the engine's
        # checks on their cadence when nothing does.
        if self._pending:
            self._pending[min(self._pending)].wait(timeout)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _terminate(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            untrack_pool(self)

    def rewind(self) -> None:
        """End of a run: the next run stages into the same pages.

        A pool that abandoned work (a timeout or a cancel) may still run
        a straggler that reads its staged block — or, in a run with a run
        directory, spills an output computed from it — so that pool is
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
        """Reap the pool and unlink the arena (idempotent — safe after a
        preempted-timeout batch too)."""
        self.closed = True
        if self._pool is not None:
            # A pool with an abandoned (possibly hung) worker cannot be
            # joined without risking a deadlock — terminate it instead.
            if self._abandoned:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None
            self._abandoned = False
            untrack_pool(self)
        if self._arena is not None:
            self._arena.close()

    def _reap(self) -> None:
        """atexit path: terminate unconditionally (never join a possibly
        hung worker at interpreter shutdown)."""
        self._terminate()
        self.close()

    def __enter__(self) -> "ShmTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def stage_pointset_safe(transport: Any, points: PointSet) -> Any:
    """Stage ``points`` through the transport's data plane, degrading to
    the point set itself when the arena is full.

    On :class:`~repro.errors.ArenaFullError` (``/dev/shm`` ENOSPC) the
    transport is flagged ``stage_degraded`` and the raw :class:`PointSet`
    is returned — it then rides the task pickle, trading zero-copy for
    survival.  The first
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

    ``local`` — sequential in-process; ``shm`` — persistent zero-copy
    spawn pool; ``tcp`` — socket-framed worker agents (self-spawned on localhost by
    default, external via ``MRSCAN_TCP_PORT``/``MRSCAN_TCP_SPAWN=0``).
    """
    if name == "local":
        return LocalTransport(tracer=tracer)
    if name == "shm":
        return ShmTransport(n_workers, tracer=tracer, metrics=metrics)
    if name == "tcp":
        from ..mrnet.tcp import TcpTransport

        return TcpTransport(n_workers, tracer=tracer, metrics=metrics)
    raise ConfigError(
        f"unknown transport {name!r}; expected one of {TRANSPORT_NAMES}"
    )
