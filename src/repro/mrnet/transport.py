"""Execution backends for MRNet node work.

The :class:`Network` decides *what* runs at each tree node; a transport
decides *how*: :class:`LocalTransport` runs tasks sequentially in-process
(deterministic, zero overhead — the default for tests and benches), while
:class:`ProcessTransport` executes each batch through a
``multiprocessing`` pool, which is the honest stand-in for MRNet's
process-per-node when real process isolation matters (failure injection,
pickling discipline, genuinely parallel hosts).

Timeouts
--------
``run_batch`` accepts an optional per-task ``timeout`` (seconds).  The
process transport enforces it *preemptively*: a worker that has not
delivered its result within the deadline (plus a small grace period, so
cooperative in-worker detection wins when the work does finish) has its
slot filled with the :data:`TIMED_OUT` sentinel instead of blocking the
batch forever.  The abandoned worker keeps running until it finishes —
``multiprocessing.Pool`` cannot kill one member — so its eventual result
is discarded; the Network turns the sentinel into a
:class:`~repro.errors.LeafTimeoutError` and applies its retry policy.
The local transport runs everything on the calling thread and cannot
preempt; it relies on the Network's cooperative post-work deadline check.

Self-healing
------------
A SIGKILLed or OOM-killed pool worker is a different failure from a task
that *raises*: the result for whatever it was running never arrives, and
a naive ``pool.map`` blocks forever.  Both pool transports therefore run
every batch through :func:`run_batch_healing`, which polls result
handles instead of blocking on them and watches the pool's worker
processes.  When a worker dies mid-round the engine terminates and
respawns the whole pool (:meth:`ShmTransport._ensure_pool` re-attaches
the current arena segments on the way up), then re-dispatches every task
whose result was lost.  A task that witnesses
:data:`POISON_TASK_DEATHS` pool deaths while outstanding is presumed to
be *killing* the workers and is quarantined: it runs in-process in the
driver, with a :class:`~repro.errors.PoisonTaskWarning` so the
degradation is visible.  Respawns are budgeted per batch; a pool that
keeps dying faster than the budget raises ``TransportError``.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing as mp
import time
import warnings
import weakref
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..errors import OperationCancelledError, PoisonTaskWarning, TransportError
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER

__all__ = [
    "Transport",
    "LocalTransport",
    "ProcessTransport",
    "TIMED_OUT",
    "track_open_pool",
    "untrack_pool",
    "run_batch_healing",
    "POISON_TASK_DEATHS",
]

logger = logging.getLogger(__name__)

#: Extra seconds past ``timeout`` before the process transport gives up on
#: a worker — lets a worker that finishes just past the deadline report a
#: cooperative (and more informative) timeout itself.
TIMEOUT_GRACE = 0.25

#: Longest the healing batch loop waits on a result handle between its
#: worker-death, deadline and cancel checks.
POOL_POLL_SECONDS = 0.02

#: Pool deaths a task may witness while outstanding before it is presumed
#: poisonous and quarantined to in-process execution.
POISON_TASK_DEATHS = 2


class _TimedOut:
    """Sentinel batch slot: the worker missed its deadline."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<TIMED_OUT>"


TIMED_OUT = _TimedOut()


# --------------------------------------------------------------------- #
# atexit pool guard
#
# A transport whose owner forgot (or was interrupted before) ``close()``
# must not leave spawn workers outliving the interpreter.  Every
# transport registers itself here when its pool starts and deregisters
# on close; whatever is left at interpreter exit is terminated — never
# joined, since an abandoned worker may be hung.
# --------------------------------------------------------------------- #

_open_pools: "weakref.WeakSet[Any]" = weakref.WeakSet()
_guard_installed = False


def _reap_open_pools() -> None:  # pragma: no cover - runs at interpreter exit
    for transport in list(_open_pools):
        try:
            transport._reap()
        except Exception:
            pass


def track_open_pool(transport: Any) -> None:
    """Register a transport with a live worker pool (``_reap()`` hook)."""
    global _guard_installed
    if not _guard_installed:
        atexit.register(_reap_open_pools)
        _guard_installed = True
    _open_pools.add(transport)


def untrack_pool(transport: Any) -> None:
    """Deregister after a clean close."""
    _open_pools.discard(transport)


@runtime_checkable
class Transport(Protocol):
    """Run a batch of independent node tasks, returning results in order.

    ``timeout`` bounds one task's execution in seconds (best effort —
    see the module docstring); a timed-out slot holds :data:`TIMED_OUT`.
    ``cancel`` is an optional :class:`~repro.resilience.CancelToken`:
    dispatch loops poll it and unwind with
    :class:`~repro.errors.OperationCancelledError`, abandoning whatever
    is still in flight (workers finish into the void; their results are
    discarded).
    """

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        timeout: float | None = None,
        cancel: Any = None,
    ) -> list[Any]:
        ...

    def close(self) -> None:
        ...


class LocalTransport:
    """Sequential in-process execution (deterministic).

    An optional tracer records one ``transport.batch`` span per
    ``run_batch`` call — the host-side cost of dispatching a level of
    tree-node work, as opposed to the per-node spans the Network records.
    """

    def __init__(self, *, tracer=None) -> None:
        self.tracer = tracer or NOOP_TRACER

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        timeout: float | None = None,
        cancel: Any = None,
    ) -> list[Any]:
        # ``timeout`` is accepted for protocol parity but cannot be
        # enforced preemptively on the calling thread; the Network's
        # cooperative post-work check covers local runs.  ``cancel`` is
        # honoured between tasks — the finest grain a sequential
        # in-process backend can offer.
        with self.tracer.span(
            "transport.batch", cat="transport", n_tasks=len(tasks), backend="local"
        ):
            results = []
            for task in tasks:
                if cancel is not None:
                    cancel.check()
                results.append(fn(task))
            return results

    def close(self) -> None:  # nothing to release
        pass


def _invoke(args: tuple[Callable[[Any], Any], Any]) -> Any:
    fn, task = args
    return fn(task)


class _Unset:
    """Batch slot placeholder: no result yet."""

    __slots__ = ()


_UNSET = _Unset()


def run_batch_healing(
    transport: Any,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    timeout: float | None,
    backend: str,
    cancel: Any = None,
) -> list[Any]:
    """Dispatch a batch on ``transport``'s pool, surviving worker death.

    The shared engine behind :meth:`ProcessTransport.run_batch` and
    :meth:`ShmTransport.run_batch`.  ``transport`` must expose
    ``_ensure_pool()`` (lazy pool, records ``_known_pids``),
    ``_respawn_pool()``, ``n_workers``, ``_abandoned``,
    ``pool_respawns``/``quarantined_tasks`` counters, and
    ``tracer``/``metrics``.

    Tasks are dispatched individually (``apply_async``) and their handles
    polled, never blocked on: a handle whose worker was SIGKILLed simply
    never becomes ready, and blocking would hang the batch forever.  See
    the module docstring for the full healing policy.

    ``cancel`` (a :class:`~repro.resilience.CancelToken`) is polled each
    loop iteration: a cancelled batch abandons its in-flight handles (the
    workers finish into the void, exactly like a preempted timeout — the
    transport is flagged ``_abandoned`` so a later ``close()`` terminates
    rather than joins) and raises
    :class:`~repro.errors.OperationCancelledError`.
    """
    pool = transport._ensure_pool()
    n = len(tasks)
    results: list[Any] = [_UNSET] * n
    deaths = [0] * n
    pending: dict[int, Any] = {}
    deadline = None if timeout is None else time.monotonic() + timeout + TIMEOUT_GRACE
    # A pool that dies more often than every worker twice (plus slack) in
    # one batch is not going to heal — something environmental is wrong.
    respawn_budget = 2 * transport.n_workers + 4
    respawns = 0

    def _dispatch(i: int) -> None:
        pending[i] = pool.apply_async(_invoke, ((fn, tasks[i]),))

    def _quarantine(i: int) -> None:
        transport.quarantined_tasks += 1
        if transport.metrics.enabled:
            transport.metrics.counter("runtime.poison_tasks").inc()
        transport.tracer.instant(
            "pool.quarantine", cat="transport", backend=backend, task_index=i
        )
        warnings.warn(
            f"task {i} killed {deaths[i]} pool worker(s); quarantined to "
            f"in-process execution in the driver",
            PoisonTaskWarning,
            stacklevel=3,
        )
        results[i] = _invoke((fn, tasks[i]))

    if cancel is not None:
        cancel.check()
    for i in range(n):
        _dispatch(i)
    while pending:
        if cancel is not None and cancel.cancelled:
            # Abandon everything still in flight: the workers will finish
            # into the void and their results be discarded.  The pool may
            # hold a hung task, so mark it terminate-on-close.
            pending.clear()
            transport._abandoned = True
            cancel.check()  # raises with the token's reason
        progressed = False
        for i in sorted(pending):
            handle = pending[i]
            if handle.ready():
                del pending[i]
                results[i] = handle.get()
                progressed = True
        if not pending:
            break
        if _pool_damaged(pool, transport._known_pids):
            victims = sorted(pending)
            pending.clear()
            respawns += 1
            if respawns > respawn_budget:
                raise TransportError(
                    f"{backend} pool died {respawns} times in one batch "
                    f"({n} tasks); giving up"
                )
            logger.warning(
                "%s pool lost worker(s) mid-batch (%d task(s) in flight); "
                "respawning (%d/%d)",
                backend, len(victims), respawns, respawn_budget,
            )
            pool = transport._respawn_pool(backend)
            for i in victims:
                deaths[i] += 1
                if deaths[i] >= POISON_TASK_DEATHS:
                    _quarantine(i)
                else:
                    _dispatch(i)
            continue
        if deadline is not None and time.monotonic() >= deadline:
            for i in sorted(pending):
                results[i] = TIMED_OUT
            pending.clear()
            transport._abandoned = True
            break
        if not progressed:
            # Sleep on the oldest handle, not on the clock: the batch
            # returns when its last result lands, and the timeout keeps
            # the checks above on their cadence when nothing does.
            pending[min(pending)].wait(POOL_POLL_SECONDS)
    return results


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


class ProcessTransport:
    """Execute batches on a multiprocessing pool.

    ``fn`` and every task must be picklable.  The pool is created lazily
    and sized to ``n_workers`` (default: CPU count).  ``close()`` must be
    called (or use as a context manager) to reap workers.
    """

    def __init__(
        self, n_workers: int | None = None, *, tracer=None, metrics=None
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise TransportError("n_workers must be >= 1")
        self.n_workers = n_workers or mp.cpu_count()
        self.tracer = tracer or NOOP_TRACER
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self._pool: mp.pool.Pool | None = None
        self._abandoned = False  # a worker missed a deadline and may hang
        self._known_pids: set[int] = set()
        #: Self-healing activity (see :func:`run_batch_healing`).
        self.pool_respawns = 0
        self.quarantined_tasks = 0

    def _ensure_pool(self) -> "mp.pool.Pool":
        if self._pool is None:
            with self.tracer.span(
                "transport.pool_start", cat="transport", n_workers=self.n_workers
            ):
                self._pool = mp.get_context("spawn").Pool(self.n_workers)
            self._known_pids = {p.pid for p in self._pool._pool}
            track_open_pool(self)
        return self._pool

    def _respawn_pool(self, backend: str = "process") -> "mp.pool.Pool":
        """Terminate the damaged pool and spawn a fresh one."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            untrack_pool(self)
        self.pool_respawns += 1
        if self.metrics.enabled:
            self.metrics.counter("runtime.pool_respawns").inc()
        self.tracer.instant(
            "pool.respawn", cat="transport", backend=backend,
            n_workers=self.n_workers,
        )
        return self._ensure_pool()

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
        try:
            with self.tracer.span(
                "transport.batch", cat="transport", n_tasks=len(tasks), backend="process"
            ):
                return run_batch_healing(
                    self, fn, tasks, timeout=timeout, backend="process",
                    cancel=cancel,
                )
        except (TransportError, OperationCancelledError):
            raise
        except Exception as exc:  # pool failure or unpicklable payloads
            raise TransportError(f"process transport batch failed: {exc}") from exc

    def close(self) -> None:
        """Reap the pool (idempotent — safe to call any number of times,
        including after a preempted-timeout batch)."""
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

    def _reap(self) -> None:
        """atexit path: terminate unconditionally — never join a possibly
        hung abandoned worker at interpreter shutdown."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ProcessTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
