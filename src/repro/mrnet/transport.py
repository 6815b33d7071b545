"""Execution backends for MRNet node work.

The :class:`Network` decides *what* runs at each tree node; a transport
decides *how*.  There are three: :class:`LocalTransport` runs tasks
sequentially in-process (deterministic, zero overhead — the default for
tests and benches); :class:`~repro.mrnet.tcp.TcpTransport` runs each
batch on socket-framed worker agents, MRNet's process-per-node and the
multi-host boundary; and :class:`~repro.runtime.ShmTransport` runs it on
the same agents on one host, over a shared-memory arena.

One healing engine
------------------
Every batch that leaves the driver — on the ``shm`` and ``tcp``
agents — runs through
:func:`run_batch_healing`, the only owner of per-task policy: result
slots, worker-death counts, poison-task quarantine, the respawn budget,
preemptive deadlines, cancellation and the in-process fallback.  A
backend only implements a small *channel*: ``send(i, fn, task) -> bool``
(False: not sent yet, try again later), ``poll()`` yielding
``(i, ok, value)``, ``lost()`` (in-flight indices whose worker died),
``respawn()`` (workers brought back), ``abandon(indices)``,
``has_capacity()`` and ``wait(timeout)``.  A task's own exception
(``ok`` False) is re-raised unchanged on every transport; a task that
cannot be shipped, or workers that keep dying, is a ``TransportError``.

The local transport runs everything on the calling thread: it cannot
preempt a task or lose a worker, so it needs none of this and relies on
the Network's cooperative post-work deadline check.
"""

from __future__ import annotations

import atexit
import logging
import time
import warnings
import weakref
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..errors import PoisonTaskWarning, TransportError
from ..telemetry.tracer import NOOP_TRACER

__all__ = [
    "Transport",
    "LocalTransport",
    "TIMED_OUT",
    "track_open_pool",
    "untrack_pool",
    "run_batch_healing",
    "POISON_TASK_DEATHS",
]

logger = logging.getLogger(__name__)

#: Extra seconds past ``timeout`` before the engine gives up on a worker —
#: lets a worker that finishes just past the deadline report a
#: cooperative (and more informative) timeout itself.
TIMEOUT_GRACE = 0.25

#: Longest the healing engine waits on its channel between its
#: worker-death, deadline and cancel checks.
POLL_SECONDS = 0.02

#: Worker deaths a task may witness while outstanding before it is
#: presumed poisonous and quarantined to in-process execution.
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
# must not leave worker agents outliving the interpreter.  Every
# transport registers itself here when its agents start and deregisters
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
    """Register a transport with live workers (``_reap()`` hook)."""
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


def _count(channel: Any, name: str, n: int = 1) -> None:
    if channel.metrics.enabled:
        channel.metrics.counter(name).inc(n)


def run_batch_healing(
    channel: Any,
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    timeout: float | None = None,
    cancel: Any = None,
) -> list[Any]:
    """Run ``fn`` over ``tasks`` on ``channel``'s workers, surviving
    worker death; results come back in task order.

    ``channel`` implements the methods listed in the module docstring and
    carries ``backend``, ``n_workers``, ``connect_wait``, ``tracer``,
    ``metrics`` and the ``pool_respawns`` / ``quarantined_tasks`` counters
    this function advances.  The policy:

    * a task whose worker died is re-queued; once it has witnessed
      :data:`POISON_TASK_DEATHS` deaths it is presumed to be *killing* its
      workers and runs in-process in the driver instead, with a
      :class:`~repro.errors.PoisonTaskWarning`;
    * respawns are budgeted at ``2 * n_workers + 4`` per batch — a
      backend that keeps dying faster than that is not going to heal, and
      the batch raises ``TransportError``;
    * past ``timeout`` (plus :data:`TIMEOUT_GRACE`) every outstanding slot
      holds :data:`TIMED_OUT` and the in-flight work is abandoned;
    * ``cancel`` is polled every iteration: in-flight work is abandoned
      and :class:`~repro.errors.OperationCancelledError` raised;
    * when no worker is up, nor coming, for ``connect_wait`` seconds, the
      queued tasks run in-process so the batch always completes.
    """
    backend = channel.backend
    n = len(tasks)
    results: list[Any] = [None] * n
    deaths = [0] * n
    queue = list(range(n))
    in_flight: set[int] = set()
    deadline = None if timeout is None else time.monotonic() + timeout + TIMEOUT_GRACE
    respawn_budget = 2 * channel.n_workers + 4
    respawns = 0
    last_capacity = time.monotonic()

    if cancel is not None:
        cancel.check()
    while queue or in_flight:
        if cancel is not None and cancel.cancelled:
            channel.abandon(sorted(in_flight))
            cancel.check()  # raises with the token's reason
        waiting = []
        for i in queue:
            if channel.send(i, fn, tasks[i]):
                in_flight.add(i)
            else:
                waiting.append(i)
        queue = waiting
        # Only a result or a loss can let more work go out at once; after
        # a send there is nothing to do but wait for its answer.
        progressed = False
        for i, ok, value in channel.poll():
            if not ok:
                raise value
            in_flight.discard(i)
            results[i] = value
            progressed = True
        if not (queue or in_flight):
            break

        lost = channel.lost()
        revived = channel.respawn()
        if revived:
            respawns += revived
            channel.pool_respawns += revived
            _count(channel, "runtime.pool_respawns", revived)
            channel.tracer.instant(
                "pool.respawn", cat="transport", backend=backend, workers=revived
            )
            if respawns > respawn_budget:
                raise TransportError(
                    f"{backend} workers died {respawns} times in one batch "
                    f"({n} tasks); giving up"
                )
        if lost:
            logger.warning(
                "%s lost %d task(s) with their worker(s); re-dispatching "
                "(respawns %d/%d)",
                backend, len(lost), respawns, respawn_budget,
            )
            progressed = True
        for i in lost:
            in_flight.discard(i)
            deaths[i] += 1
            if deaths[i] < POISON_TASK_DEATHS:
                queue.append(i)
                _count(channel, "runtime.redispatched_tasks")
                continue
            channel.quarantined_tasks += 1
            _count(channel, "runtime.poison_tasks")
            channel.tracer.instant(
                "pool.quarantine", cat="transport", backend=backend, task_index=i
            )
            warnings.warn(
                f"task {i} lost its {backend} worker {deaths[i]} time(s); "
                "quarantined to in-process execution in the driver",
                PoisonTaskWarning,
                stacklevel=3,
            )
            results[i] = fn(tasks[i])
        if not (queue or in_flight):
            break

        now = time.monotonic()
        if deadline is not None and now >= deadline:
            for i in queue + sorted(in_flight):
                results[i] = TIMED_OUT
            channel.abandon(sorted(in_flight))
            break
        if channel.has_capacity():
            last_capacity = now
        elif queue and now - last_capacity > channel.connect_wait:
            warnings.warn(
                f"no {backend} workers available for {channel.connect_wait:.1f}s; "
                f"running {len(queue)} task(s) in-process in the driver",
                PoisonTaskWarning,
                stacklevel=3,
            )
            _count(channel, "runtime.fallback_tasks", len(queue))
            for i in queue:
                results[i] = fn(tasks[i])
            queue = []
            continue
        if not progressed:
            channel.wait(POLL_SECONDS)
    return results
