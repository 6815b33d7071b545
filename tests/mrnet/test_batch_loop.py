"""``run_batch_healing``'s wait: on the oldest handle, not on the clock.

A fake pool whose handles complete on an ``Event`` drives the loop with no
worker processes: a result that lands ends the wait at once, and a handle
that never becomes ready still meets the deadline, cancel and dead-worker
checks every ``POOL_POLL_SECONDS``.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.mrnet.transport as transport_mod
from repro.errors import OperationCancelledError
from repro.mrnet.transport import TIMED_OUT, run_batch_healing
from repro.resilience import CancelToken
from repro.telemetry.metrics import NOOP_METRICS
from repro.telemetry.tracer import NOOP_TRACER


class _Handle:
    """The slice of ``multiprocessing.pool.ApplyResult`` the loop uses."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value = None
        self.wait_timeouts: list[float] = []

    def ready(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout=None) -> None:
        self.wait_timeouts.append(timeout)
        self._done.wait(timeout)

    def get(self):
        return self._value

    def finish(self, value) -> None:
        self._value = value
        self._done.set()


class _Proc:
    def __init__(self, pid: int) -> None:
        self.pid, self.exitcode = pid, None


class _Pool:
    """Hands out handles; finishes them itself only when ``instant``."""

    def __init__(self, instant: bool = False) -> None:
        self._pool = [_Proc(1), _Proc(2)]
        self.instant = instant
        self.handles: list[_Handle] = []

    def apply_async(self, invoke, args) -> _Handle:
        handle = _Handle()
        self.handles.append(handle)
        if self.instant:
            handle.finish(invoke(*args))
        return handle


class _Transport:
    """What ``run_batch_healing`` asks of a pool transport."""

    n_workers = 2
    tracer, metrics = NOOP_TRACER, NOOP_METRICS

    def __init__(self) -> None:
        self.pool = _Pool()
        self._known_pids = {1, 2}
        self._abandoned = False
        self.pool_respawns = self.quarantined_tasks = 0

    def _ensure_pool(self) -> _Pool:
        return self.pool

    def _respawn_pool(self, backend: str) -> _Pool:
        self.pool_respawns += 1
        self.pool = _Pool(instant=True)
        return self.pool


def _double(x):
    return 2 * x


def _later(seconds: float, fn, *args) -> threading.Timer:
    timer = threading.Timer(seconds, fn, args)
    timer.daemon = True
    timer.start()
    return timer


def test_batch_returns_when_its_last_result_lands(monkeypatch):
    """With the poll interval stretched to 30 s a sleeping loop would sit
    it out; a loop waiting on the handle is woken by the result."""
    monkeypatch.setattr(transport_mod, "POOL_POLL_SECONDS", 30.0)
    transport = _Transport()

    def finish_all():
        for i, handle in enumerate(transport.pool.handles):
            handle.finish(10 + i)

    _later(0.05, finish_all)
    start = time.monotonic()
    results = run_batch_healing(transport, _double, [1, 2, 3], timeout=None, backend="fake")
    assert results == [10, 11, 12]
    assert time.monotonic() - start < 10.0
    # It slept on the oldest pending handle only, with the poll interval
    # as the timeout.
    oldest, *others = transport.pool.handles
    assert oldest.wait_timeouts and set(oldest.wait_timeouts) == {30.0}
    assert all(not h.wait_timeouts for h in others)


def test_never_ready_handle_still_meets_the_deadline():
    transport = _Transport()
    results = run_batch_healing(transport, _double, [1, 2], timeout=0.05, backend="fake")
    assert results == [TIMED_OUT, TIMED_OUT]
    assert transport._abandoned
    waits = transport.pool.handles[0].wait_timeouts
    assert len(waits) > 1 and set(waits) == {transport_mod.POOL_POLL_SECONDS}


def test_never_ready_handle_still_sees_the_cancel():
    transport = _Transport()
    cancel = CancelToken()
    _later(0.05, cancel.cancel, "client went away")
    with pytest.raises(OperationCancelledError, match="client went away"):
        run_batch_healing(transport, _double, [1, 2], timeout=None, backend="fake", cancel=cancel)
    assert transport._abandoned


def test_never_ready_handle_still_sees_the_dead_worker():
    transport = _Transport()
    stuck = transport.pool

    def kill_a_worker():
        stuck._pool[0].exitcode = -9

    _later(0.05, kill_a_worker)
    results = run_batch_healing(transport, _double, [1, 2], timeout=None, backend="fake")
    assert results == [2, 4]  # re-dispatched on the respawned pool
    assert transport.pool_respawns == 1 and transport.pool is not stuck
