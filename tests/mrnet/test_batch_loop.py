"""``run_batch_healing``'s policy, driven through a fake channel.

No worker process or socket is involved: a fake channel whose results
land on an ``Event`` exercises the wait, deadline, cancel, worker-death,
quarantine, respawn-budget, fallback and resend rules the pool and tcp
transports share.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.mrnet.transport as transport_mod
from repro.errors import OperationCancelledError, PoisonTaskWarning, TransportError
from repro.mrnet.transport import (
    POISON_TASK_DEATHS,
    TIMED_OUT,
    run_batch_healing,
)
from repro.resilience import CancelToken
from repro.runtime import ShmTransport
from repro.telemetry.metrics import Metrics
from repro.telemetry.tracer import NOOP_TRACER


class _Channel:
    """The channel a backend implements, with results released by hand.

    ``instant`` makes every send complete at once; otherwise a sent task
    completes when :meth:`finish` is called.  ``kill_next`` loses every
    in-flight task on the next ``lost()``; ``refuse_first`` makes the
    first send of those tasks fail, as an injected ``drop`` does.
    """

    backend = "fake"
    n_workers = 2

    def __init__(self, *, instant=False, capacity=True, connect_wait=0.0) -> None:
        self.instant = instant
        self.capacity = capacity
        self.connect_wait = connect_wait
        self.tracer = NOOP_TRACER
        self.metrics = Metrics()
        self.pool_respawns = self.quarantined_tasks = 0
        self.sent: list[int] = []
        self.refuse_first: set[int] = set()
        self.in_flight: dict[int, object] = {}
        self.done: dict[int, object] = {}
        self.landed = threading.Event()
        self.kill_next = False
        self.deaths_per_respawn = 0
        self.abandoned: list[list[int]] = []
        self.wait_timeouts: list[float] = []

    # -- the channel ---------------------------------------------------- #

    def send(self, i, fn, task) -> bool:
        if not self.capacity:
            return False
        if i in self.refuse_first:
            self.refuse_first.discard(i)
            return False
        self.sent.append(i)
        self.in_flight[i] = (fn, task)
        if self.instant:
            self.finish(i)
        return True

    def poll(self):
        done, self.done = self.done, {}
        for i, value in done.items():
            yield i, True, value

    def lost(self) -> list[int]:
        if not self.kill_next:
            return []
        self.kill_next = False
        self.deaths_per_respawn += 1
        lost, self.in_flight = sorted(self.in_flight), {}
        return lost

    def respawn(self) -> int:
        revived, self.deaths_per_respawn = self.deaths_per_respawn, 0
        return revived

    def abandon(self, indices) -> None:
        self.abandoned.append(list(indices))

    def has_capacity(self) -> bool:
        return self.capacity

    def wait(self, timeout) -> None:
        self.wait_timeouts.append(timeout)
        self.landed.wait(timeout)
        self.landed.clear()

    # -- test controls -------------------------------------------------- #

    def finish(self, i, value=None) -> None:
        fn, task = self.in_flight.pop(i)
        self.done[i] = fn(task) if value is None else value
        self.landed.set()


def _double(x):
    return 2 * x


def _later(seconds: float, fn, *args) -> threading.Timer:
    timer = threading.Timer(seconds, fn, args)
    timer.daemon = True
    timer.start()
    return timer


def test_batch_returns_when_its_last_result_lands(monkeypatch):
    """With the poll interval stretched to 30 s a sleeping loop would sit
    it out; an engine waiting on the channel is woken by the result."""
    monkeypatch.setattr(transport_mod, "POLL_SECONDS", 30.0)
    channel = _Channel()

    def finish_all():
        for i in sorted(channel.in_flight):
            channel.finish(i, 10 + i)

    _later(0.05, finish_all)
    start = time.monotonic()
    results = run_batch_healing(channel, _double, [1, 2, 3])
    assert results == [10, 11, 12]
    assert time.monotonic() - start < 10.0
    assert channel.wait_timeouts and set(channel.wait_timeouts) == {30.0}


def test_pool_channel_waits_on_its_oldest_handle():
    """The pool's ``wait`` sleeps on the oldest pending handle, so the
    batch returns when its results land rather than on the clock."""

    class _Handle:
        def __init__(self) -> None:
            self.wait_timeouts: list[float] = []

        def wait(self, timeout=None) -> None:
            self.wait_timeouts.append(timeout)

    pool = ShmTransport(n_workers=1)  # no pool is spawned here
    handles = {i: _Handle() for i in (3, 1, 2)}
    pool._pending = dict(handles)
    pool.wait(0.5)
    assert handles[1].wait_timeouts == [0.5]
    assert not handles[2].wait_timeouts and not handles[3].wait_timeouts


def test_never_ready_handle_still_meets_the_deadline():
    channel = _Channel()
    results = run_batch_healing(channel, _double, [1, 2], timeout=0.05)
    assert results == [TIMED_OUT, TIMED_OUT]
    assert channel.abandoned == [[0, 1]]
    waits = channel.wait_timeouts
    assert len(waits) > 1 and set(waits) == {transport_mod.POLL_SECONDS}


def test_never_ready_handle_still_sees_the_cancel():
    channel = _Channel()
    cancel = CancelToken()
    _later(0.05, cancel.cancel, "client went away")
    with pytest.raises(OperationCancelledError, match="client went away"):
        run_batch_healing(channel, _double, [1, 2], cancel=cancel)
    assert channel.abandoned == [[0, 1]]


def test_never_ready_handle_still_sees_the_dead_worker():
    channel = _Channel()

    def kill_a_worker():
        channel.instant = True  # the respawned workers answer at once
        channel.kill_next = True

    _later(0.05, kill_a_worker)
    results = run_batch_healing(channel, _double, [1, 2])
    assert results == [2, 4]  # re-dispatched after the respawn
    assert channel.sent == [0, 1, 0, 1]
    assert channel.pool_respawns == 1
    assert channel.metrics.counter("runtime.pool_respawns").value == 1
    assert channel.metrics.counter("runtime.redispatched_tasks").value == 2


def test_task_that_keeps_killing_workers_is_quarantined():
    channel = _Channel()

    def send(i, fn, task, _send=channel.send):
        channel.kill_next = True
        return _send(i, fn, task)

    channel.send = send
    with pytest.warns(PoisonTaskWarning, match="quarantined"):
        results = run_batch_healing(channel, _double, [5])
    assert results == [10]  # ran in-process in the driver
    assert channel.sent == [0] * POISON_TASK_DEATHS
    assert channel.quarantined_tasks == 1
    assert channel.metrics.counter("runtime.poison_tasks").value == 1


def test_exhausted_respawn_budget_raises():
    """Workers that die as fast as they are respawned (say, agents that
    crash on start-up) exhaust the per-batch budget."""
    channel = _Channel(capacity=False)
    channel.has_capacity = lambda: True  # a fresh worker is always coming
    channel.respawn = lambda: 1
    with pytest.raises(TransportError, match="giving up"):
        run_batch_healing(channel, _double, [1, 2])
    assert channel.pool_respawns == 2 * channel.n_workers + 5


def test_falls_back_in_process_without_capacity():
    channel = _Channel(capacity=False, connect_wait=0.05)
    with pytest.warns(PoisonTaskWarning, match="in-process"):
        results = run_batch_healing(channel, _double, [1, 2, 3])
    assert results == [2, 4, 6]
    assert channel.sent == []
    assert channel.metrics.counter("runtime.fallback_tasks").value == 3


def test_refused_send_is_resent_without_counting_a_death():
    """A ``drop``-style send that fails is retried on a later pass; it
    is not a worker death and quarantines nothing."""
    channel = _Channel(instant=True)
    channel.refuse_first = {1}
    assert run_batch_healing(channel, _double, [1, 2, 3]) == [2, 4, 6]
    assert channel.sent == [0, 2, 1]
    assert channel.pool_respawns == channel.quarantined_tasks == 0
    assert channel.metrics.counter("runtime.redispatched_tasks").value == 0


def test_task_exception_is_reraised_unchanged():
    channel = _Channel()
    boom = ValueError("the task's own error")
    channel.poll = lambda: iter([(0, False, boom)])
    with pytest.raises(ValueError) as info:
        run_batch_healing(channel, _double, [1])
    assert info.value is boom
