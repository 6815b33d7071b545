"""Tests for ShmTransport, make_transport, and pool lifecycle guards."""

from __future__ import annotations

import contextlib
import math
import os
import time

import numpy as np
import pytest

from repro.errors import ConfigError, TransportError
from repro.mrnet import LocalTransport, Network, SumFilter, Topology
from repro.mrnet.transport import TIMED_OUT, _open_pools
from repro.points import PointSet
from repro.runtime import TRANSPORT_NAMES, ShmTransport, as_pointset, make_transport
from repro.runtime.worker import worker_state

pytestmark = pytest.mark.slow  # every test here may spawn a real pool


def _double(x):
    return x * 2


def _sleep_then_echo(x):
    time.sleep(x)
    return x


def _pid_and_tasks(_):
    state = worker_state()
    return os.getpid(), (state.tasks_run if state else None), (
        state.stats()["segments_attached"] if state else 0
    )


def _sum_points(task):
    return float(as_pointset(task).coords.sum())


# ------------------------- protocol parity ---------------------------- #


def test_run_batch_matches_local():
    tasks = list(range(20))
    want = LocalTransport().run_batch(_double, tasks)
    with ShmTransport(n_workers=2) as transport:
        assert transport.run_batch(_double, tasks) == want


def test_empty_batch_no_pool():
    with ShmTransport(n_workers=2) as transport:
        assert transport.run_batch(_double, []) == []
        assert transport._pool is None  # no pool was spawned for nothing


def test_network_collectives_over_shm():
    with ShmTransport(n_workers=2) as transport:
        net = Network(Topology.flat(4), transport)
        results, _ = net.map_leaves(_double, [1, 2, 3, 4])
        assert results == [2, 4, 6, 8]
        total, _ = net.reduce([1, 2, 3, 4], SumFilter())
        assert total == 10


def test_unpicklable_payload_is_transport_error():
    with ShmTransport(n_workers=1) as transport:
        with pytest.raises(TransportError):
            transport.run_batch(_double, [lambda: 1])


@pytest.mark.parametrize("name", TRANSPORT_NAMES)
def test_one_error_contract(name):
    """A task's own exception is re-raised unchanged on every transport;
    a task that cannot be shipped to a worker is a TransportError."""
    with contextlib.closing(make_transport(name, n_workers=1)) as transport:
        with pytest.raises(ValueError, match="math domain error"):
            transport.run_batch(math.sqrt, [4.0, -1.0])
        if name != "local":  # nothing is pickled in-process
            with pytest.raises(TransportError):
                transport.run_batch(_double, [lambda: 1])
        assert transport.run_batch(math.sqrt, [4.0]) == [2.0]


def test_rejects_bad_workers():
    with pytest.raises(TransportError):
        ShmTransport(n_workers=0)


# ------------------------- staging + refs ----------------------------- #


def test_staged_refs_resolve_in_workers():
    rng = np.random.default_rng(3)
    sets = [PointSet.from_coords(rng.normal(size=(200, 2))) for _ in range(6)]
    with ShmTransport(n_workers=2) as transport:
        refs = [transport.stage_pointset(ps) for ps in sets]
        got = transport.run_batch(_sum_points, refs)
    want = [float(ps.coords.sum()) for ps in sets]
    np.testing.assert_allclose(got, want)


def test_late_staged_segments_attach_lazily():
    """Segments staged after the pool spawned still resolve (workers
    attach on first ref resolution, not only via the initializer)."""
    with ShmTransport(n_workers=2) as transport:
        transport.run_batch(_double, [1, 2])  # spawn pool, empty arena
        ps = PointSet.from_coords(np.ones((50, 2)))
        ref = transport.stage_pointset(ps)
        assert transport.run_batch(_sum_points, [ref, ref]) == [100.0, 100.0]


def test_stage_after_close_raises():
    transport = ShmTransport(n_workers=1)
    transport.close()
    with pytest.raises(TransportError):
        transport.stage_array(np.arange(4))
    with pytest.raises(TransportError):
        transport.run_batch(_double, [1])


# ----------------------- persistent warm pool ------------------------- #


def test_pool_persists_across_batches():
    with ShmTransport(n_workers=2) as transport:
        first = transport.run_batch(_pid_and_tasks, range(8))
        pool = transport._pool
        second = transport.run_batch(_pid_and_tasks, range(8))
        assert transport._pool is pool  # same pool, not respawned
    pids = {pid for pid, _, _ in first} | {pid for pid, _, _ in second}
    assert len(pids) <= 2  # every task ran on one of the two pool workers
    assert all(tasks is not None for _, tasks, _ in first)  # warm state exists


def test_worker_state_absent_in_driver():
    assert worker_state() is None


# --------------------------- timeouts --------------------------------- #


def test_timeout_returns_sentinel_and_close_terminates():
    transport = ShmTransport(n_workers=2)
    try:
        # Warm the pool first: spawn latency must not eat the deadline.
        transport.run_batch(_double, [1, 2])
        results = transport.run_batch(
            _sleep_then_echo, [0.0, 30.0], timeout=1.5
        )
        assert results[0] == 0.0
        assert results[1] is TIMED_OUT
        assert transport._abandoned
    finally:
        t0 = time.perf_counter()
        transport.close()  # must terminate, not wait out the sleeper
        assert time.perf_counter() - t0 < 10.0
    transport.close()  # and stay idempotent after that


# --------------------------- lifecycle -------------------------------- #


def test_close_is_idempotent_and_unlinks():
    transport = ShmTransport(n_workers=1)
    transport.stage_array(np.arange(100))
    names = transport.arena.segment_names
    transport.run_batch(_double, [1])
    transport.close()
    transport.close()
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


def test_atexit_guard_tracks_open_pools():
    transport = ShmTransport(n_workers=1)
    transport.run_batch(_double, [1])
    assert transport in _open_pools
    transport.close()
    assert transport not in _open_pools


def test_process_transport_guard_and_double_close():
    """The pool transport deregisters from the atexit guard on close."""
    transport = ShmTransport(n_workers=1)
    assert transport.run_batch(_double, [2, 3]) == [4, 6]
    assert transport in _open_pools
    transport.close()
    assert transport not in _open_pools
    transport.close()  # idempotent


def test_process_transport_close_after_timeout():
    """A deadline missed on a cold pool: close() still terminates."""
    transport = ShmTransport(n_workers=2)
    try:
        results = transport.run_batch(
            _sleep_then_echo, [0.0, 30.0], timeout=0.3
        )
        assert results[1] is TIMED_OUT
    finally:
        t0 = time.perf_counter()
        transport.close()
        assert time.perf_counter() - t0 < 10.0
    transport.close()


# ------------------------- make_transport ----------------------------- #


def test_make_transport_names():
    t = make_transport("local")
    assert isinstance(t, LocalTransport)
    t = make_transport("shm", n_workers=1)
    assert isinstance(t, ShmTransport)
    t.close()


def test_make_transport_unknown_name():
    with pytest.raises(ConfigError):
        make_transport("carrier-pigeon")
    with pytest.raises(ConfigError, match="'local', 'shm', 'tcp'"):
        make_transport("process")
