"""Self-healing shm agents: SIGKILL recovery, quarantine, no shm leaks,
and the batches that used to be able to wedge.

A worker dying mid-task (OOM-killed, segfault, hard kill) must not hang
the batch — its in-flight result never arrives.  The healing dispatch
loop (:func:`repro.mrnet.transport.run_batch_healing`) detects the death,
respawns the agent, re-dispatches the lost tasks, and quarantines tasks
that keep killing their workers to in-process execution with a typed
warning.  Agents import task functions by module path, so every task
here is a builtin, a stdlib callable or ``_guarded_apply`` with a
``kill`` fault.
"""

from __future__ import annotations

import operator
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import mrscan
from repro.errors import PoisonTaskWarning, TransportError
from repro.mrnet.network import _guarded_apply
from repro.mrnet.tcp import TcpTransport
from repro.points import PointSet
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import ShmTransport
from shm_segments import own_segments

pytestmark = pytest.mark.slow  # every test here spawns real agents

_materialize = operator.methodcaller("materialize")


def _kill_spec() -> dict:
    return FaultSpec(node=0, phase="*", attempt=0, kind="kill", permanent=True).as_dict()


def _agent_pids(transport) -> set[int]:
    return {p.pid for p in transport._agents}


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _live_descendants(root: int) -> dict[int, str]:
    """pid -> command line of every live process below ``root``."""
    parent = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, ppid = f.read().rpartition(")")[2].split()[:2]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if state != "Z":
            parent[int(entry)] = int(ppid)
    found: set[int] = set()
    frontier = {root}
    while frontier:
        frontier = {pid for pid, ppid in parent.items() if ppid in frontier} - found
        found |= frontier
    cmdlines = {}
    for pid in found:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdlines[pid] = f.read().replace(b"\0", b" ").decode()
        except FileNotFoundError:
            pass
    return cmdlines


@pytest.mark.parametrize("transport_cls", [ShmTransport])
def test_worker_sigkill_mid_round_respawns_and_completes(transport_cls):
    with transport_cls(n_workers=2) as transport:
        transport.run_batch(abs, [-1, -2, -3, -4])  # warm the agents
        warm_pids = _agent_pids(transport)
        box = {}
        worker = threading.Thread(
            target=lambda: box.setdefault("out", transport.run_batch(time.sleep, [0.6] * 4))
        )
        worker.start()
        time.sleep(0.25)
        transport._agents[0].kill()  # SIGKILL one agent mid-round
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert box["out"] == [None] * 4
        assert transport.pool_respawns >= 1
        assert transport.quarantined_tasks == 0
        # The agents are usable after healing, one of them fresh.
        assert transport.run_batch(abs, [-9]) == [9]
        assert _agent_pids(transport) != warm_pids


@pytest.mark.parametrize("transport_cls", [ShmTransport])
def test_poison_task_is_quarantined_with_warning(transport_cls):
    with transport_cls(n_workers=2) as transport:
        tasks = [(abs, -3, _kill_spec(), None), (abs, -5, _kill_spec(), None)]
        with pytest.warns(PoisonTaskWarning):
            results = transport.run_batch(_guarded_apply, tasks)
        assert [r[1] for r in results] == [3, 5]
        assert transport.quarantined_tasks == 2
        assert transport.pool_respawns >= 1


def test_healed_shm_workers_reattach_staged_segments():
    """Segments staged before every agent died are readable by the
    respawned agents (they attach on their first ref)."""
    rng = np.random.default_rng(0)
    points = PointSet.from_coords(rng.random((500, 2)))
    with ShmTransport(n_workers=2) as transport:
        ref = transport.stage_pointset(points)
        transport.run_batch(_materialize, [ref, ref])  # warm, attach segments
        for proc in transport._agents:
            proc.kill()
            proc.wait()
        results = transport.run_batch(_materialize, [ref] * 3)
        expected = float(points.coords.sum())
        assert all(abs(float(r.coords.sum()) - expected) < 1e-6 for r in results)
        assert transport.pool_respawns >= 1


def test_no_dev_shm_leaks_after_healing():
    before = own_segments()
    rng = np.random.default_rng(1)
    points = PointSet.from_coords(rng.random((200, 2)))
    with ShmTransport(n_workers=2) as transport:
        transport.stage_pointset(points)
        with pytest.warns(PoisonTaskWarning):
            transport.run_batch(_guarded_apply, [(abs, -4, _kill_spec(), None)])
    assert own_segments() <= before


def test_killing_an_agent_unlinks_no_live_segment():
    """An agent maps segments without a resource tracker of its own, so
    SIGKILLing it unlinks nothing: every staged segment stays in
    ``/dev/shm`` and the next batch resolves the same refs.  While a
    batch runs, the driver's descendants are its agents plus at most its
    own resource tracker.  Costs about 1.5 s (two agents, one respawn)."""
    rng = np.random.default_rng(2)
    sets = [PointSet.from_coords(rng.random((2000, 2))) for _ in range(4)]
    with ShmTransport(n_workers=2, block_bytes=1 << 16) as transport:
        refs = [transport.stage_pointset(ps) for ps in sets]
        names = transport.arena.segment_names
        assert len(names) >= 2
        # Every agent maps every segment: each reads all four sets.
        transport.run_batch(_materialize, refs * 2)
        box = {}
        batch = threading.Thread(
            target=lambda: box.setdefault("out", transport.run_batch(time.sleep, [1.0] * 2))
        )
        batch.start()
        time.sleep(0.5)
        below = _live_descendants(os.getpid())
        batch.join(timeout=60.0)
        assert not batch.is_alive()
        assert box["out"] == [None, None]
        agents = _agent_pids(transport)
        assert agents <= set(below)
        others = [cmd for pid, cmd in below.items() if pid not in agents]
        assert len(others) <= 1 and all("resource_tracker" in c for c in others)

        victim = transport._agents[0]
        victim.kill()
        victim.wait()
        time.sleep(0.5)  # what a tracker of the agent's would unlink, it has
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}"), name
        again = transport.run_batch(_materialize, refs)
        for got, ps in zip(again, sets):
            np.testing.assert_array_equal(got.coords, ps.coords)


def test_agent_killed_while_reading_a_large_task():
    """Item-21(a) wedge class: an agent SIGKILLed while it reads a task
    bigger than the socket buffers (an 8 MB point set that is not staged,
    so it rides the pickle).  The agent is stopped first so the driver is
    inside the frame's send when the kill lands; the send fails, the task
    is re-sent to the respawned agent, and the batch ends within 30 s.
    Costs about 1 s."""
    points = PointSet.from_coords(np.random.default_rng(3).random((300_000, 2)))
    with ShmTransport(n_workers=1) as transport:
        transport.run_batch(abs, [-1])  # the agent is connected and idle
        agent = transport._agents[0]
        agent.send_signal(signal.SIGSTOP)
        box = {}
        batch = threading.Thread(
            target=lambda: box.setdefault("out", transport.run_batch(len, [points]))
        )
        t0 = time.monotonic()
        batch.start()
        while not transport._inflight and time.monotonic() - t0 < 10.0:
            time.sleep(0.01)
        assert transport._inflight  # the frame is on its way
        time.sleep(0.2)
        agent.kill()
        batch.join(timeout=30.0)
        assert not batch.is_alive(), "batch wedged after the agent died mid-read"
        assert box["out"] == [len(points)]
        assert transport.pool_respawns >= 1
        assert time.monotonic() - t0 < 30.0


def test_send_to_a_stopped_agent_is_given_up_and_requeued():
    """An agent that is alive but never reads (SIGSTOPped) must not hold
    the batch inside the send of a task bigger than the socket buffers
    (an 8 MB point set that is not staged, so it rides the pickle).  After
    ``heartbeat_interval * HEARTBEAT_MISS_LIMIT`` (2 s by default) without
    a byte leaving, the send closes the connection, kills the agent and
    re-queues the task, which the respawned agent runs.  Bound: the batch
    returns within 30 s and the stopped agent is gone.  Costs about 3 s."""
    points = PointSet.from_coords(np.random.default_rng(4).random((300_000, 2)))
    with TcpTransport(n_workers=1) as transport:
        transport.run_batch(abs, [-1])  # the agent is connected and idle
        agent = transport._agents[0]
        agent.send_signal(signal.SIGSTOP)
        box = {}
        batch = threading.Thread(
            target=lambda: box.setdefault("out", transport.run_batch(len, [points]))
        )
        t0 = time.monotonic()
        batch.start()
        try:
            batch.join(timeout=30.0)
            elapsed = time.monotonic() - t0
        finally:
            if agent.poll() is None:  # the deadline did not fire: unwedge
                agent.kill()
                agent.wait()
            batch.join(timeout=30.0)
        assert not batch.is_alive(), "batch wedged in the send to a stopped agent"
        assert elapsed < 30.0
        assert box["out"] == [len(points)]
        assert not _running(agent.pid)
        assert transport.pool_respawns >= 1


def test_agents_dying_at_start_up_end_the_batch(monkeypatch):
    """Item-21(a) wedge class: every agent dies at start-up (here: its
    interpreter cannot find its standard library).  The respawn budget
    ends the batch with a TransportError within 30 s instead of
    respawning forever.  Costs about 0.5 s."""
    monkeypatch.setenv("PYTHONHOME", "/nonexistent")  # agents inherit it
    with ShmTransport(n_workers=2) as transport:
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="died"):
            transport.run_batch(abs, [-1, -2])
        assert time.monotonic() - t0 < 30.0


_KILLED_DRIVER = """
import threading, time
import numpy as np
from repro.runtime import ShmTransport
transport = ShmTransport(n_workers=1)
transport.stage_array(np.arange(10))
print(transport.arena.segment_names[0], flush=True)
threading.Thread(
    target=transport.run_batch, args=(time.sleep, [120]), daemon=True
).start()
while not transport._inflight:
    time.sleep(0.01)
print(*(a.pid for a in transport._agents), flush=True)
time.sleep(120)
"""


def test_sigkilled_driver_leaves_no_segment_behind():
    """A driver SIGKILLed while its agent is busy: the driver's resource
    tracker unlinks what the driver staged, and the agent exits with its
    coordinator rather than after the task."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    driver = subprocess.Popen(
        [sys.executable, "-c", _KILLED_DRIVER], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        segment = f"/dev/shm/{driver.stdout.readline().strip()}"
        agents = [int(pid) for pid in driver.stdout.readline().split()]
        assert agents and os.path.exists(segment)
    finally:
        driver.kill()
        driver.wait()
        driver.stdout.close()
    deadline = time.monotonic() + 30
    while (
        os.path.exists(segment) or any(_running(pid) for pid in agents)
    ) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not os.path.exists(segment)
    assert not any(_running(pid) for pid in agents)


def _blob_points(n=400, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4.0, size=(4, 2))
    which = rng.integers(0, 4, size=n)
    return PointSet.from_coords(
        centers[which] + rng.normal(0.0, 0.08, size=(n, 2))
    )


def test_pipeline_kill_fault_heals_and_matches_baseline():
    """A 'kill' fault SIGKILLs the agent hosting a clustering leaf; the
    transport respawns, the round completes via quarantine (the driver
    re-runs the task in-process, where the kill downgrades to a no-op),
    and the labels match an unfaulted run."""
    points = _blob_points()
    baseline = mrscan(points, 0.15, 5, n_leaves=4)
    plan = FaultPlan(
        faults=(FaultSpec(node=1, phase="cluster", attempt=0, kind="kill"),)
    )
    with ShmTransport(n_workers=2) as transport:
        with pytest.warns(PoisonTaskWarning):
            result = mrscan(
                points,
                0.15,
                5,
                n_leaves=4,
                fault_plan=plan,
                backoff_base=0.0,
                transport=transport,
            )
        assert transport.pool_respawns >= 1
    np.testing.assert_array_equal(result.labels, baseline.labels)
    np.testing.assert_array_equal(result.core_mask, baseline.core_mask)


def test_kill_fault_is_noop_under_local_transport():
    """The same plan is safe under the in-process transport: a real
    SIGKILL would take the driver down, so the fault downgrades."""
    points = _blob_points()
    baseline = mrscan(points, 0.15, 5, n_leaves=4)
    plan = FaultPlan(
        faults=(FaultSpec(node=1, phase="cluster", attempt=0, kind="kill"),)
    )
    result = mrscan(
        points, 0.15, 5, n_leaves=4, fault_plan=plan, transport="local"
    )
    np.testing.assert_array_equal(result.labels, baseline.labels)
