"""TcpTransport end to end: dispatch, deadlines, worker death and
re-dispatch, quarantine, graceful degradation, injected network faults,
and label parity of chaos runs through the real pipeline."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.errors import PoisonTaskWarning, TransportError
from repro.mrnet.network import _guarded_apply
from repro.mrnet.tcp import TcpTransport
from repro.resilience import ChaosRunner, FaultPlan, FaultSpec
from repro.telemetry.metrics import Metrics

pytestmark = pytest.mark.slow

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def transport():
    t = TcpTransport(2, connect_wait=20.0)
    yield t
    t.close()


def _spec_dict(**overrides) -> dict:
    base = dict(node=0, phase="*", attempt=0)
    base.update(overrides)
    return FaultSpec(**base).as_dict()


# ------------------------------ dispatch ------------------------------ #


def test_run_batch_basic(transport):
    assert transport.run_batch(abs, [-3, 1, -2, 0, 9]) == [3, 1, 2, 0, 9]


def test_empty_batch_is_free():
    t = TcpTransport(1, spawn_agents=False)
    try:
        assert t.run_batch(abs, []) == []
        assert t._listener is None  # nothing was even started
    finally:
        t.close()


def test_worker_exception_propagates(transport):
    import math

    with pytest.raises(ValueError):
        transport.run_batch(math.sqrt, [4.0, -1.0])


def test_transport_reusable_across_batches(transport):
    assert transport.run_batch(abs, [-1]) == [1]
    assert transport.run_batch(len, ["ab", "abc"]) == [2, 3]


def test_closed_transport_rejects_work():
    t = TcpTransport(1, spawn_agents=False)
    t.close()
    with pytest.raises(TransportError):
        t.run_batch(abs, [-1])


def test_timeout_fills_timed_out_sentinel(transport):
    from repro.mrnet.transport import TIMED_OUT

    out = transport.run_batch(time.sleep, [0.0, 5.0], timeout=0.4)
    assert out[0] is None
    assert out[1] is TIMED_OUT
    # The shed worker reconnects/respawns; later batches still work.
    assert transport.run_batch(abs, [-4, -5]) == [4, 5]


def test_telemetry_instruments():
    metrics = Metrics()
    with TcpTransport(1, connect_wait=20.0, metrics=metrics) as t:
        t.run_batch(abs, [-1, -2, -3])
    assert metrics.counter("tcp.bytes_sent").value > 0
    assert metrics.counter("tcp.bytes_received").value > 0
    assert metrics.counter("tcp.connections").value >= 1
    assert metrics.quantile("tcp.rtt_seconds").count == 3


# ------------------------- death and recovery ------------------------- #


def test_sigkilled_agent_tasks_redispatched():
    metrics = Metrics()
    with TcpTransport(2, connect_wait=20.0, metrics=metrics) as t:
        t.run_batch(abs, [-1])  # ensure agents are connected
        box = {}

        def _go():
            box["out"] = t.run_batch(time.sleep, [0.6] * 4)

        worker = threading.Thread(target=_go)
        worker.start()
        time.sleep(0.25)
        t._agents[0].kill()  # SIGKILL one agent mid-round
        worker.join(timeout=30.0)
        assert box["out"] == [None] * 4
    assert metrics.counter("runtime.redispatched_tasks").value >= 1
    assert metrics.counter("runtime.pool_respawns").value >= 1


def test_kill_fault_quarantines_after_repeated_deaths(transport):
    # A kill fault SIGKILLs every agent that hosts the task; after
    # POISON_TASK_DEATHS losses the task runs in-process in the driver,
    # where the kill downgrades to a no-op and the work completes.
    task = (abs, -3, _spec_dict(kind="kill", permanent=True), None)
    with pytest.warns(PoisonTaskWarning):
        out = transport.run_batch(_guarded_apply, [task])
    assert out[0][0] == "ok"
    assert out[0][1] == 3
    assert transport.quarantined_tasks == 1


def test_degrades_to_in_process_when_no_workers_connect():
    with TcpTransport(1, spawn_agents=False, connect_wait=0.3) as t:
        with pytest.warns(PoisonTaskWarning, match="in-process"):
            out = t.run_batch(abs, [-1, -2, -3])
    assert out == [1, 2, 3]


# --------------------- injected network faults ------------------------ #


def test_injected_disconnect_recovers():
    metrics = Metrics()
    with TcpTransport(2, connect_wait=20.0, metrics=metrics) as t:
        tasks = [
            (abs, -1, _spec_dict(kind="disconnect"), None),
            (abs, -2, None, None),
        ]
        out = t.run_batch(_guarded_apply, tasks)
        # The batch can finish on the surviving worker before the severed
        # agent dials back in; give it a moment to complete the reconnect.
        deadline = time.monotonic() + 10.0
        while (metrics.counter("tcp.reconnects").value < 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
    assert [m[1] for m in out] == [1, 2]
    assert metrics.counter("tcp.injected.disconnect").value == 1
    # The severed agent dialed back in.
    assert metrics.counter("tcp.reconnects").value >= 1


def test_injected_drop_resends():
    metrics = Metrics()
    with TcpTransport(1, connect_wait=20.0, metrics=metrics) as t:
        out = t.run_batch(
            _guarded_apply, [(abs, -7, _spec_dict(kind="drop"), None)]
        )
    assert out[0][1] == 7
    assert metrics.counter("tcp.injected.drop").value == 1


def test_injected_netdelay_stalls_then_completes():
    metrics = Metrics()
    with TcpTransport(1, connect_wait=20.0, metrics=metrics) as t:
        spec = _spec_dict(kind="netdelay", delay_seconds=0.2)
        t0 = time.monotonic()
        out = t.run_batch(_guarded_apply, [(abs, -7, spec, None)])
        elapsed = time.monotonic() - t0
    assert out[0][1] == 7
    assert elapsed >= 0.2
    assert metrics.counter("tcp.injected.netdelay").value == 1


# --------------------------- worker agent ----------------------------- #


def test_external_agent_rejected_on_fingerprint_mismatch():
    with TcpTransport(
        1, spawn_agents=False, connect_wait=0.1, fingerprint="want-this"
    ) as t:
        t._ensure_listening()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"127.0.0.1:{t.port}",
                "--fingerprint", "have-that",
            ],
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
            capture_output=True,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 1
    assert "rejected" in proc.stderr


def test_agent_gives_up_after_reconnect_budget():
    # Nothing is listening on this port; the agent must exit, not spin.
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", "127.0.0.1:1",
            "--max-reconnects", "2",
        ],
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "gave up" in proc.stderr


_COORDINATOR = """
import sys, time
from repro.mrnet.tcp import TcpTransport
t = TcpTransport(2, connect_wait=30.0)
t.run_batch(abs, [-1, -2, -3, -4])
print(*(a.pid for a in t._agents), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_self_spawned_agents_exit_with_a_sigkilled_coordinator():
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR],
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        agents = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(agents) == 2 and all(_running(pid) for pid in agents)
    finally:
        coordinator.kill()
        coordinator.wait()
        coordinator.stdout.close()
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in agents) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in agents if _running(pid)]


# ----------------------- pipeline + chaos parity ---------------------- #


def _tcp_config(**overrides) -> MrScanConfig:
    base = dict(
        eps=0.25, minpts=8, n_leaves=8, fanout=2,
        max_retries=2, backoff_base=0.0, transport="tcp",
        transport_workers=2,
    )
    base.update(overrides)
    return MrScanConfig(**base)


def test_pipeline_labels_match_local(blobs_with_noise):
    config = _tcp_config()
    baseline = run_pipeline(
        blobs_with_noise, MrScanConfig(eps=0.25, minpts=8, n_leaves=8, fanout=2)
    )
    result = run_pipeline(blobs_with_noise, config)
    assert np.array_equal(result.labels, baseline.labels)
    assert np.array_equal(result.core_mask, baseline.core_mask)


@pytest.mark.chaos
def test_chaos_network_faults_under_tcp(blobs_with_noise):
    """Seeded disconnect/drop/netdelay (plus a kill) at the framing layer:
    the run completes and labels match the fault-free baseline."""
    runner = ChaosRunner(blobs_with_noise, _tcp_config())
    plan = FaultPlan(
        faults=(
            FaultSpec(node=7, phase="cluster", kind="disconnect"),
            FaultSpec(node=8, phase="cluster", kind="drop"),
            FaultSpec(node=9, phase="*", kind="netdelay", delay_seconds=0.05),
            FaultSpec(node=10, phase="cluster", kind="kill"),
        ),
        seed=0,
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match


@pytest.mark.chaos
def test_chaos_seeded_net_plan_under_tcp(blobs_with_noise):
    runner = ChaosRunner(blobs_with_noise, _tcp_config())
    plan = FaultPlan.seeded(
        101,
        nodes=list(range(7, 15)),
        phases=("cluster", "merge"),
        kinds=("disconnect", "drop", "netdelay"),
        n_faults=4,
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match
