"""Self-healing worker pools: SIGKILL recovery, quarantine, no shm leaks.

A worker dying mid-task (OOM-killed, segfault, hard kill) used to hang
``Pool.map`` forever — the in-flight result never arrives.  The healing
dispatch loop (:func:`repro.mrnet.transport.run_batch_healing`) detects
the death, respawns the pool, re-dispatches the lost tasks, and
quarantines tasks that keep killing their workers to in-process
execution with a typed warning.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.errors import PoisonTaskWarning
from repro.core import mrscan
from repro.mrnet import ProcessTransport
from repro.points import PointSet
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import ShmTransport
from shm_segments import own_segments

pytestmark = pytest.mark.slow  # every test here spawns a real pool


def _square(x):
    return x * x


def _die_once_then_square(arg):
    """SIGKILL the hosting worker on first sight of the flag; then work."""
    flag, value = arg
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _die_in_workers_forever(value):
    """A poison task: kills every pool worker it lands on; only an
    in-process (driver) execution can complete it."""
    if mp.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


@pytest.mark.parametrize("transport_cls", [ShmTransport, ProcessTransport])
def test_worker_sigkill_mid_round_respawns_and_completes(tmp_path, transport_cls):
    flag = str(tmp_path / "died-once")
    tasks = [(flag, v) for v in range(6)]
    with transport_cls(n_workers=2) as transport:
        transport.run_batch(_square, list(range(4)))  # warm the pool
        warm_pids = set(p.pid for p in transport._pool._pool)
        results = transport.run_batch(_die_once_then_square, tasks)
        assert results == [v * v for _, v in tasks]
        assert transport.pool_respawns >= 1
        assert transport.quarantined_tasks == 0
        # The pool is alive and usable after healing, with fresh workers.
        assert transport.run_batch(_square, [9]) == [81]
        new_pids = set(p.pid for p in transport._pool._pool)
        assert new_pids != warm_pids


@pytest.mark.parametrize("transport_cls", [ShmTransport, ProcessTransport])
def test_poison_task_is_quarantined_with_warning(transport_cls):
    with transport_cls(n_workers=2) as transport:
        with pytest.warns(PoisonTaskWarning):
            results = transport.run_batch(_die_in_workers_forever, [3, 5])
        assert results == [9, 25]
        assert transport.quarantined_tasks == 2
        assert transport.pool_respawns >= 1


def test_healed_shm_workers_reattach_staged_segments(tmp_path):
    """Segments staged before a pool death must be readable by the
    respawned workers (re-attachment happens at respawn time)."""
    rng = np.random.default_rng(0)
    points = PointSet.from_coords(rng.random((500, 2)))
    flag = str(tmp_path / "died-once")
    with ShmTransport(n_workers=2) as transport:
        ref = transport.stage_pointset(points)
        transport.run_batch(_square, [1, 2])  # warm pool, attach segments
        results = transport.run_batch(
            _sum_staged_after_death, [(flag, ref)] * 3
        )
        expected = float(points.coords.sum())
        assert all(abs(r - expected) < 1e-6 for r in results)
        assert transport.pool_respawns >= 1


def _sum_staged_after_death(arg):
    flag, ref = arg
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.runtime import as_pointset

    return float(as_pointset(ref).coords.sum())


def test_no_dev_shm_leaks_after_healing(tmp_path):
    before = own_segments()
    rng = np.random.default_rng(1)
    points = PointSet.from_coords(rng.random((200, 2)))
    flag = str(tmp_path / "died-once")
    with ShmTransport(n_workers=2) as transport:
        transport.stage_pointset(points)
        transport.run_batch(_die_once_then_square, [(flag, 4)])
    assert own_segments() <= before


def _blob_points(n=400, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4.0, size=(4, 2))
    which = rng.integers(0, 4, size=n)
    return PointSet.from_coords(
        centers[which] + rng.normal(0.0, 0.08, size=(n, 2))
    )


def test_pipeline_kill_fault_heals_and_matches_baseline():
    """A 'kill' fault SIGKILLs the worker hosting a clustering leaf; the
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
