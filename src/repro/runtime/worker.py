"""Warm per-worker state for the persistent executor.

A spawn worker pays its import/startup cost once; everything else a leaf
task needs repeatedly — the attached arena segments and a reusable
:class:`~repro.gpu.device.SimulatedDevice` per device configuration — is
kept warm here between batches.  The pool initializer
(:func:`init_worker`) installs the state and pre-attaches the arena
segments known at spawn time; segments staged later attach lazily on
first ref resolution.

The driver process has no worker state (:func:`worker_state` returns
``None`` there), so :func:`acquire_device` transparently degrades to a
fresh device — leaf bodies call it unconditionally and behave
identically under every transport.

A worker exits as soon as the driver that spawned it dies.  A worker
busy on a task when its driver is SIGKILLed would otherwise live on
until the task ends (for good, if it hangs), and with it the driver's
``resource_tracker`` pipe, whose end-of-file is what makes the tracker
unlink the arena segments the dead driver never could.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
from multiprocessing.connection import wait
from typing import Sequence

from ..gpu.device import DeviceConfig, SimulatedDevice
from .arena import attach_count, attach_segment, detach_all

__all__ = ["WorkerState", "init_worker", "worker_state", "acquire_device"]


class WorkerState:
    """Process-local cache of reusable leaf-task resources."""

    def __init__(self) -> None:
        #: One simulated device per distinct configuration, reused (and
        #: reset) across every task this worker executes.
        self.devices: dict[DeviceConfig, SimulatedDevice] = {}
        self.tasks_run = 0

    def device(self, config: DeviceConfig) -> SimulatedDevice:
        dev = self.devices.get(config)
        if dev is None:
            dev = self.devices[config] = SimulatedDevice(config)
        return dev

    def stats(self) -> dict[str, int]:
        return {
            "tasks_run": self.tasks_run,
            "devices_cached": len(self.devices),
            "segments_attached": attach_count(),
        }


_state: WorkerState | None = None


def worker_state() -> WorkerState | None:
    """This process's warm state (None outside a pool worker)."""
    return _state


def _exit_with(parent: mp.process.BaseProcess) -> None:
    wait([parent.sentinel])
    os._exit(0)


def init_worker(segment_names: Sequence[str] = ()) -> None:
    """Pool initializer: build the warm state, pre-attach the arena, and
    watch the driver (the worker exits when it dies)."""
    global _state
    _state = WorkerState()
    for name in segment_names:
        attach_segment(name)
    atexit.register(detach_all)
    parent = mp.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent,), name="driver-watch", daemon=True
        ).start()


def acquire_device(
    config: DeviceConfig, *, tracer=None, trace_tid: int = 0
) -> SimulatedDevice:
    """A device for one leaf task: warm (reset) in a worker, fresh
    elsewhere.  The warm device's tracer/track are re-pointed at the
    current task so telemetry is indistinguishable from a fresh device.
    """
    if _state is None:
        return SimulatedDevice(config, tracer=tracer, trace_tid=trace_tid)
    dev = _state.device(config)
    dev.reset()
    from ..telemetry.tracer import NOOP_TRACER

    dev.tracer = tracer or NOOP_TRACER
    dev.trace_tid = int(trace_tid)
    _state.tasks_run += 1
    return dev
