"""Warm per-worker state for the worker agents.

A worker agent (:func:`repro.mrnet.tcp.run_worker_agent`) pays its
import/startup cost once; the one thing a leaf task needs repeatedly —
a reusable :class:`~repro.gpu.device.SimulatedDevice` per device
configuration — is kept warm here between tasks.  The agent installs the
state (:func:`install_worker_state`) before it dials its coordinator.
Arena segments attach lazily, on a task's first ref resolution
(:func:`repro.runtime.arena.attach_segment`).

The driver process has no worker state (:func:`worker_state` returns
``None`` there), so :func:`acquire_device` transparently degrades to a
fresh device — leaf bodies call it unconditionally and behave
identically under every transport.
"""

from __future__ import annotations

from ..gpu.device import DeviceConfig, SimulatedDevice

__all__ = ["WorkerState", "install_worker_state", "worker_state", "acquire_device"]


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


_state: WorkerState | None = None


def worker_state() -> WorkerState | None:
    """This process's warm state (None outside a worker agent)."""
    return _state


def install_worker_state() -> WorkerState:
    """Make this process a worker: later leaf tasks reuse warm devices."""
    global _state
    _state = WorkerState()
    return _state


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
