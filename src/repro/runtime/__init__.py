"""repro.runtime — the shared-memory zero-copy data plane.

The paper's MRNet tree moves partitions between real processes over the
network; this reproduction either stays in-process (``local``), ships
pickled tasks to socket-framed worker agents (``tcp``), or —
``repro.runtime`` — runs the same agents on one host over a **data
plane** that stages the dataset and per-partition slices once into a
:class:`ShmArena` (POSIX shared memory), ships ~100-byte
:class:`ShmArrayRef` / :class:`PointSetRef` handles instead of arrays
(:class:`ShmTransport`), and lets agents keep a reusable simulated
device between tasks.

Layers:

* :mod:`~repro.runtime.arena` — segments, refs, refcounted lifecycle
  (``unlink`` on close, ``atexit`` sweep for chaos-killed runs);
* :mod:`~repro.runtime.worker` — warm per-agent state
  (:func:`acquire_device`);
* :mod:`~repro.runtime.executor` — :class:`ShmTransport`, the tcp
  agent runtime plus the arena, so Network retries, preemptive timeouts
  and failover work unchanged; :data:`TRANSPORT_NAMES` and
  :func:`make_transport`.
"""

from .arena import (
    SEGMENT_PREFIX,
    PointSetRef,
    ShmArena,
    ShmArrayRef,
    active_segment_names,
    as_pointset,
    attach_segment,
)
from .executor import TRANSPORT_NAMES, ShmTransport, make_transport
from .worker import WorkerState, acquire_device, worker_state

__all__ = [
    "SEGMENT_PREFIX",
    "PointSetRef",
    "ShmArena",
    "ShmArrayRef",
    "ShmTransport",
    "TRANSPORT_NAMES",
    "WorkerState",
    "acquire_device",
    "active_segment_names",
    "as_pointset",
    "attach_segment",
    "make_transport",
    "worker_state",
]
