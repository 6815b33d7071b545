"""repro.runtime — the shared-memory zero-copy data plane.

The paper's MRNet tree moves partitions between real processes over the
network; this reproduction either stays in-process (``local``), ships
pickled tasks to socket-framed agents (``tcp``), or — ``repro.runtime`` —
runs on one host over a **data plane** that stages the dataset and
per-partition slices once into a :class:`ShmArena`
(``multiprocessing.shared_memory``), ships ~100-byte
:class:`ShmArrayRef` / :class:`PointSetRef` handles instead of arrays,
and executes leaf work on a persistent warm spawn pool
(:class:`ShmTransport`) whose workers keep the arena attached and a
reusable simulated device between batches.

Layers:

* :mod:`~repro.runtime.arena` — segments, refs, refcounted lifecycle
  (``unlink`` on close, ``atexit`` sweep for chaos-killed runs);
* :mod:`~repro.runtime.worker` — warm per-worker state
  (:func:`acquire_device`, pre-attached segments);
* :mod:`~repro.runtime.executor` — :class:`ShmTransport`, the spawn
  pool implementing the :class:`~repro.mrnet.transport.Transport`
  protocol, so Network retries, preemptive timeouts and failover work
  unchanged; :data:`TRANSPORT_NAMES` and :func:`make_transport`.
"""

from .arena import (
    SEGMENT_PREFIX,
    PointSetRef,
    ShmArena,
    ShmArrayRef,
    active_segment_names,
    as_pointset,
    attach_count,
    attach_segment,
    detach_all,
)
from .executor import (
    TRANSPORT_NAMES,
    BorrowedTransport,
    ShmTransport,
    borrow_transport,
    make_transport,
)
from .worker import WorkerState, acquire_device, init_worker, worker_state

__all__ = [
    "BorrowedTransport",
    "borrow_transport",
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
    "attach_count",
    "attach_segment",
    "detach_all",
    "init_worker",
    "make_transport",
    "worker_state",
]
