"""The shared-memory transport: :class:`ShmTransport`.

:class:`ShmTransport` is the worker-agent runtime of
:class:`~repro.mrnet.tcp.TcpTransport` — ``n_workers`` self-spawned
``python -m repro worker`` agents on ``127.0.0.1``, one socket each,
every batch through the healing engine
(:func:`~repro.mrnet.transport.run_batch_healing`) — plus a
shared-memory arena:

* tasks carry :class:`~repro.runtime.arena.ShmArrayRef` /
  :class:`~repro.runtime.arena.PointSetRef` handles staged through
  :meth:`~ShmTransport.stage_array` / :meth:`~ShmTransport.stage_pointset`,
  so a batch ships kilobytes of refs instead of the partitions; an agent
  maps a segment on its first ref into it;
* agents keep a reusable simulated device between tasks
  (:mod:`repro.runtime.worker`).

A run handed the transport ends with :meth:`ShmTransport.rewind`,
so the next run restages into the same pages.  Closing the transport
stops the agents *and* closes the arena (unlinking every staged
segment); an ``atexit`` guard covers abandoned instances so interrupted
runs cannot leak ``/dev/shm`` entries or agent processes.  When
``/dev/shm`` itself fills up, staging raises
:class:`~repro.errors.ArenaFullError`; :func:`stage_pointset_safe` turns
that into a graceful degrade — the point set travels in the task pickle
instead and the run continues.
"""

from __future__ import annotations

import logging
from typing import Any

import numpy as np

from ..errors import ArenaFullError, ConfigError, TransportError
from ..mrnet.tcp import CONNECT_WAIT_SECONDS, TcpTransport
from ..mrnet.transport import LocalTransport
from ..points import PointSet
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .arena import DEFAULT_BLOCK_BYTES, PointSetRef, ShmArena, ShmArrayRef

__all__ = [
    "ShmTransport",
    "make_transport",
    "stage_pointset_safe",
    "TRANSPORT_NAMES",
]

logger = logging.getLogger(__name__)

#: Valid ``MrScanConfig.transport`` / ``--transport`` / ``MRSCAN_TRANSPORT``
#: values.
TRANSPORT_NAMES = ("local", "shm", "tcp")


class ShmTransport(TcpTransport):
    """Self-spawned localhost worker agents over a shared-memory arena.

    The agents, the wire protocol, healing, deadlines and injected
    network faults are :class:`~repro.mrnet.tcp.TcpTransport`'s; the
    listener is always ``127.0.0.1`` on an ephemeral port and ignores the
    ``MRSCAN_TCP_*`` variables, since an arena ref resolves only on this
    host.  A closed transport refuses further work.

    Parameters
    ----------
    n_workers:
        Agents to spawn (default: CPU count).
    metrics:
        Optional :class:`repro.telemetry.Metrics`; staging and dispatch
        feed the ``runtime.*`` instruments.
    block_bytes:
        Size of one arena segment (see :class:`ShmArena`).
    """

    backend = "shm"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        tracer=None,
        metrics=None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        super().__init__(
            n_workers, port=0, spawn_agents=True,
            connect_wait=CONNECT_WAIT_SECONDS, fingerprint="",
            tracer=tracer, metrics=metrics,
        )
        self._arena: ShmArena | None = None
        self._block_bytes = int(block_bytes)
        #: Set once staging has degraded to pickling on ArenaFullError.
        self.stage_degraded = False

    @property
    def arena(self) -> ShmArena:
        """The staging arena (created on first use)."""
        if self._arena is None:
            self._arena = ShmArena(block_bytes=self._block_bytes)
        return self._arena

    @property
    def supports_staging(self) -> bool:
        """Duck-typing hook the pipeline probes before staging."""
        return True

    def stage_array(self, array: np.ndarray) -> ShmArrayRef:
        """Stage one array; see :meth:`ShmArena.stage`."""
        if self.closed:
            raise TransportError("cannot stage through a closed transport")
        ref = self.arena.stage(array)
        self._record_staged(ref.array_nbytes, 1)
        return ref

    def stage_pointset(self, points: PointSet) -> PointSetRef:
        """Stage a point set's three columns; returns the bundle ref."""
        if self.closed:
            raise TransportError("cannot stage through a closed transport")
        ref = self.arena.stage_pointset(points)
        self._record_staged(ref.array_nbytes, 3)
        return ref

    def _record_staged(self, nbytes: int, n_arrays: int) -> None:
        if self.metrics.enabled:
            self.metrics.counter("runtime.bytes_staged").inc(nbytes)
            self.metrics.counter("runtime.arrays_staged").inc(n_arrays)
            self.metrics.gauge("runtime.segments").set(
                len(self.arena.segment_names)
            )

    def rewind(self) -> None:
        """End of a run: the next run stages into the same pages.

        No straggler can read a restaged block: abandoning work (a
        timeout or a cancel) kills the agent that ran it and waits for
        it to exit.
        """
        if self._arena is not None:
            self._arena.rewind()

    def close(self) -> None:
        """Stop the agents and unlink the arena (idempotent)."""
        super().close()
        if self._arena is not None:
            self._arena.close()

    def _reap(self) -> None:
        """atexit path: kill the agents, then unlink the arena."""
        super()._reap()
        if self._arena is not None:
            self._arena.close()


def stage_pointset_safe(transport: Any, points: PointSet) -> Any:
    """Stage ``points`` through the transport's data plane, degrading to
    the point set itself when the arena is full.

    On :class:`~repro.errors.ArenaFullError` (``/dev/shm`` ENOSPC) the
    transport is flagged ``stage_degraded`` and the raw :class:`PointSet`
    is returned — it then rides the task pickle, trading zero-copy for
    survival.  The first
    degrade is logged and counted (``runtime.stage_fallbacks``).
    """
    stage = getattr(transport, "stage_pointset", None)
    if stage is None or getattr(transport, "stage_degraded", False):
        return points
    try:
        return stage(points)
    except ArenaFullError as exc:
        transport.stage_degraded = True
        metrics = getattr(transport, "metrics", NOOP_METRICS)
        if metrics.enabled:
            metrics.counter("runtime.stage_fallbacks").inc()
        getattr(transport, "tracer", NOOP_TRACER).instant(
            "arena.degrade", cat="transport", backend="shm"
        )
        logger.warning(
            "shared-memory arena is full (%s); degrading to pickled "
            "point sets for the rest of the run",
            exc,
        )
        return points


def make_transport(
    name: str,
    *,
    n_workers: int | None = None,
    tracer=None,
    metrics=None,
):
    """Build a transport from its config/CLI name.

    ``local`` — sequential in-process; ``shm`` — self-spawned localhost
    worker agents over a zero-copy arena; ``tcp`` — socket-framed worker
    agents (self-spawned on localhost by default, external via
    ``MRSCAN_TCP_PORT``/``MRSCAN_TCP_SPAWN=0``).
    """
    if name == "local":
        return LocalTransport(tracer=tracer)
    if name == "shm":
        return ShmTransport(n_workers, tracer=tracer, metrics=metrics)
    if name == "tcp":
        return TcpTransport(n_workers, tracer=tracer, metrics=metrics)
    raise ConfigError(
        f"unknown transport {name!r}; expected one of {TRANSPORT_NAMES}"
    )
