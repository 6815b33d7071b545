"""Chaos for serving: worker kill mid-re-cluster, and the overload flood.

The daemon keeps one ShmTransport resident across ingests.  A worker
SIGKILL'd mid-re-cluster must not poison that resident pool or its
arena: the self-healing dispatch recovers the ingest, and the *next*
ingest runs on the same (respawned) pool with the arena intact.

The flood: concurrent ingest streams, query and health pollers and one
stalled client against a daemon with a deliberately tiny ingest queue.
Admission control must shed, never hang, and lose nothing it acked.
"""

from __future__ import annotations

import asyncio
import dataclasses
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.config import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.errors import PoisonTaskWarning
from repro.points import PointSet
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import ShmTransport
from repro.serve.client import ServeClient, ServeOverloadedError, ServeRequestError
from repro.serve.server import ServeServer
from repro.serve.state import ServeState
from repro.validate.equivalence import labels_equivalent
from shm_segments import own_segments

pytestmark = [pytest.mark.slow, pytest.mark.chaos]


def _base(n: int = 4000, seed: int = 3) -> PointSet:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3, 3, size=(5, 2))
    which = rng.integers(0, 5, size=n)
    return PointSet.from_coords(centers[which] + rng.normal(0, 0.1, size=(n, 2)))


def _local_batch(base: PointSet, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    anchor = base.coords[int(rng.integers(0, len(base)))]
    return anchor + rng.normal(0, 0.03, size=(n, 2))


def test_worker_kill_during_incremental_recluster_heals():
    base = _base()
    clean = MrScanConfig(eps=0.08, minpts=8, n_leaves=8, transport="shm")
    before = own_segments()
    with ShmTransport(n_workers=2) as transport:
        state = ServeState(base, clean, transport=transport)
        # Fault only the ingest path: arm the kill AFTER bootstrap so the
        # resident pool is warm when the worker dies.
        state.config = dataclasses.replace(
            clean,
            fault_plan=FaultPlan(
                faults=(FaultSpec(node=1, phase="cluster", attempt=0, kind="kill"),)
            ),
        )
        with pytest.warns(PoisonTaskWarning):
            outcome = state.ingest(_local_batch(base, 150, 11))
        assert outcome.n_points == 150
        assert transport.pool_respawns >= 1
        # The arena is not poisoned: a second (fault-free) ingest reuses
        # the same resident transport end to end.
        state.config = clean
        respawns_after_fault = transport.pool_respawns
        outcome2 = state.ingest(_local_batch(base, 150, 12))
        assert outcome2.n_points == 150
        assert transport.pool_respawns == respawns_after_fault
        assert not transport.stage_degraded
        labels, _ = state.labels_for([0, len(base), len(base) + 150])
        assert len(labels) == 3
    leaked = own_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"


def test_overload_flood_sheds_cleanly_and_loses_nothing_acked(tmp_path):
    """Six ingest streams flood a queue bounded at two while queries and
    health polls run and one client never reads its response.  Every op
    carries a hard timeout, so a wedged daemon shows up as a hang."""
    flood_clients, batches_per_client, batch_size, queue_bound = 6, 4, 60, 2
    op_timeout = 120.0
    base = _base()
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=16, transport="local")
    sock = tmp_path / "serve.sock"
    started = threading.Event()

    def _serve() -> None:
        async def _main() -> None:
            server = ServeServer(
                base, config, socket_path=sock, max_queued_ingests=queue_bound
            )
            await server.start()
            started.set()
            await server.serve_forever()
            server.close()

        asyncio.new_event_loop().run_until_complete(_main())

    daemon = threading.Thread(target=_serve, daemon=True)
    daemon.start()
    assert started.wait(timeout=300), "daemon failed to start"

    hangs: list[str] = []
    sheds: list[ServeOverloadedError] = []
    acked: list[tuple[int, np.ndarray, np.ndarray]] = []  # (seq, coords, ids)
    depths: list[int] = []
    stop = threading.Event()

    def _flood(idx: int) -> None:
        rng = np.random.default_rng(1000 + idx)
        # Disjoint external-id space per client, past the resident ids.
        next_id = len(base) + idx * batches_per_client * batch_size
        try:
            with ServeClient(socket_path=sock, timeout=op_timeout) as c:
                for b in range(batches_per_client):
                    batch = _local_batch(base, batch_size, 100 * idx + b)
                    ids = np.arange(next_id, next_id + batch_size, dtype=np.int64)
                    next_id += batch_size
                    # Manual retry so every shed is kept for inspection.
                    for _attempt in range(200):
                        try:
                            ack = c.ingest(batch.tolist(), ids=ids.tolist())
                        except ServeOverloadedError as exc:
                            sheds.append(exc)
                            time.sleep(
                                min(exc.retry_after_s or 0.5, 2.0) * rng.uniform(0.5, 1.0)
                            )
                            continue
                        acked.append((int(ack["seq"]), batch, ids))
                        break
        except (TimeoutError, OSError) as exc:
            hangs.append(f"flood[{idx}]: {type(exc).__name__}: {exc}")
        except ServeRequestError:
            pass  # a non-retryable reject is not a hang

    def _poll(name: str, op, pause: float) -> None:
        try:
            with ServeClient(socket_path=sock, timeout=op_timeout) as c:
                while not stop.is_set():
                    op(c)
                    time.sleep(pause)
        except (TimeoutError, OSError) as exc:
            hangs.append(f"{name}: {type(exc).__name__}: {exc}")

    def _query(c: ServeClient) -> None:
        c.labels(list(range(0, len(base), 250)))

    def _health(c: ServeClient) -> None:
        depths.append(int(c.health()["queued_ingests"]))

    # A client that sends a request and never reads the response must not
    # wedge the daemon.
    stalled = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stalled.connect(str(sock))
    stalled.sendall(b'{"op":"dump"}\n')

    floods = [threading.Thread(target=_flood, args=(i,), daemon=True) for i in range(flood_clients)]
    pollers = [
        threading.Thread(target=_poll, args=("query", _query, 0.005), daemon=True),
        threading.Thread(target=_poll, args=("health", _health, 0.05), daemon=True),
    ]
    for t in floods + pollers:
        t.start()
    for t in floods:
        t.join(timeout=2 * op_timeout)
        if t.is_alive():
            hangs.append("flood thread never finished")
    stop.set()
    for t in pollers:
        t.join(timeout=60)
    stalled.close()
    with ServeClient(socket_path=sock, timeout=op_timeout) as c:
        final = c.dump()
        c.shutdown()
    daemon.join(timeout=120)

    assert not hangs, hangs
    assert depths and max(depths) <= queue_bound
    assert sheds, "the flood never filled the queue: nothing was exercised"
    for exc in sheds:
        assert exc.code in ("overloaded", "degraded"), exc.code
        assert exc.retry_after_s is not None and exc.retry_after_s > 0
    assert acked
    # Union in the daemon's internal order: base, then acked batches in
    # commit (seq) order — the order ``dump`` reports.
    acked.sort(key=lambda t: t[0])
    union = PointSet(
        ids=np.concatenate([base.ids] + [ids for _, _, ids in acked]),
        coords=np.vstack([base.coords] + [coords for _, coords, _ in acked]),
    )
    full = run_pipeline(union, config)
    report = labels_equivalent(
        union,
        config.eps,
        full.labels,
        full.core_mask,
        np.asarray(final["labels"], dtype=np.int64),
        np.asarray(final["core"], dtype=bool),
    )
    assert report.ok, report.summary()
