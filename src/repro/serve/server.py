"""The asyncio serve daemon.

:class:`ServeServer` owns the event loop side only: it accepts
connections on a unix socket (or localhost TCP), reads NDJSON requests,
and dispatches them against a :class:`~repro.serve.state.ServeState`.
Concurrency model:

* **queries** (``labels``/``stats``/``dump``/``ping``/``health``) run
  directly on the event loop — they only read the committed snapshot,
  which the state swaps atomically under its lock, so they stay fast
  while an ingest is in flight;
* **ingests** are offloaded to a single worker thread
  (``run_in_executor``) and serialized by an asyncio lock, so the event
  loop keeps answering queries during the multi-second re-cluster and
  two clients' batches can never interleave their transactions;
* **shutdown** drains cleanly: the op acks, then the server closes its
  listener and wakes :meth:`serve_forever`.

Overload protection (see :mod:`repro.serve.overload`):

* **admission control** — at most ``max_queued_ingests`` ingests may be
  queued-or-running and at most ``max_connections`` clients connected;
  excess load is shed immediately with a retryable ``overloaded``
  response carrying a ``retry_after_s`` hint, never queued unboundedly;
* **deadlines + cancellation** — every ingest runs under a
  :class:`~repro.resilience.CancelToken` (the request's ``deadline_s``
  tightened by the server's ``ingest_deadline``), threaded through the
  re-cluster down to the transports; expiry or a vanished client unwinds
  the transaction before commit, labels and journal untouched;
* a **circuit breaker** — consecutive infrastructure failures trip the
  daemon into degraded mode (ingests rejected fast with ``degraded``,
  queries unaffected); a half-open probe restores service;
* **graceful drain** — :meth:`begin_drain` (the ``drain`` op, SIGTERM)
  stops admitting ingests, lets the in-flight one finish within
  ``drain_grace`` seconds (then cancels it), and exits 0 with the
  journal consistent.

The daemon holds one resident transport for its whole life and hands it
to every partial run; :func:`~repro.core.pipeline.cluster_merge_sweep`
never closes a transport it is given, so the pool and arena stay warm.
``close()`` here is the single place the transport dies.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from ..core.config import MrScanConfig
from ..durability.ingestlog import IngestLog
from ..errors import (
    ConfigError,
    DeadlineExceededError,
    FormatError,
    MrScanError,
    OperationCancelledError,
)
from ..points import PointSet
from ..resilience import CancelToken
from ..runtime.executor import make_transport
from ..telemetry import Telemetry
from .overload import AdmissionController, CircuitBreaker
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServeProtocolError,
    decode_line,
    encode_message,
    error_response,
    validate_request,
)
from .state import ServeState

__all__ = ["ServeServer"]

logger = logging.getLogger("repro.serve")

#: serve.breaker_state gauge values.
_BREAKER_GAUGE = {"closed": 0, "half_open": 1, "open": 2}


def _parse_batch(
    points: list, raw_ids: list | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """CPU-bound request parsing — runs *off* the event loop."""
    coords = np.asarray(points, dtype=np.float64)
    ids = None
    if raw_ids is not None:
        ids = np.asarray(raw_ids, dtype=np.int64)
    return coords, ids


class ServeServer:
    """One serving session: resident state + socket front end.

    Parameters mirror :class:`~repro.serve.state.ServeState`; the server
    additionally owns the listener (``socket_path`` XOR ``port``) and —
    when built from a transport *name* — the resident transport.

    Overload knobs
    --------------
    max_queued_ingests:
        Ingests queued-or-running before new ones are shed (>= 1).
    max_connections:
        Concurrent client connections before new ones are refused.
    ingest_deadline:
        Server-side ceiling (seconds) on any ingest; a request's own
        ``deadline_s`` can only tighten it.  None = no server ceiling.
    max_batch_points:
        Hard cap on points per ingest batch (``too_large`` beyond it).
    breaker_threshold / breaker_reset:
        Circuit breaker: consecutive infrastructure failures to trip,
        and seconds open before the half-open probe.
    drain_grace:
        Seconds :meth:`begin_drain` waits for the in-flight ingest
        before cancelling it.
    max_line_bytes:
        Per-line wire cap (default :data:`~repro.serve.protocol.MAX_LINE_BYTES`).
    write_timeout:
        Seconds a response write may stall on a slow client before the
        connection is aborted (the handler must never wedge on one
        reader).
    """

    def __init__(
        self,
        base: PointSet,
        config: MrScanConfig,
        *,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        transport=None,
        telemetry: Telemetry | None = None,
        run_dir: str | Path | None = None,
        resume: bool = False,
        max_queued_ingests: int = 8,
        max_connections: int = 64,
        ingest_deadline: float | None = None,
        max_batch_points: int = 1_000_000,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        drain_grace: float = 10.0,
        max_line_bytes: int = MAX_LINE_BYTES,
        write_timeout: float = 30.0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise FormatError("serve needs exactly one of socket_path or port")
        if ingest_deadline is not None and ingest_deadline <= 0:
            raise ConfigError("ingest_deadline must be positive (or None)")
        if max_batch_points < 1:
            raise ConfigError("max_batch_points must be >= 1")
        if drain_grace < 0:
            raise ConfigError("drain_grace must be >= 0")
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.ingest_deadline = ingest_deadline
        self.max_batch_points = int(max_batch_points)
        self.drain_grace = float(drain_grace)
        self.max_line_bytes = int(max_line_bytes)
        self.write_timeout = float(write_timeout)
        self.admission = AdmissionController(
            max_queued=max_queued_ingests, max_connections=max_connections
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, reset_after_s=breaker_reset
        )
        self._owns_transport = transport is None or isinstance(transport, str)
        if self._owns_transport:
            transport = make_transport(
                transport if isinstance(transport, str) else config.resolved_transport(),
                n_workers=config.transport_workers,
                tracer=self.telemetry.tracer,
                metrics=self.telemetry.metrics,
            )
        self._transport = transport
        self.ingest_log = None
        if run_dir is not None:
            self.ingest_log = IngestLog(
                Path(run_dir), metrics=self.telemetry.metrics
            )
        self.state = ServeState(
            base,
            config,
            transport=self._transport,
            telemetry=self.telemetry,
            ingest_log=self.ingest_log,
            resume=resume,
        )
        self._ingest_lock = asyncio.Lock()
        self._ingest_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-ingest"
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        #: Token of the ingest currently executing (loop thread only).
        self._active_token: CancelToken | None = None
        self.closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            if self.socket_path.exists():
                self.socket_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(self.socket_path),
                limit=self.max_line_bytes,
            )
            where = str(self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=self.max_line_bytes,
            )
            self.port = self._server.sockets[0].getsockname()[1]
            where = f"{self.host}:{self.port}"
        logger.info("serve: listening on %s", where)

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` op, a completed drain, or
        :meth:`close` arrives."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        # Drain the listener and live connections while the loop is still
        # running: a client that connected between the shutdown ack and
        # the caller's close() must see EOF, not a reply the stopped loop
        # would never send.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        if self._connections:
            await asyncio.sleep(0)  # let handlers observe the close

    def begin_drain(self) -> None:
        """Stop admitting ingests and shut down once the in-flight one
        finishes (or ``drain_grace`` elapses, whereupon it is cancelled
        and rolled back).  Idempotent; must run on the event loop — wire
        it to SIGTERM/SIGINT with ``loop.add_signal_handler``.
        """
        if self._draining:
            return
        self._draining = True
        logger.info(
            "serve: drain requested (grace %.1fs for in-flight ingest)",
            self.drain_grace,
        )
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        try:
            await asyncio.wait_for(
                self._ingest_lock.acquire(), self.drain_grace or None
            )
        except asyncio.TimeoutError:
            token = self._active_token
            if token is not None:
                logger.warning(
                    "serve: drain grace expired; cancelling in-flight ingest"
                )
                token.cancel("draining")
            # The cancelled transaction unwinds at its next poll point
            # and releases the lock; wait for it so the journal is
            # quiesced before the listener goes down.
            await self._ingest_lock.acquire()
        self._ingest_lock.release()
        logger.info("serve: drained; shutting down")
        self._shutdown.set()

    def close(self) -> None:
        """Tear down listener, ingest thread, log, and owned transport."""
        if self.closed:
            return
        self.closed = True
        if self._server is not None:
            self._server.close()
        token = self._active_token
        if token is not None:
            token.cancel("server closing")
        self._ingest_pool.shutdown(wait=True)
        if self.ingest_log is not None:
            self.ingest_log.close()
        if self._owns_transport:
            self._transport.close()
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()
        self._shutdown.set()

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> bool:
        """Write one response line; False = client too slow / gone (the
        connection is aborted so a stalled reader can never wedge the
        handler or pin the ingest path)."""
        try:
            writer.write(encode_message(response))
            await asyncio.wait_for(writer.drain(), self.write_timeout)
            return True
        except asyncio.TimeoutError:
            logger.warning(
                "serve: response write stalled > %.1fs; aborting connection",
                self.write_timeout,
            )
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        except (ConnectionResetError, BrokenPipeError):
            return False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or "unix"
        if not self.admission.try_connect():
            if self.telemetry.metrics.enabled:
                self.telemetry.metrics.counter("serve.shed").inc()
            await self._send(
                writer,
                error_response(
                    f"connection cap ({self.admission.max_connections}) reached",
                    "overloaded",
                    retry_after_s=self._retry_after_estimate(),
                ),
            )
            writer.close()
            return
        self._connections.add(writer)
        # One pending readline at a time.  During an ingest the pending
        # read doubles as the client-abandonment watcher: EOF mid-ingest
        # cancels the transaction; a data line is simply the pipelined
        # next request, consumed by the following loop iteration.
        read_task: asyncio.Future | None = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(reader.readline())
                try:
                    line = await read_task
                except ValueError:
                    # Over-long line: the stream's framing is lost (the
                    # buffer holds a partial line), so answer once with a
                    # framed limit error and drop the connection rather
                    # than dying silently.
                    await self._send(
                        writer,
                        error_response(
                            f"request line exceeds {self.max_line_bytes} bytes",
                            "too_large",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                finally:
                    read_task = None
                if not line:
                    break
                try:
                    request = decode_line(line)
                    op = validate_request(request)
                except ServeProtocolError as exc:
                    if not await self._send(
                        writer, error_response(str(exc), "bad_request")
                    ):
                        break
                    continue
                if op == "ingest":
                    # Arm the abandonment watcher before the blocking
                    # phase; it becomes the next read either way.
                    read_task = asyncio.ensure_future(reader.readline())
                    response = await self._handle_ingest(request, watch=read_task)
                else:
                    response = await self._dispatch(op, request)
                if not await self._send(writer, response):
                    break
                if response.get("bye"):
                    break
        except asyncio.CancelledError:
            # Loop teardown (asyncio.run cancels pending tasks on exit).
            # Returning instead of re-raising keeps the stdlib stream
            # protocol's done-callback — which calls task.exception()
            # without a cancelled() guard — from logging a traceback.
            pass
        finally:
            if read_task is not None:
                read_task.cancel()
            self._connections.discard(writer)
            self.admission.disconnect()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        logger.debug("serve: connection from %s closed", peer)

    async def _dispatch(self, op: str, request: dict) -> dict:
        try:
            if op == "ping":
                return {"ok": True, "version": PROTOCOL_VERSION}
            if op == "stats":
                return {"ok": True, **self.state.stats()}
            if op == "dump":
                return {"ok": True, **self.state.dump()}
            if op == "health":
                return self._health()
            if op == "labels":
                ids = request.get("ids")
                if not isinstance(ids, list) or not ids:
                    return error_response(
                        "labels needs a non-empty ids list", "bad_request"
                    )
                labels, core = self.state.labels_for(ids)
                return {"ok": True, "labels": labels, "core": core}
            if op == "drain":
                self.begin_drain()
                return {"ok": True, "draining": True}
            if op == "shutdown":
                # Ack first, then wake serve_forever — the caller's loop
                # does the actual close() so in-flight cleanup is single-
                # threaded.
                self._draining = True
                asyncio.get_running_loop().call_soon(self._shutdown.set)
                return {"ok": True, "bye": True}
        except (MrScanError, FormatError) as exc:
            return error_response(str(exc), "failed")
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("serve: internal error handling %s", op)
            return error_response(
                f"internal error: {type(exc).__name__}: {exc}", "failed"
            )
        return error_response(f"unhandled op {op!r}", "bad_request")

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def _transport_health(self) -> dict:
        t = self._transport
        info: dict = {
            "type": type(getattr(t, "inner", t)).__name__,
            "closed": bool(getattr(t, "closed", False)),
        }
        conns = getattr(t, "_conns", None)
        if conns is not None:  # shm and tcp: live worker agents
            info["live_workers"] = sum(1 for c in conns if c.alive)
        return info

    def _health(self) -> dict:
        breaker = self.breaker.snapshot()
        if self.telemetry.metrics.enabled:
            self.telemetry.metrics.gauge("serve.breaker_state").set(
                _BREAKER_GAUGE.get(breaker["state"], 0)
            )
        return {
            "ok": True,
            "version": PROTOCOL_VERSION,
            "ready": not self._draining and breaker["state"] != "open",
            "draining": self._draining,
            "breaker": breaker,
            "transport": self._transport_health(),
            "n_ingests": int(self.state.n_ingests),
            "uptime_seconds": time.time() - self.state.started_at,
            **self.admission.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # Ingest: admission -> deadline -> execute -> breaker bookkeeping
    # ------------------------------------------------------------------ #

    def _retry_after_estimate(self) -> float:
        """Backoff hint: roughly how long until an ingest slot frees —
        the last ingest's wall time times the queue ahead of you."""
        per = max(0.25, float(self.state.last_ingest_seconds) or 0.25)
        return per * (self.admission.queued + 1)

    def _effective_deadline(self, request: dict) -> float | None:
        """min(server ceiling, request deadline_s); None = unbounded."""
        requested = request.get("deadline_s")
        if requested is not None:
            requested = float(requested)
            if not requested > 0:
                raise FormatError("deadline_s must be a positive number")
        candidates = [
            d for d in (self.ingest_deadline, requested) if d is not None
        ]
        return min(candidates) if candidates else None

    async def _handle_ingest(
        self, request: dict, watch: asyncio.Future | None = None
    ) -> dict:
        metrics = self.telemetry.metrics
        if self._draining:
            return error_response(
                "daemon is draining; no new ingests", "draining"
            )
        if not self.breaker.allow():
            if metrics.enabled:
                metrics.counter("serve.shed").inc()
            return error_response(
                "circuit breaker open after repeated ingest failures; "
                "queries still serve the last committed snapshot",
                "degraded",
                retry_after_s=max(self.breaker.retry_after_s(), 0.1),
            )
        points = request.get("points")
        try:
            if not isinstance(points, list) or not points:
                raise FormatError("ingest needs a non-empty points list")
            if len(points) > self.max_batch_points:
                self.breaker.abandon_probe()
                return error_response(
                    f"batch of {len(points)} points exceeds the "
                    f"{self.max_batch_points}-point limit; split it",
                    "too_large",
                )
            deadline = self._effective_deadline(request)
            raw_ids = request.get("ids")
            if raw_ids is not None and not isinstance(raw_ids, list):
                raise FormatError("ingest ids must be a list")
        except (FormatError, TypeError, ValueError) as exc:
            self.breaker.abandon_probe()
            return error_response(str(exc), "bad_request")

        if not self.admission.try_acquire():
            self.breaker.abandon_probe()
            if metrics.enabled:
                metrics.counter("serve.shed").inc()
            return error_response(
                f"ingest queue full ({self.admission.max_queued} "
                "queued-or-running)",
                "overloaded",
                retry_after_s=self._retry_after_estimate(),
            )
        if metrics.enabled:
            metrics.gauge("serve.queue_depth").set(self.admission.queued)
        loop = asyncio.get_running_loop()
        token = CancelToken(deadline_s=deadline)
        if watch is not None:
            # Client-abandonment watcher: EOF while this ingest is queued
            # or running means nobody is waiting for the answer — stop
            # burning the worker pool and roll back.  A *data* completion
            # is just the pipelined next request; leave it be.
            def _on_watch_done(task: asyncio.Future) -> None:
                if task.cancelled():
                    return
                if task.exception() is None and task.result() == b"":
                    token.cancel("client disconnected")

            watch.add_done_callback(_on_watch_done)
        executed = False
        try:
            try:
                coords, ids = await loop.run_in_executor(
                    None, _parse_batch, points, raw_ids
                )
            except (TypeError, ValueError) as exc:
                return error_response(
                    f"malformed ingest payload: {exc}", "bad_request"
                )
            t_queued = time.perf_counter()
            try:
                await asyncio.wait_for(
                    self._ingest_lock.acquire(), token.remaining()
                )
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    "deadline expired while queued behind other ingests"
                ) from None
            try:
                queue_wait = time.perf_counter() - t_queued
                if metrics.enabled:
                    metrics.quantile("serve.queue_wait_seconds").observe(
                        queue_wait
                    )
                token.check()  # queued past the deadline / client gone
                if self._draining:
                    return error_response(
                        "daemon is draining; no new ingests", "draining"
                    )
                executed = True
                self._active_token = token
                outcome = await loop.run_in_executor(
                    self._ingest_pool,
                    partial(self.state.ingest, coords, ids, cancel=token),
                )
            finally:
                self._active_token = None
                self._ingest_lock.release()
            self.breaker.record_success()
            return {"ok": True, **outcome.as_dict()}
        except DeadlineExceededError as exc:
            if metrics.enabled:
                metrics.counter("serve.deadline_exceeded").inc()
            return error_response(str(exc), "deadline_exceeded")
        except OperationCancelledError as exc:
            return error_response(str(exc), "cancelled")
        except (FormatError, ConfigError) as exc:
            # Client mistake: never counts toward the breaker.
            return error_response(str(exc), "bad_request")
        except Exception as exc:
            # Infrastructure failure (transport death, respawn budget
            # exhausted, poison batch, anything unexpected): count it.
            self.breaker.record_failure()
            snap = self.breaker.snapshot()
            logger.exception(
                "serve: ingest failed (%d consecutive infra failure(s), "
                "breaker %s)",
                snap["consecutive_failures"],
                snap["state"],
            )
            if metrics.enabled:
                metrics.gauge("serve.breaker_state").set(
                    _BREAKER_GAUGE.get(snap["state"], 0)
                )
            return error_response(
                f"ingest failed: {type(exc).__name__}: {exc}", "failed"
            )
        finally:
            # Free the half-open probe slot on every path that neither
            # judged the backend (cancelled, deadline, bad request) —
            # a no-op after record_success/record_failure.
            self.breaker.abandon_probe()
            self.admission.release()
            if metrics.enabled:
                metrics.gauge("serve.queue_depth").set(self.admission.queued)
