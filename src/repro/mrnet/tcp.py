"""TCP transport: the one worker runtime, and the multi-host boundary.

Mr. Scan runs its MRNet reduction tree over real sockets across up to
8,192 Titan nodes (§2, §4).  This module is that process tree: a
coordinator-side :class:`TcpTransport` implementing the
:class:`~repro.mrnet.transport.Transport` protocol, plus
:func:`run_worker_agent` — the ``mrscan worker`` process that connects
in (possibly from another host), handshakes, and executes leaf tasks
shipped as length-prefixed framed messages.  The ``shm`` transport
(:class:`repro.runtime.ShmTransport`) is this runtime on localhost plus
a shared-memory arena, so every task that leaves the driver runs in an
agent.

Wire protocol
-------------
Every frame is ``!4sBI`` (magic ``MRSC``, type byte, payload length) +
payload, capped at :data:`MAX_FRAME_BYTES`.  A connection opens with a
JSON handshake — agent sends ``HELLO`` (protocol version, worker id,
pid, optional config fingerprint, reconnect count), the coordinator
answers ``WELCOME`` (session id, heartbeat interval) or ``REJECT``
(version or fingerprint mismatch; the agent exits rather than retry a
hopeless pairing).  ``TASK``/``RESULT``/``ERROR`` frames carry an 8-byte
sequence id followed by a pickle; ``HEARTBEAT`` is empty and flows
agent→coordinator on a fixed interval; ``SHUTDOWN`` asks the agent to
exit cleanly.

Healing
-------
Batches run through :func:`~repro.mrnet.transport.run_batch_healing`, the
engine every worker-backed transport shares; this module is only its
channel.  A worker is *lost* when its connection closes or goes silent
for ``heartbeat_interval × HEARTBEAT_MISS_LIMIT`` (heartbeats flow even
while a task runs); a self-spawned agent that exits is respawned;
*abandoning* a task closes its connection and kills its self-spawned
agent, so a hung task cannot poison later batches.  A task send that
moves no byte for that same silence window (an agent alive but not
reading: stopped, swapped out) is given up the same way, and the task
goes back to the queue.  Agents reconnect
with exponential backoff + jitter, counted in ``tcp.reconnects``.

Deterministic network faults
----------------------------
The transport peeks at the fault spec riding in each
``_guarded_apply`` task tuple and applies the network kinds *at the
framing layer*, once per task per batch: ``disconnect`` severs the
worker's connection instead of sending, ``drop`` loses the send and
re-dispatches after :data:`DROP_RESEND_SECONDS`, ``netdelay`` sleeps
before the send.  Seeded :class:`~repro.resilience.FaultPlan`\\ s thus
reproduce the same packet-level misbehaviour on every run.

Agent modes
-----------
By default the transport self-spawns ``n_workers`` agent subprocesses
(``python -m repro worker --connect ...``) on localhost — single-machine
runs need no second terminal.  A self-spawned agent (worker id
``spawn-<i>-<coordinator pid>``) exits within
:data:`PARENT_POLL_SECONDS` of its coordinator's death instead of
spending its reconnect budget.  Set ``MRSCAN_TCP_SPAWN=0`` and
``MRSCAN_TCP_PORT=<port>`` to listen for external agents instead (the
multi-host mode); ``MRSCAN_TCP_WAIT`` bounds how long a batch waits for
the first one.

Wire telemetry lands on ``tcp.*``: byte/frame counters both ways,
round-trip percentiles (``tcp.rtt_seconds``, a
:class:`~repro.telemetry.metrics.Quantile`), reconnects, missed
heartbeats and injected fault counts; healing counters are the engine's
``runtime.*``.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import random
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from ..errors import FrameError, TransportError
from ..resilience.faults import NET_FAULT_KINDS
from ..telemetry.metrics import NOOP_METRICS
from ..telemetry.tracer import NOOP_TRACER
from .transport import run_batch_healing, track_open_pool, untrack_pool

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "TcpTransport",
    "run_worker_agent",
    "send_frame",
    "recv_frame",
]

logger = logging.getLogger(__name__)

#: Handshake protocol version; a mismatching agent is rejected outright.
PROTOCOL_VERSION = 1

#: Frame header: magic, frame type, payload length.
MAGIC = b"MRSC"
_HEADER = struct.Struct("!4sBI")
_SEQ = struct.Struct("!Q")

#: Hard cap on one frame's payload — anything bigger is a protocol error
#: (a healthy task/result pickle is megabytes at most).
MAX_FRAME_BYTES = 1 << 30

# Frame types.
HELLO = 1
WELCOME = 2
REJECT = 3
TASK = 4
RESULT = 5
ERROR = 6
HEARTBEAT = 7
SHUTDOWN = 8

#: Agents send a heartbeat this often (seconds); the coordinator may
#: override per session via the WELCOME payload.
HEARTBEAT_INTERVAL = 0.25
#: Missed-heartbeat multiplier before a silent connection is declared dead.
HEARTBEAT_MISS_LIMIT = 8

#: How long a batch waits for worker connections before degrading to
#: in-process execution (overridable via ``MRSCAN_TCP_WAIT``).
CONNECT_WAIT_SECONDS = 10.0

#: An injected ``drop`` loses the send; the task is re-dispatched after
#: this long (the stand-in for a sender-side retransmit timer).
DROP_RESEND_SECONDS = 0.05

#: Agent reconnect backoff: ``base * 2^attempt`` capped, plus jitter.
RECONNECT_BASE_SECONDS = 0.05
RECONNECT_CAP_SECONDS = 1.0
RECONNECT_JITTER = 0.25
#: Default reconnect budget before an agent gives up (≈ one minute of
#: capped backoff — enough for a coordinator restart, finite so orphaned
#: agents exit instead of spinning forever).
DEFAULT_MAX_RECONNECTS = 60
#: How often a self-spawned agent checks that its coordinator is alive.
PARENT_POLL_SECONDS = 0.1

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #


def send_frame(
    sock: socket.socket, ftype: int, payload: bytes = b"", *, stall: float | None = None
) -> int:
    """Write one frame; returns the bytes put on the wire.

    With ``stall``, a send during which no byte leaves for ``stall``
    seconds raises :class:`TimeoutError` (the frame is then torn: the
    caller must close the connection).  Each write is ``MSG_DONTWAIT``,
    so the socket stays in the blocking mode its reader thread expects.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    data = _HEADER.pack(MAGIC, ftype, len(payload)) + payload
    if stall is None:
        sock.sendall(data)
        return len(data)
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view, socket.MSG_DONTWAIT):]
        except BlockingIOError:  # the socket buffer is full: wait for room
            writable = select.poll()
            writable.register(sock, select.POLLOUT)
            if not writable.poll(stall * 1000):
                raise TimeoutError(
                    f"no byte of a {len(data)}-byte frame left in {stall:.2f}s"
                ) from None
    return len(data)


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame
    boundary (zero bytes read), :class:`FrameError` on EOF mid-read."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FrameError(
                    f"torn frame: connection closed after {len(buf)} of {n} bytes"
                )
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one frame; ``None`` on clean EOF between frames."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    magic, ftype, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {length} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    if length == 0:
        return ftype, b""
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise FrameError(
            f"torn frame: connection closed before any of the {length} "
            "announced payload bytes arrived"
        )
    return ftype, payload


def _json_frame(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _parse_json_frame(payload: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed handshake payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("handshake payload must be a JSON object")
    return obj


# --------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------- #


class _Conn:
    """One accepted worker connection (coordinator side)."""

    __slots__ = (
        "sock", "addr", "worker_id", "alive", "last_seen", "busy_seq",
        "write_lock", "agent_index",
    )

    def __init__(self, sock: socket.socket, addr, worker_id: str) -> None:
        self.sock = sock
        self.addr = addr
        self.worker_id = worker_id
        self.alive = True
        self.last_seen = time.monotonic()
        #: Sequence id of the task this worker is executing (None = idle).
        self.busy_seq: int | None = None
        self.write_lock = threading.Lock()
        #: Index into the transport's spawned-agent table, if self-spawned.
        self.agent_index: int | None = None

    def send(self, ftype: int, payload: bytes = b"", *, stall: float | None = None) -> int:
        with self.write_lock:
            return send_frame(self.sock, ftype, payload, stall=stall)

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class TcpTransport:
    """Dispatch MRNet node work to worker agents over TCP sockets.

    The transport is the healing engine's channel: ``send`` frames a task
    to an idle live connection (applying any planned network fault),
    ``poll`` harvests RESULT/ERROR frames, ``lost`` reaps dead or silent
    connections, ``respawn`` restarts exited self-spawned agents.

    Parameters
    ----------
    n_workers:
        Worker agents to self-spawn (and the healing respawn budget's
        base).  Ignored for sizing when ``spawn_agents`` is False —
        external agents connect on their own schedule.
    host, port:
        Listen address.  Default ``127.0.0.1`` and an ephemeral port
        (``MRSCAN_TCP_PORT`` overrides — required for external agents,
        which must be told where to dial).
    spawn_agents:
        Self-spawn localhost agents (default True; ``MRSCAN_TCP_SPAWN=0``
        selects listen-only multi-host mode).
    connect_wait:
        Seconds a batch tolerates having *no* worker connection before
        degrading to in-process execution (``MRSCAN_TCP_WAIT``).
    fingerprint:
        Optional config fingerprint (default ``MRSCAN_TCP_FINGERPRINT``);
        an agent presenting a *different* non-empty fingerprint is
        rejected at handshake (both sides empty/absent always match).
    """

    backend = "tcp"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        spawn_agents: bool | None = None,
        connect_wait: float | None = None,
        fingerprint: str | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        tracer=None,
        metrics=None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise TransportError("n_workers must be >= 1")
        self.n_workers = n_workers or (os.cpu_count() or 2)
        self.host = host
        if port is None:
            port = int(os.environ.get("MRSCAN_TCP_PORT", "0") or 0)
        self.port = port
        if spawn_agents is None:
            spawn_agents = os.environ.get("MRSCAN_TCP_SPAWN", "1").strip() != "0"
        self._spawn = bool(spawn_agents)
        if connect_wait is None:
            connect_wait = float(
                os.environ.get("MRSCAN_TCP_WAIT", "") or CONNECT_WAIT_SECONDS
            )
        self.connect_wait = float(connect_wait)
        if fingerprint is None:
            fingerprint = os.environ.get("MRSCAN_TCP_FINGERPRINT", "")
        self.fingerprint = fingerprint
        self.heartbeat_interval = float(heartbeat_interval)
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.session_id = uuid.uuid4().hex

        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._conns: list[_Conn] = []
        self._results: dict[int, tuple[int, bytes]] = {}
        self._next_seq = 0
        self._agents: list[subprocess.Popen | None] = []
        # Per-batch channel state: seq -> (task index, send time), the
        # injected-drop resend times, and tasks whose fault was applied.
        self._inflight: dict[int, tuple[int, float]] = {}
        self._dropped_until: dict[int, float] = {}
        self._faulted: set[int] = set()
        self.closed = False
        #: Self-healing activity (see :func:`run_batch_healing`).
        self.pool_respawns = 0
        self.quarantined_tasks = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_listening(self) -> None:
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError as exc:
            listener.close()
            raise TransportError(
                f"{self.backend} transport cannot listen on "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        listener.listen(128)
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="mrscan-tcp-accept", daemon=True
        )
        self._accept_thread.start()
        track_open_pool(self)
        self.tracer.instant(
            "tcp.listen", cat="transport", host=self.host, port=self.port
        )
        if self._spawn:
            for idx in range(self.n_workers):
                self._agents.append(self._spawn_agent(idx))

    def _spawn_agent(self, idx: int) -> subprocess.Popen:
        """Start one localhost worker agent subprocess."""
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_dir
        )
        env["MRSCAN_TCP_AGENT"] = "1"
        cmd = [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"{self.host}:{self.port}",
            "--worker-id", f"spawn-{idx}-{os.getpid()}",
        ]
        if self.fingerprint:
            cmd += ["--fingerprint", self.fingerprint]
        return subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self.closed and listener is not None:
            try:
                sock, addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._serve_connection,
                args=(sock, addr),
                name="mrscan-tcp-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket, addr) -> None:
        """Handshake one inbound socket, then pump its frames until EOF."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(5.0)
            frame = recv_frame(sock)
            if frame is None or frame[0] != HELLO:
                raise FrameError("expected HELLO as the first frame")
            hello = _parse_json_frame(frame[1])
            reason = self._reject_reason(hello)
            if reason is not None:
                send_frame(sock, REJECT, _json_frame({"reason": reason}))
                self._count("tcp.handshake_rejects")
                logger.warning("rejected worker from %s: %s", addr, reason)
                sock.close()
                return
            send_frame(
                sock,
                WELCOME,
                _json_frame(
                    {
                        "version": PROTOCOL_VERSION,
                        "session_id": self.session_id,
                        "heartbeat_interval": self.heartbeat_interval,
                    }
                ),
            )
        except (FrameError, OSError, socket.timeout) as exc:
            logger.warning("handshake with %s failed: %s", addr, exc)
            try:
                sock.close()
            except OSError:
                pass
            return
        sock.settimeout(None)
        conn = _Conn(sock, addr, str(hello.get("worker_id", "?")))
        if conn.worker_id.startswith("spawn-"):
            try:
                conn.agent_index = int(conn.worker_id.split("-")[1])
            except (IndexError, ValueError):
                pass
        if int(hello.get("reconnects", 0)) > 0:
            self._count("tcp.reconnects")
        with self._cond:
            self._conns.append(conn)
            self._cond.notify_all()
        self._count("tcp.connections")
        self.tracer.instant(
            "tcp.connect", cat="transport", worker_id=conn.worker_id
        )
        self._reader_loop(conn)

    def _reject_reason(self, hello: dict[str, Any]) -> str | None:
        if self.closed:
            return "coordinator is shutting down"
        version = hello.get("version")
        if version != PROTOCOL_VERSION:
            return (
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, worker speaks {version}"
            )
        theirs = str(hello.get("fingerprint", "") or "")
        if self.fingerprint and theirs and theirs != self.fingerprint:
            return "config fingerprint mismatch"
        return None

    def _reader_loop(self, conn: _Conn) -> None:
        """Pump frames off one worker connection until it dies."""
        while conn.alive and not self.closed:
            try:
                frame = recv_frame(conn.sock)
            except (FrameError, OSError):
                break
            if frame is None:
                break
            ftype, payload = frame
            conn.last_seen = time.monotonic()
            if self.metrics.enabled:
                self.metrics.counter("tcp.bytes_received").inc(
                    _HEADER.size + len(payload)
                )
                self.metrics.counter("tcp.frames_received").inc()
            if ftype == HEARTBEAT:
                continue
            if ftype in (RESULT, ERROR) and len(payload) >= _SEQ.size:
                seq = _SEQ.unpack(payload[: _SEQ.size])[0]
                with self._cond:
                    self._results[seq] = (ftype, payload[_SEQ.size :])
                    if conn.busy_seq == seq:
                        conn.busy_seq = None
                    self._cond.notify_all()
        with self._cond:
            conn.alive = False
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Dispatch: the healing engine's channel
    # ------------------------------------------------------------------ #

    def run_batch(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        timeout: float | None = None,
        cancel: Any = None,
    ) -> list[Any]:
        if not tasks:
            return []
        if self.closed:
            raise TransportError(f"{self.backend} transport is closed")
        self._ensure_listening()
        self._inflight, self._dropped_until, self._faulted = {}, {}, set()
        with self.tracer.span(
            "transport.batch", cat="transport", n_tasks=len(tasks),
            backend=self.backend,
        ):
            if self.metrics.enabled:
                self.metrics.counter("runtime.batches").inc()
                self.metrics.counter("runtime.tasks_dispatched").inc(len(tasks))
            return run_batch_healing(self, fn, tasks, timeout=timeout, cancel=cancel)

    @staticmethod
    def _net_fault(task: Any) -> dict[str, Any] | None:
        """The network fault spec riding in a ``_guarded_apply`` tuple,
        if any — the transport injects these at the framing layer."""
        if (
            isinstance(task, tuple)
            and len(task) == 4
            and isinstance(task[2], dict)
            and task[2].get("kind") in NET_FAULT_KINDS
        ):
            return task[2]
        return None

    def send(self, i: int, fn: Callable[[Any], Any], task: Any) -> bool:
        now = time.monotonic()
        if self._dropped_until.get(i, 0.0) > now:
            return False
        with self._lock:
            conn = next(
                (c for c in self._conns if c.alive and c.busy_seq is None), None
            )
        if conn is None:
            return False
        spec = self._net_fault(task)
        if spec is not None and i not in self._faulted:
            # A planned network fault applies once per task per batch.
            self._faulted.add(i)
            kind = spec["kind"]
            self._count(f"tcp.injected.{kind}")
            self.tracer.instant(
                "fault", cat="transport", backend=self.backend, kind=kind,
                task_index=i,
            )
            if kind == "disconnect":
                # Sever the link instead of sending; the agent reconnects
                # with backoff and the task goes to the next idle worker.
                conn.close()
                return False
            if kind == "drop":
                # The send is lost in flight; resend after the
                # retransmit window.
                self._dropped_until[i] = now + DROP_RESEND_SECONDS
                return False
            # netdelay: a slow link — stall the send.
            time.sleep(float(spec.get("delay_seconds", 0.0)))
        try:
            blob = pickle.dumps((fn, task), protocol=_PICKLE_PROTO)
        except Exception as exc:
            raise TransportError(
                f"{self.backend} transport cannot pickle task {i}: {exc}"
            ) from exc
        with self._lock:
            self._next_seq += 1
            seq = self._next_seq
            # Register before sending: a fast worker can answer before
            # this thread resumes, and the reader must find the connection
            # already marked busy — otherwise the busy flag set after the
            # fact would never be cleared and the connection would idle
            # out of rotation.
            conn.busy_seq = seq
            self._inflight[seq] = (i, time.monotonic())
        silence = self.heartbeat_interval * HEARTBEAT_MISS_LIMIT
        try:
            nbytes = conn.send(TASK, _SEQ.pack(seq) + blob, stall=silence)
        except (OSError, FrameError) as exc:
            # The task goes back to the queue.  A worker that took no byte
            # for a whole silence window is alive but not reading: it is
            # shed like abandoned work.
            with self._lock:
                del self._inflight[seq]
            if not isinstance(exc, TimeoutError):
                conn.close()
                return False
            self._count("tcp.send_stalls")
            logger.warning(
                "worker %s took no task byte for %.2fs; shedding it",
                conn.worker_id, silence,
            )
            self._shed(conn)
            return False
        if self.metrics.enabled:
            self.metrics.counter("tcp.bytes_sent").inc(nbytes)
            self.metrics.counter("tcp.frames_sent").inc()
        return True

    def poll(self) -> Iterator[tuple[int, bool, Any]]:
        with self._lock:
            drained, self._results = self._results, {}
        now = time.monotonic()
        for seq, (ftype, blob) in drained.items():
            # A sequence no longer in flight belongs to work abandoned
            # earlier: its result freed the connection and is dropped.
            if seq not in self._inflight:
                continue
            i, t_sent = self._inflight.pop(seq)
            if self.metrics.enabled:
                self.metrics.quantile("tcp.rtt_seconds").observe(now - t_sent)
            if ftype == RESULT:
                yield i, True, pickle.loads(blob)
                continue
            try:
                exc = pickle.loads(blob)
            except Exception:
                exc = TransportError("worker reported an unpicklable error")
            if not isinstance(exc, BaseException):
                exc = TransportError(f"worker reported error: {exc!r}")
            yield i, False, exc

    def lost(self) -> list[int]:
        now = time.monotonic()
        silence = self.heartbeat_interval * HEARTBEAT_MISS_LIMIT
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            if conn.alive and now - conn.last_seen > silence:
                self._count("tcp.heartbeats_missed")
                logger.warning(
                    "worker %s silent for %.2fs; declaring it dead",
                    conn.worker_id, now - conn.last_seen,
                )
                conn.close()
        with self._lock:
            dead = [c for c in self._conns if not c.alive]
            self._conns = [c for c in self._conns if c.alive]
        return [
            self._inflight.pop(c.busy_seq)[0]
            for c in dead
            if c.busy_seq in self._inflight
        ]

    def respawn(self) -> int:
        if not self._spawn:
            return 0
        exited = [
            idx for idx, proc in enumerate(self._agents)
            if proc is not None and proc.poll() is not None
        ]
        for idx in exited:
            self._agents[idx] = self._spawn_agent(idx)
        return len(exited)

    def abandon(self, indices: Sequence[int]) -> None:
        """Shed the connections running abandoned work: close each and,
        for a self-spawned agent, kill the process and wait for it to
        exit, so no straggler outlives the batch (nor reads a block the
        next run restages) and the respawn path brings up a fresh one."""
        wanted = set(indices)
        seqs = {seq for seq, (i, _) in self._inflight.items() if i in wanted}
        with self._lock:
            stuck = [c for c in self._conns if c.busy_seq in seqs]
        for conn in stuck:
            self._shed(conn)

    def _shed(self, conn: _Conn) -> None:
        """Close a connection and, for a self-spawned agent, kill the
        process and wait for it to exit."""
        conn.close()
        if conn.agent_index is not None and conn.agent_index < len(self._agents):
            proc = self._agents[conn.agent_index]
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    def has_capacity(self) -> bool:
        with self._lock:
            if any(c.alive for c in self._conns):
                return True
        return self._spawn and any(
            p is not None and p.poll() is None for p in self._agents
        )

    def wait(self, timeout: float) -> None:
        with self._cond:
            if not self._results:  # a result that landed since poll() ends the wait
                self._cond.wait(timeout)

    def _count(self, name: str) -> None:
        if self.metrics.enabled:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down agents and sockets (idempotent)."""
        if self.closed:
            return
        self.closed = True
        with self._cond:
            conns = list(self._conns)
            self._conns = []
            self._cond.notify_all()
        for conn in conns:
            try:
                conn.send(SHUTDOWN)
            except (OSError, FrameError):
                pass
            conn.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        for idx, proc in enumerate(self._agents):
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._agents[idx] = None
        untrack_pool(self)

    def _reap(self) -> None:
        """atexit path: tear everything down without joining anything."""
        self.closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            conns = list(self._conns)
            self._conns = []
        for conn in conns:
            conn.close()
        for idx, proc in enumerate(self._agents):
            if proc is not None and proc.poll() is None:
                proc.kill()
            self._agents[idx] = None

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Worker agent side
# --------------------------------------------------------------------- #


def _backoff_sleep(attempt: int) -> None:
    delay = min(
        RECONNECT_CAP_SECONDS, RECONNECT_BASE_SECONDS * (2 ** min(attempt, 10))
    )
    time.sleep(delay * (1.0 + RECONNECT_JITTER * random.random()))


def _watch_spawner(worker_id: str) -> None:
    """Exit with the coordinator that spawned this agent.

    ``TcpTransport._spawn_agent`` names its agents
    ``spawn-<i>-<coordinator pid>`` and is their parent; once the parent
    is gone (the agent was re-parented) there is no run left to heal, so
    the agent ends at once.  Any other worker id is an external agent,
    which keeps its reconnect budget."""
    prefix, _, pid = worker_id.rpartition("-")
    if not (prefix.startswith("spawn-") and pid.isdigit()):
        return
    spawner = int(pid)

    def watch() -> None:
        while os.getppid() == spawner:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(2)

    threading.Thread(target=watch, name="mrscan-spawner-watch", daemon=True).start()


def _serve_agent_connection(
    sock: socket.socket, worker_id: str, fingerprint: str, reconnects: int
) -> int | None:
    """One connected session: handshake, then execute tasks until the
    connection ends.  Returns an exit code to stop the agent, or ``None``
    to reconnect."""
    send_frame(
        sock,
        HELLO,
        _json_frame(
            {
                "version": PROTOCOL_VERSION,
                "worker_id": worker_id,
                "pid": os.getpid(),
                "fingerprint": fingerprint,
                "reconnects": reconnects,
            }
        ),
    )
    sock.settimeout(10.0)
    frame = recv_frame(sock)
    if frame is None:
        return None
    ftype, payload = frame
    if ftype == REJECT:
        reason = _parse_json_frame(payload).get("reason", "unspecified")
        print(f"worker {worker_id} rejected: {reason}", file=sys.stderr)
        return 1
    if ftype != WELCOME:
        raise FrameError(f"expected WELCOME or REJECT, got frame type {ftype}")
    welcome = _parse_json_frame(payload)
    interval = float(welcome.get("heartbeat_interval", HEARTBEAT_INTERVAL))
    sock.settimeout(None)

    stop = threading.Event()
    write_lock = threading.Lock()

    def _heartbeat() -> None:
        while not stop.wait(interval):
            try:
                with write_lock:
                    send_frame(sock, HEARTBEAT)
            except OSError:
                return

    beat = threading.Thread(target=_heartbeat, name="mrscan-heartbeat", daemon=True)
    beat.start()
    try:
        while True:
            frame = recv_frame(sock)
            if frame is None:
                return None
            ftype, payload = frame
            if ftype == SHUTDOWN:
                return 0
            if ftype != TASK or len(payload) < _SEQ.size:
                continue
            seq = payload[: _SEQ.size]
            try:
                fn, task = pickle.loads(payload[_SEQ.size :])
                out = fn(task)
                body = pickle.dumps(out, protocol=_PICKLE_PROTO)
                rtype = RESULT
            except BaseException as exc:
                try:
                    body = pickle.dumps(exc, protocol=_PICKLE_PROTO)
                except Exception:
                    body = pickle.dumps(
                        TransportError(f"{type(exc).__name__}: {exc}"),
                        protocol=_PICKLE_PROTO,
                    )
                rtype = ERROR
            with write_lock:
                send_frame(sock, rtype, seq + body)
    except (FrameError, OSError):
        return None
    finally:
        stop.set()


def run_worker_agent(
    address: str,
    *,
    worker_id: str | None = None,
    fingerprint: str | None = None,
    max_reconnects: int | None = DEFAULT_MAX_RECONNECTS,
) -> int:
    """The ``mrscan worker`` main loop: dial the coordinator, execute
    framed tasks, reconnect with exponential backoff + jitter when the
    connection drops.  Exit codes: 0 clean shutdown, 1 rejected at
    handshake, 2 reconnect budget exhausted or (a self-spawned agent)
    coordinator gone."""
    # Mark this process as an agent so injected ``kill`` faults know a
    # real SIGKILL is safe here (the coordinator survives and recovers),
    # and keep warm leaf-task state between tasks.
    os.environ["MRSCAN_TCP_AGENT"] = "1"
    from ..runtime.worker import install_worker_state

    install_worker_state()
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise TransportError(
            f"worker address must be HOST:PORT, got {address!r}"
        )
    port = int(port_text)
    worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
    fingerprint = fingerprint or os.environ.get("MRSCAN_TCP_FINGERPRINT", "")
    _watch_spawner(worker_id)
    reconnects = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            reconnects += 1
            if max_reconnects is not None and reconnects > max_reconnects:
                print(
                    f"worker {worker_id}: gave up after {reconnects - 1} "
                    "reconnect attempts",
                    file=sys.stderr,
                )
                return 2
            _backoff_sleep(reconnects)
            continue
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            code = _serve_agent_connection(sock, worker_id, fingerprint, reconnects)
        except (FrameError, OSError, socket.timeout):
            code = None
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if code is not None:
            return code
        reconnects += 1
        if max_reconnects is not None and reconnects > max_reconnects:
            print(
                f"worker {worker_id}: gave up after {reconnects - 1} "
                "reconnect attempts",
                file=sys.stderr,
            )
            return 2
        _backoff_sleep(reconnects)
