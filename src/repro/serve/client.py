"""Blocking client for the serve daemon's NDJSON protocol.

The client is deliberately synchronous — callers that need concurrency
open one client per thread; the daemon multiplexes them server-side.

Overload-aware (protocol v2): an error response carrying a retryable
``code`` (``overloaded``/``degraded``) raises
:class:`ServeOverloadedError`, and :meth:`request` can retry it
automatically with jittered backoff honouring the daemon's
``retry_after_s`` hint — safe because a shed ingest never started.
Non-retryable codes (``too_large``, ``deadline_exceeded``, ...) raise
:class:`ServeRequestError` with the code attached.

Example::

    with ServeClient(socket_path="/tmp/mrscan.sock") as c:
        c.ping()
        ack = c.ingest([[0.1, 0.2], [0.11, 0.21]], retries=5)
        labels, core = c.labels(list(range(ack["n_points"])))
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path

from ..errors import MrScanError
from .protocol import (
    MAX_LINE_BYTES,
    RETRYABLE_CODES,
    ServeProtocolError,
    decode_line,
    encode_message,
)

__all__ = ["ServeClient", "ServeOverloadedError", "ServeRequestError"]


class ServeRequestError(MrScanError):
    """The daemon answered ``ok: false``.

    ``code`` is the protocol-v2 machine-readable code (None from a v1
    daemon); ``retry_after_s`` the backoff hint, when given.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


class ServeOverloadedError(ServeRequestError):
    """A retryable shed (``overloaded``/``degraded``): the op never
    started server-side, so re-sending it cannot double-apply."""


class ServeClient:
    """One connection to a serve daemon (unix socket or localhost TCP).

    ``timeout`` is the default socket timeout; any op can tighten it for
    one call with its ``timeout=`` keyword.  ``retries`` (constructor
    default, overridable per call) bounds automatic re-sends on
    *retryable* sheds only.
    """

    def __init__(
        self,
        *,
        socket_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = 600.0,
        retries: int = 0,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise ServeProtocolError(
                "client needs exactly one of socket_path or port"
            )
        if retries < 0:
            raise ServeProtocolError("retries must be >= 0")
        self.default_retries = int(retries)
        self._default_timeout = timeout
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(str(socket_path))
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""
        self._sleep = time.sleep  # overridable in tests
        self._rng = random.Random()

    # ------------------------------------------------------------------ #
    # Wire
    # ------------------------------------------------------------------ #

    def _roundtrip(self, message: dict, timeout: float | None) -> dict:
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            try:
                self._sock.sendall(encode_message(message))
            except (BrokenPipeError, ConnectionResetError):
                # A shed connection is answered and closed before its
                # request lands; that answer is still there to read.
                pass
            while b"\n" not in self._buffer:
                if len(self._buffer) > MAX_LINE_BYTES:
                    raise ServeProtocolError("response line exceeds the size cap")
                chunk = self._sock.recv(1 << 20)
                if not chunk:
                    raise ServeProtocolError(
                        "daemon closed the connection mid-response"
                    )
                self._buffer += chunk
        finally:
            if timeout is not None:
                self._sock.settimeout(self._default_timeout)
        line, self._buffer = self._buffer.split(b"\n", 1)
        response = decode_line(line)
        if not response.get("ok"):
            code = response.get("code")
            retry_after = response.get("retry_after_s")
            cls = (
                ServeOverloadedError
                if code in RETRYABLE_CODES
                else ServeRequestError
            )
            raise cls(
                response.get("error", "request failed"),
                code=code,
                retry_after_s=retry_after,
            )
        return response

    def request(
        self,
        message: dict,
        *,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> dict:
        """Send one request and block for its response dict.

        ``timeout`` bounds this call's socket waits (falls back to the
        constructor default).  ``retries`` re-sends up to that many times
        on :class:`ServeOverloadedError` only, sleeping the daemon's
        ``retry_after_s`` hint (default 0.5s) with ±25% jitter each time;
        the final attempt's error propagates.
        """
        budget = self.default_retries if retries is None else int(retries)
        attempt = 0
        while True:
            try:
                return self._roundtrip(message, timeout)
            except ServeOverloadedError as exc:
                if attempt >= budget:
                    raise
                attempt += 1
                base = exc.retry_after_s if exc.retry_after_s else 0.5
                # Jitter so a shed thundering herd doesn't re-arrive in
                # lockstep at exactly the hinted instant.
                self._sleep(max(0.0, base * self._rng.uniform(0.75, 1.25)))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #

    def ping(self, *, timeout: float | None = None) -> dict:
        return self.request({"op": "ping"}, timeout=timeout)

    def ingest(
        self,
        points,
        ids=None,
        *,
        deadline_s: float | None = None,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> dict:
        """Ingest a batch; blocks until the daemon committed and acked.

        ``deadline_s`` asks the daemon to bound the ingest server-side
        (rolled back with ``deadline_exceeded`` past it); ``retries``
        re-sends on overload sheds (see :meth:`request`).
        """
        message: dict = {"op": "ingest", "points": [list(map(float, p)) for p in points]}
        if ids is not None:
            message["ids"] = [int(i) for i in ids]
        if deadline_s is not None:
            message["deadline_s"] = float(deadline_s)
        return self.request(message, timeout=timeout, retries=retries)

    def labels(self, ids, *, timeout: float | None = None) -> tuple[list[int], list[bool]]:
        response = self.request(
            {"op": "labels", "ids": [int(i) for i in ids]}, timeout=timeout
        )
        return response["labels"], response["core"]

    def stats(self, *, timeout: float | None = None) -> dict:
        return self.request({"op": "stats"}, timeout=timeout)

    def dump(self, *, timeout: float | None = None) -> dict:
        """The daemon's full labelling: ``{ids, labels, core}``."""
        return self.request({"op": "dump"}, timeout=timeout)

    def health(self, *, timeout: float | None = None) -> dict:
        """Readiness/overload snapshot: breaker state, queue depth,
        connection counts, transport liveness."""
        return self.request({"op": "health"}, timeout=timeout)

    def drain(self, *, timeout: float | None = None) -> dict:
        """Ask the daemon to drain gracefully (finish or cancel the
        in-flight ingest, commit the journal, exit 0)."""
        return self.request({"op": "drain"}, timeout=timeout)

    def shutdown(self, *, timeout: float | None = None) -> dict:
        return self.request({"op": "shutdown"}, timeout=timeout)
