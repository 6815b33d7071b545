"""Cooperative cancellation: :class:`CancelToken`.

A token is created by whoever owns an operation's lifetime (the serve
daemon creates one per ingest, carrying the op's deadline) and threaded
down through :func:`repro.core.pipeline.cluster_merge_sweep` →
:meth:`repro.mrnet.Network._run_tasks` → the transports' dispatch loops.
Work polls :meth:`CancelToken.check` at its natural yield points — round
boundaries, result-poll iterations, between sequential tasks — and
unwinds with :class:`~repro.errors.OperationCancelledError` (or its
:class:`~repro.errors.DeadlineExceededError` subclass when the deadline,
not an explicit :meth:`cancel`, fired).

Cancellation is *cooperative*: in-flight worker-side computation is not
preempted, but its result is abandoned — dispatch loops stop waiting,
the driver unwinds before any state is committed, and the agents that
ran the abandoned work are killed.  That is exactly the contract the serve daemon's
rollback discipline needs: an expired or client-abandoned ingest stops
consuming the worker pool *now*, while the resident labels and the
write-ahead ingest log stay consistent (the transaction never reaches
its commit step).

Thread-safe: ``cancel()`` may be called from any thread (the asyncio
event loop cancels tokens owned by executor threads).
"""

from __future__ import annotations

import threading
import time

from ..errors import DeadlineExceededError, OperationCancelledError

__all__ = ["CancelToken"]


class CancelToken:
    """One operation's cancellation scope.

    Parameters
    ----------
    deadline_s:
        Optional budget in seconds from *now*; once it elapses the token
        reads as cancelled and :meth:`check` raises
        :class:`~repro.errors.DeadlineExceededError`.  ``None`` means no
        deadline — only an explicit :meth:`cancel` fires.
    """

    __slots__ = ("_event", "_deadline", "_reason", "_lock")

    def __init__(self, deadline_s: float | None = None) -> None:
        if deadline_s is not None and deadline_s <= 0:
            # A non-positive budget is already expired; normalise so
            # ``remaining()``/``expired`` behave instead of erroring.
            deadline_s = 0.0
        self._event = threading.Event()
        self._deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._reason: str | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self._deadline is not None and time.monotonic() >= self._deadline

    @property
    def cancelled(self) -> bool:
        """True once explicitly cancelled *or* past the deadline."""
        return self._event.is_set() or self.expired

    @property
    def reason(self) -> str:
        """Why the token is cancelled (empty string while live)."""
        if self._reason is not None:
            return self._reason
        if self.expired:
            return "deadline exceeded"
        return ""

    def remaining(self) -> float | None:
        """Seconds left on the deadline (``None`` = unbounded, ``0.0`` =
        expired).  Useful as a downstream wait timeout."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel explicitly (idempotent; first reason wins)."""
        with self._lock:
            if self._reason is None and not self.expired:
                self._reason = reason
        self._event.set()

    def check(self) -> None:
        """Raise if cancelled; the cooperative poll point.

        Raises :class:`~repro.errors.DeadlineExceededError` when the
        deadline fired, :class:`~repro.errors.OperationCancelledError`
        for an explicit cancel.
        """
        if self._event.is_set() and self._reason is not None:
            raise OperationCancelledError(f"operation cancelled: {self._reason}")
        if self.expired:
            raise DeadlineExceededError("operation deadline exceeded")
        if self._event.is_set():  # cancelled with no reason recorded
            raise OperationCancelledError("operation cancelled")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "live"
        rem = self.remaining()
        budget = "" if rem is None else f", remaining={rem:.3f}s"
        return f"CancelToken({state}{budget})"
