"""Spans: where the time goes, with enough structure to draw a timeline.

A :class:`Tracer` records **spans** (named intervals with attributes) and
**instant events** (zero-duration markers such as a kernel launch).  Spans
nest: entering ``tracer.span(...)`` inside an open span records the new
span as a child, so exporters can reconstruct the call tree and Chrome's
trace viewer stacks them correctly.

Design constraints, in order:

1. **Zero overhead when off.**  The default pipeline runs with the
   module-level :data:`NOOP_TRACER`, whose every method is a constant-time
   no-op returning a shared singleton — no allocation, no clock read, no
   branch on an ``enabled`` flag at call sites.
2. **Thread/worker safety.**  Appends are guarded by a lock and the open
   span stack is thread-local, so concurrent tree nodes can record freely.
   Work executed in *other processes* (leaves on the ``shm`` pool or the
   ``tcp`` agents) records into a local ``Tracer`` and ships the drained
   records back with its result; the parent merges them with
   :meth:`Tracer.ingest`.  On Linux ``time.perf_counter`` is
   CLOCK_MONOTONIC, shared across processes, so the merged timelines
   align.
3. **Logical tracks.**  Records carry a ``pid``/``tid`` pair naming the
   *simulated* process (driver, partitioner tree, clustering tree, GPU
   leaf) rather than host threads — the timeline should look like the
   paper's machine, not like this Python host.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

__all__ = [
    "SpanRecord",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "PID_DRIVER",
    "PID_PARTITION",
    "PID_TREE",
    "PID_GPU",
    "TRACK_NAMES",
]

#: Logical process ids used across the pipeline's instrumentation.
PID_DRIVER = 0  # the pipeline driver: phases, exporters
PID_PARTITION = 1  # the flat partitioner tree (one tid per node)
PID_TREE = 2  # the cluster/merge/sweep tree (one tid per node)
PID_GPU = 3  # simulated GPGPU leaves (one tid per leaf)

TRACK_NAMES: dict[int, str] = {
    PID_DRIVER: "driver",
    PID_PARTITION: "partition tree",
    PID_TREE: "cluster tree",
    PID_GPU: "gpu leaves",
}


@dataclass(frozen=True)
class SpanRecord:
    """One completed span or instant event.

    ``ts``/``dur`` are seconds on the tracer's monotonic clock; ``ph`` is
    the Chrome trace phase ("X" complete span, "i" instant).  ``parent``
    is the id of the enclosing span (-1 at the top level) and ``depth``
    its nesting level — both derived from the per-thread open-span stack.
    """

    name: str
    cat: str
    ph: str
    ts: float
    dur: float
    pid: int
    tid: int
    span_id: int
    parent: int
    depth: int
    args: dict[str, Any] = field(default_factory=dict)

    def shifted(self, dt: float) -> "SpanRecord":
        return replace(self, ts=self.ts + dt)


class _SpanHandle:
    """Context manager for one open span."""

    __slots__ = ("_tracer", "name", "cat", "pid", "tid", "args", "_t0", "_id", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, pid: int, tid: int, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.args = args

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes to the span while it is open."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        tr = self._tracer
        stack = tr._stack()
        self._parent, self._depth = (stack[-1][0], stack[-1][1] + 1) if stack else (-1, 0)
        self._id = tr._next_id()
        stack.append((self._id, self._depth))
        self._t0 = tr._clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        tr = self._tracer
        t1 = tr._clock()
        tr._stack().pop()
        tr._append(
            SpanRecord(
                name=self.name,
                cat=self.cat,
                ph="X",
                ts=self._t0,
                dur=t1 - self._t0,
                pid=self.pid,
                tid=self.tid,
                span_id=self._id,
                parent=self._parent,
                depth=self._depth,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Collects spans and instant events on a monotonic clock."""

    enabled = True

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = 0
        #: Clock origin — exporters subtract it so timelines start at ~0.
        self.origin = self._clock()

    # ------------------------------------------------------------------ #
    # Internal plumbing
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def span(
        self, name: str, *, cat: str = "pipeline", pid: int = PID_DRIVER, tid: int = 0, **attrs: Any
    ) -> _SpanHandle:
        """Open a nested span as a context manager."""
        return _SpanHandle(self, name, cat, pid, tid, dict(attrs))

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "pipeline",
        pid: int = PID_DRIVER,
        tid: int = 0,
        **attrs: Any,
    ) -> None:
        """Record a span retroactively from measured start/end times.

        Used where the duration is measured elsewhere (e.g. node work timed
        inside a transport batch) — the span cannot participate in the
        nesting stack, so it records at top level of its track.
        """
        self._append(
            SpanRecord(
                name=name,
                cat=cat,
                ph="X",
                ts=float(start),
                dur=float(end) - float(start),
                pid=pid,
                tid=tid,
                span_id=self._next_id(),
                parent=-1,
                depth=0,
                args=dict(attrs),
            )
        )

    def instant(
        self, name: str, *, cat: str = "event", pid: int = PID_DRIVER, tid: int = 0, **attrs: Any
    ) -> None:
        """Record a zero-duration marker (kernel launch, transfer, fault)."""
        self._append(
            SpanRecord(
                name=name,
                cat=cat,
                ph="i",
                ts=self._clock(),
                dur=0.0,
                pid=pid,
                tid=tid,
                span_id=self._next_id(),
                parent=-1,
                depth=0,
                args=dict(attrs),
            )
        )

    # ------------------------------------------------------------------ #
    # Merging and reading
    # ------------------------------------------------------------------ #

    def drain(self) -> list[SpanRecord]:
        """Remove and return all records (used by worker-side tracers)."""
        with self._lock:
            out, self._records = self._records, []
            return out

    def ingest(self, records: Iterable[SpanRecord], *, pid: int | None = None, tid: int | None = None) -> None:
        """Merge records drained from another tracer (e.g. a worker's).

        ``pid``/``tid`` re-home the records onto a track of this tracer;
        span ids are rewritten to stay unique (parent links are preserved
        within the ingested batch).
        """
        records = list(records)
        if not records:
            return
        with self._lock:
            base = self._counter
            self._counter += len(records) + 1
        remap = {r.span_id: base + i + 1 for i, r in enumerate(records)}
        for r in records:
            self._append(
                replace(
                    r,
                    pid=r.pid if pid is None else pid,
                    tid=r.tid if tid is None else tid,
                    span_id=remap[r.span_id],
                    parent=remap.get(r.parent, -1),
                )
            )

    @property
    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def spans(self) -> list[SpanRecord]:
        return [r for r in self.records if r.ph == "X"]

    def instants(self) -> list[SpanRecord]:
        return [r for r in self.records if r.ph == "i"]


class _NoopSpanHandle:
    """Shared do-nothing span handle."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpanHandle":
        return self

    def __enter__(self) -> "_NoopSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_HANDLE = _NoopSpanHandle()


class NoopTracer:
    """A tracer whose every operation is a constant-time no-op.

    The default for every pipeline run: call sites never branch on an
    enabled flag, they just call through, and this class absorbs the call
    without allocating.
    """

    enabled = False
    origin = 0.0

    def span(self, name: str, **kwargs: Any) -> _NoopSpanHandle:
        return _NOOP_HANDLE

    def add_span(self, name: str, start: float, end: float, **kwargs: Any) -> None:
        return None

    def instant(self, name: str, **kwargs: Any) -> None:
        return None

    def drain(self) -> list[SpanRecord]:
        return []

    def ingest(self, records: Iterable[SpanRecord], **kwargs: Any) -> None:
        return None

    @property
    def records(self) -> list[SpanRecord]:
        return []

    def spans(self) -> list[SpanRecord]:
        return []

    def instants(self) -> list[SpanRecord]:
        return []


#: Shared no-op tracer — the default everywhere telemetry is optional.
NOOP_TRACER = NoopTracer()
