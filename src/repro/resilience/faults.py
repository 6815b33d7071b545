"""Structured fault model: what fails, where, when, and how.

Titan-scale runs (8,192 GPGPU nodes, §5) make node failure a statistical
certainty, and MRNet's answer is restarting tool processes.  This module
models it with a *plan* of typed faults, so chaos runs are reproducible
and serializable:

* :class:`FaultSpec` — one fault: ``(node, phase, attempt)`` plus a kind
  (``crash``, ``slowdown``, ``oom``, ``kill``), a crash point
  (``before``/``after`` the node's work — "after" models a process that
  dies having completed and checkpointed its work but before delivering
  the result), and an optional ``permanent`` flag (the node is dead for
  good and must be failed over).  ``kill`` is the hard variant of
  ``crash``: inside a worker process it SIGKILLs the process outright
  (exercising the transports' self-healing pool respawn), while under the
  in-process local transport — where a real SIGKILL would take the driver
  down — it downgrades to a no-op, so the same plan is safe everywhere.
* :class:`FaultPlan` — an ordered set of specs, JSON round-trippable, with
  a :meth:`FaultPlan.seeded` generator for reproducible random chaos.
  :meth:`FaultPlan.lookup` is the poll point the
  :class:`~repro.mrnet.Network` consults per ``(node, phase, attempt)``;
  it is pure with respect to the plan (the caller's retry loop supplies
  the attempt), so one plan serves both MRNet trees of a run.
* :class:`FaultEvent` / :class:`FaultLog` — what actually happened during
  a run: every observed fault and the recovery action taken, in a capped
  log whose per-kind totals are never lost to the cap.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ..errors import ConfigError

__all__ = [
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "CRASH_POINTS",
    "FaultSpec",
    "FaultPlan",
    "FaultEvent",
    "FaultLog",
]

#: Supported fault kinds: a process crash, a straggler delay, a device
#: OOM, a hard SIGKILL of the hosting worker process, and the network
#: kinds — a severed connection, a lost (dropped) task send, and a slow
#: link delaying the send.  The network kinds are injected at the TCP
#: transport's framing layer (:mod:`repro.mrnet.tcp`) and are no-ops
#: under the single-host transports, so one plan is safe everywhere.
FAULT_KINDS: tuple[str, ...] = (
    "crash", "slowdown", "oom", "kill", "disconnect", "drop", "netdelay",
)
#: The subset injected at the network boundary rather than in-band.
NET_FAULT_KINDS: tuple[str, ...] = ("disconnect", "drop", "netdelay")
#: When a crash fires relative to the node's work.
CRASH_POINTS: tuple[str, ...] = ("before", "after")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at ``(node, phase, attempt)``.

    ``phase`` matches either the collective kind (``map``/``reduce``/
    ``multicast``), the operation name the pipeline uses (``cluster``,
    ``merge``, ``sweep``, ``partition.histogram``, ...), or ``*`` for any.
    ``attempt`` is 0-based; a spec fires on exactly that attempt unless
    ``permanent`` is set, in which case it fires on every attempt from
    ``attempt`` on (a dead node — recoverable only by failover).
    """

    node: int
    phase: str = "*"
    attempt: int = 0
    kind: str = "crash"
    point: str = "before"  # crash only: before/after the node's work
    delay_seconds: float = 0.0  # slowdown only
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r} (have {FAULT_KINDS})")
        if self.point not in CRASH_POINTS:
            raise ConfigError(f"crash point must be one of {CRASH_POINTS}, got {self.point!r}")
        if self.attempt < 0:
            raise ConfigError("fault attempt must be >= 0")
        if self.delay_seconds < 0:
            raise ConfigError("delay_seconds must be >= 0")
        if self.kind == "slowdown" and self.delay_seconds == 0:
            raise ConfigError("slowdown faults need delay_seconds > 0")
        if self.kind == "netdelay" and self.delay_seconds == 0:
            raise ConfigError("netdelay faults need delay_seconds > 0")

    def matches(self, node: int, phase: str, name: str, attempt: int) -> bool:
        if node != self.node:
            return False
        if self.phase not in ("*", phase, name):
            return False
        if self.permanent:
            return attempt >= self.attempt
        return attempt == self.attempt

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultSpec":
        return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serializable collection of :class:`FaultSpec`.

    The first matching spec wins at each poll.  ``seed`` records how a
    random plan was generated (documentation only — the specs themselves
    are fully materialized, so a loaded plan replays identically).
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def lookup(self, node: int, phase: str, name: str, attempt: int) -> FaultSpec | None:
        for spec in self.faults:
            if spec.matches(node, phase, name, attempt):
                return spec
        return None

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [f.as_dict() for f in self.faults]},
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in payload.get("faults", ())),
            seed=payload.get("seed"),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    @classmethod
    def seeded(
        cls,
        seed: int,
        nodes: Sequence[int],
        *,
        phases: Sequence[str] = ("map", "reduce", "multicast"),
        n_faults: int = 4,
        kinds: Sequence[str] = ("crash", "slowdown"),
        max_attempt: int = 1,
        max_delay: float = 0.02,
        permanent_fraction: float = 0.0,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same plan, every time."""
        import numpy as np

        if not nodes:
            raise ConfigError("seeded fault plan needs at least one candidate node")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for _ in range(int(n_faults)):
            kind = str(kinds[int(rng.integers(len(kinds)))])
            permanent = kind == "crash" and bool(rng.random() < permanent_fraction)
            specs.append(
                FaultSpec(
                    node=int(nodes[int(rng.integers(len(nodes)))]),
                    phase=str(phases[int(rng.integers(len(phases)))]),
                    attempt=0 if permanent else int(rng.integers(max_attempt + 1)),
                    kind=kind,
                    point=str(CRASH_POINTS[int(rng.integers(2))]) if kind == "crash" else "before",
                    delay_seconds=(
                        float(rng.uniform(0.001, max_delay))
                        if kind in ("slowdown", "netdelay")
                        else 0.0
                    ),
                    permanent=permanent,
                )
            )
        return cls(faults=tuple(specs), seed=int(seed))

    def describe(self) -> str:
        by_kind: dict[str, int] = {}
        for f in self.faults:
            by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())) or "empty"
        return f"FaultPlan(seed={self.seed}, {len(self.faults)} fault(s): {kinds})"


@dataclass(frozen=True)
class FaultEvent:
    """One observed fault (or recovery action) during a run.

    ``action`` is what the resilience layer did about it: ``retry`` (the
    attempt will be re-run after backoff), ``failover`` (the node was
    declared dead and its work re-hosted), ``recovered`` (an OOM retried
    with a split partition), or ``abort`` (budgets exhausted, the phase
    raised).
    """

    node: int
    phase: str
    name: str
    attempt: int
    kind: str
    action: str
    detail: str = ""


class FaultLog:
    """A capped fault-event log whose aggregate counts are exact.

    The per-event list is bounded by ``cap`` (oldest events drop first) so
    a pathological chaos run cannot grow memory without bound, but the
    by-kind and by-action counters keep counting past the cap.
    """

    def __init__(self, cap: int = 1000) -> None:
        if cap < 1:
            raise ConfigError("fault log cap must be >= 1")
        self.cap = int(cap)
        self._events: list[FaultEvent] = []
        self.total = 0
        self.dropped = 0
        self.by_kind: dict[str, int] = {}
        self.by_action: dict[str, int] = {}

    def append(self, event: FaultEvent) -> None:
        self.total += 1
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        self.by_action[event.action] = self.by_action.get(event.action, 0) + 1
        self._events.append(event)
        if len(self._events) > self.cap:
            n_drop = len(self._events) - self.cap
            del self._events[:n_drop]
            self.dropped += n_drop

    def extend(self, events: Iterable[FaultEvent]) -> None:
        for event in events:
            self.append(event)

    @property
    def events(self) -> list[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __getitem__(self, i: int) -> FaultEvent:
        return self._events[i]

    def summary(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_action": dict(sorted(self.by_action.items())),
        }
