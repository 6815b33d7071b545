"""Packets and traffic accounting for the MRNet substrate.

Every payload moving along a tree edge is wrapped in a :class:`Packet`
with a byte-size estimate, and each network phase accumulates a
:class:`NetworkTrace`.  The perf model consumes the trace (packets per
level, bytes per edge) to charge tree latency at paper scale.

Shared-memory refs (:mod:`repro.runtime`) flow through packets like any
other payload, but their ``payload_bytes()`` hook reports the ~100-byte
pickled *handle* — the array they point at never travels, it is
materialized lazily at the receiver.  :func:`logical_nbytes` reports the
materialized size instead, so telemetry can account the traffic the
data plane avoided.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Packet", "NetworkTrace", "payload_nbytes", "logical_nbytes"]


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire-size estimate of a payload.

    Objects can opt in by exposing ``payload_bytes()``; numpy arrays use
    their buffer size; containers recurse; everything else falls back to
    ``sys.getsizeof``.
    """
    if payload is None:
        return 0
    probe = getattr(payload, "payload_bytes", None)
    if callable(probe):
        return int(probe())
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item) for item in payload) + 16
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()) + 16
    return int(sys.getsizeof(payload))


def logical_nbytes(payload: Any) -> int:
    """Materialized size of a payload: what :func:`payload_nbytes` would
    report if every shared-memory ref were replaced by its array.

    ``logical_nbytes(p) - payload_nbytes(p)`` is therefore the traffic a
    ref-carrying payload keeps off the wire (``runtime.bytes_avoided``).
    """
    probe = getattr(payload, "array_nbytes", None)
    if probe is not None and not callable(probe):
        return int(probe)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(logical_nbytes(item) for item in payload) + 16
    if isinstance(payload, dict):
        return sum(logical_nbytes(k) + logical_nbytes(v) for k, v in payload.items()) + 16
    return payload_nbytes(payload)


@dataclass(frozen=True)
class Packet:
    """One payload traversing one tree edge."""

    src: int
    dst: int
    tag: str
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("packet nbytes must be >= 0")


@dataclass
class NetworkTrace:
    """Ledger of one network phase (a reduce, multicast, or leaf map)."""

    packets: list[Packet] = field(default_factory=list)
    node_compute_seconds: dict[int, float] = field(default_factory=dict)

    def record(self, src: int, dst: int, tag: str, payload: Any) -> None:
        self.packets.append(
            Packet(src=int(src), dst=int(dst), tag=tag, nbytes=payload_nbytes(payload))
        )

    def add_compute(self, node: int, seconds: float) -> None:
        self.node_compute_seconds[node] = (
            self.node_compute_seconds.get(node, 0.0) + float(seconds)
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    @property
    def total_bytes(self) -> int:
        return sum(p.nbytes for p in self.packets)

    def bytes_into(self, node: int) -> int:
        """Bytes received by one node."""
        return sum(p.nbytes for p in self.packets if p.dst == node)
