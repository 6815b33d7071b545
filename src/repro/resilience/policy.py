"""Retry, backoff, timeout, and failover policy for tree-node work.

A :class:`ResiliencePolicy` travels with a :class:`~repro.mrnet.Network`
and governs every collective phase:

* **retries** — a failed node attempt is re-run up to ``max_retries``
  times, sleeping an exponential backoff between rounds (the stand-in for
  MRNet tearing down and restarting a tool process);
* **deadlines** — ``leaf_timeout`` bounds one attempt's work; a straggler
  exceeding it fails that attempt with
  :class:`~repro.errors.LeafTimeoutError` instead of blocking the
  pipeline forever (preemptively on the ``shm`` pool and the ``tcp``
  agents, cooperatively — detected after the work returns — under the
  in-process ``LocalTransport``);
* **failover** — a node whose retry budget is exhausted is declared dead:
  a leaf's task is re-hosted on the least-loaded surviving sibling
  (subject to a device-capacity check), an internal node's filter work is
  adopted by its nearest live ancestor (how often one task may move is
  the :class:`~repro.mrnet.Network`'s rule).  Routing and payloads never
  change — only which process *executes* the work — so recovery is
  exactly-once per partition and the clustering output is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

__all__ = ["RetryPolicy", "ResiliencePolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule: ``base * factor**round``, capped."""

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff seconds must be >= 0")
        if self.backoff_factor < 1:
            raise ConfigError("backoff_factor must be >= 1")

    def backoff_seconds(self, round_index: int) -> float:
        """Sleep before retry round ``round_index`` (0-based)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_max, self.backoff_base * self.backoff_factor ** round_index)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a Network needs to survive faults.

    ``failover`` enables re-hosting after retry exhaustion.
    ``leaf_timeout`` is seconds per attempt, ``None`` disables deadlines.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    leaf_timeout: float | None = None
    failover: bool = True

    def __post_init__(self) -> None:
        if self.leaf_timeout is not None and self.leaf_timeout <= 0:
            raise ConfigError("leaf_timeout must be positive (or None)")

    @classmethod
    def fail_fast(cls, retries: int = 0) -> "ResiliencePolicy":
        """The seed-era contract: ``retries`` re-polls, no sleeping, no
        failover — a crash beyond the budget aborts the phase."""
        return cls(
            retry=RetryPolicy(max_retries=retries, backoff_base=0.0),
            failover=False,
        )
