"""Pipeline configuration.

Defaults follow the paper's Twitter experiments: Eps=0.1, 256-way tree
fanout, dense box on, partition rebalancing on.  The partition-node count
defaults to the Table 1 schedule via :func:`table1_partition_nodes`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..gpu.device import DeviceConfig
from ..mrnet.topology import PAPER_FANOUT
from ..resilience.faults import FaultPlan
from ..resilience.policy import ResiliencePolicy, RetryPolicy
from ..runtime.executor import TRANSPORT_NAMES

__all__ = ["MrScanConfig", "table1_partition_nodes", "TABLE1_CONFIGS"]

#: Table 1 of the paper: (points, internal processes, leaves, partition nodes).
TABLE1_CONFIGS: tuple[tuple[int, int, int, int], ...] = (
    (1_600_000, 0, 2, 2),
    (6_400_000, 0, 8, 4),
    (25_600_000, 0, 32, 8),
    (102_400_000, 0, 128, 16),
    (409_600_000, 2, 512, 32),
    (1_638_400_000, 8, 2048, 64),
    (3_276_800_000, 16, 4096, 96),
    (6_553_600_000, 32, 8192, 128),
)


def table1_partition_nodes(n_leaves: int) -> int:
    """Partition-node count for a leaf count, per the Table 1 schedule.

    Exact Table 1 rows are honoured; other leaf counts interpolate
    geometrically between the nearest rows (and clamp at the ends).
    """
    if n_leaves < 1:
        raise ConfigError("n_leaves must be >= 1")
    rows = [(leaves, pnodes) for _, _, leaves, pnodes in TABLE1_CONFIGS]
    for leaves, pnodes in rows:
        if n_leaves == leaves:
            return pnodes
    if n_leaves < rows[0][0]:
        return min(n_leaves, rows[0][1])
    for (l0, p0), (l1, p1) in zip(rows, rows[1:]):
        if l0 < n_leaves < l1:
            # Geometric interpolation matches the roughly-square-root
            # growth of the schedule.
            import math

            t = (math.log(n_leaves) - math.log(l0)) / (math.log(l1) - math.log(l0))
            return max(1, round(p0 * (p1 / p0) ** t))
    return rows[-1][1]


@dataclass
class MrScanConfig:
    """All pipeline knobs in one place.

    Parameters mirror the paper: ``eps``/``minpts`` are the DBSCAN
    parameters, ``n_leaves`` is the clustering-tree leaf count (one
    simulated GPGPU per leaf), ``n_partition_nodes`` sizes the separate
    partitioner tree (Table 1 schedule when None), ``fanout`` shapes the
    cluster/merge/sweep tree.
    """

    eps: float
    minpts: int
    n_leaves: int
    n_partition_nodes: int | None = None
    fanout: int = PAPER_FANOUT
    use_densebox: bool = True
    rebalance_partitions: bool = True
    partition_output: str = "lustre"  # or "network" (the §6 future-work path)
    device: DeviceConfig = field(default_factory=DeviceConfig)
    materialize_dir: str | None = None
    #: Collect spans/metrics for this run (repro.telemetry).  Off by
    #: default: the pipeline then uses the shared no-op tracer and pays
    #: nothing.  ``run_pipeline(..., telemetry=...)`` can also supply a
    #: pre-built Telemetry, which takes precedence over this flag.
    telemetry: bool = False
    #: Faults to inject (chaos testing): a :class:`repro.resilience.FaultPlan`
    #: consulted per (node, phase, attempt) across both MRNet trees.
    fault_plan: FaultPlan | None = None
    #: Retry budget per tree node before it is declared dead.
    max_retries: int = 2
    #: First backoff sleep between retry rounds (doubles per round; 0
    #: disables sleeping, which chaos tests use to stay fast).
    backoff_base: float = 0.05
    #: Seconds one leaf attempt may take before it fails with
    #: LeafTimeoutError (None = no deadline).
    leaf_timeout: float | None = None
    #: Re-host a dead node's work (leaf -> surviving sibling, internal ->
    #: live ancestor) instead of aborting once retries are exhausted.
    failover: bool = True
    #: Runtime invariant checking at phase boundaries (repro.validate):
    #: ``off`` (default) pays nothing, ``cheap`` runs the O(n) bookkeeping
    #: checks, ``full`` adds the geometric re-verifications (shadow
    #: Eps-completeness, Fig-5 representative coverage, sweep recombination).
    validate: str = "off"
    #: Execution backend for both MRNet trees, one of
    #: :data:`~repro.runtime.TRANSPORT_NAMES`: ``local`` (sequential
    #: in-process), ``shm`` (localhost worker agents over a zero-copy
    #: arena) or ``tcp`` (socket-framed worker agents).  ``None`` defers to the
    #: ``MRSCAN_TRANSPORT`` environment variable and then to ``local``.
    #: Ignored when ``run_pipeline`` is handed an explicit transport object.
    transport: str | None = None
    #: Worker count for the shm/tcp transports (None = CPU count).
    transport_workers: int | None = None
    #: Durable-run directory (repro.durability): write-ahead journal +
    #: phase checkpoints live here, and leaf spills in its
    #: ``checkpoints/leaves`` subdirectory (a retried or failed-over leaf
    #: resumes from its spill instead of re-clustering).  None = no
    #: durability (and no journal/checkpoint/spill overhead).
    run_dir: str | None = None
    #: Resume a crashed run from ``run_dir``: restore completed phases
    #: from their checkpoints and re-execute only unfinished work.
    #: Requires ``run_dir``; label-affecting config and the dataset must
    #: match the original run (fingerprint-verified).
    resume: bool = False
    #: Strip NaN/Inf input rows (with a count on the result) instead of
    #: rejecting them with DataValidationError.
    drop_invalid: bool = False

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.minpts < 1:
            raise ConfigError(f"minpts must be >= 1, got {self.minpts}")
        if self.n_leaves < 1:
            raise ConfigError(f"n_leaves must be >= 1, got {self.n_leaves}")
        if self.fanout < 2:
            raise ConfigError(f"fanout must be >= 2, got {self.fanout}")
        if self.n_partition_nodes is not None and self.n_partition_nodes < 1:
            raise ConfigError("n_partition_nodes must be >= 1")
        if self.partition_output not in ("lustre", "network"):
            raise ConfigError(
                f"partition_output must be 'lustre' or 'network', got "
                f"{self.partition_output!r}"
            )
        if self.partition_output == "network" and self.materialize_dir is not None:
            raise ConfigError("materialize_dir requires the lustre partition output")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")
        if self.leaf_timeout is not None and self.leaf_timeout <= 0:
            raise ConfigError("leaf_timeout must be positive (or None)")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigError(
                f"fault_plan must be a FaultPlan, got {type(self.fault_plan)!r}"
            )
        if self.validate not in ("off", "cheap", "full"):
            raise ConfigError(
                f"validate must be 'off', 'cheap' or 'full', got "
                f"{self.validate!r}"
            )
        if self.transport is not None and self.transport not in TRANSPORT_NAMES:
            raise ConfigError(
                f"transport must be one of {TRANSPORT_NAMES}, got {self.transport!r}"
            )
        if self.transport_workers is not None and self.transport_workers < 1:
            raise ConfigError("transport_workers must be >= 1")
        if self.resume and self.run_dir is None:
            raise ConfigError("resume requires run_dir")

    def resolved_transport(self) -> str:
        """The transport name this run executes under: the explicit
        ``transport`` field, else ``MRSCAN_TRANSPORT`` (the CI matrix
        hook), else ``local``."""
        if self.transport is not None:
            return self.transport
        env = os.environ.get("MRSCAN_TRANSPORT", "").strip().lower()
        if env:
            if env not in TRANSPORT_NAMES:
                raise ConfigError(
                    f"MRSCAN_TRANSPORT must be one of {TRANSPORT_NAMES}, got {env!r}"
                )
            return env
        return "local"

    @property
    def partition_nodes(self) -> int:
        """Resolved partitioner size (Table 1 schedule by default)."""
        if self.n_partition_nodes is not None:
            return self.n_partition_nodes
        return table1_partition_nodes(self.n_leaves)

    def resilience_policy(self) -> ResiliencePolicy:
        """The :class:`~repro.resilience.ResiliencePolicy` both MRNet
        trees run under, assembled from the retry/timeout/failover knobs."""
        return ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=self.max_retries, backoff_base=self.backoff_base
            ),
            leaf_timeout=self.leaf_timeout,
            failover=self.failover,
        )
