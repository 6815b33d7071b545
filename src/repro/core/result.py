"""Pipeline result types."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.mrscan_gpu import MrScanGPUStats
from ..io.lustre import IOTrace
from ..merge.merger import MergeOutcome
from ..mrnet.packets import NetworkTrace
from ..points import NOISE
from ..resilience.faults import FaultEvent
from ..telemetry import Telemetry

__all__ = ["PhaseBreakdown", "VirtualBreakdown", "MrScanResult"]


@dataclass
class PhaseBreakdown:
    """Wall seconds per Mr. Scan phase (this host, not Titan)."""

    partition: float = 0.0
    cluster: float = 0.0
    merge: float = 0.0
    sweep: float = 0.0

    @property
    def total(self) -> float:
        return self.partition + self.cluster + self.merge + self.sweep

    @property
    def cluster_merge_sweep(self) -> float:
        """The Fig 9b aggregate."""
        return self.cluster + self.merge + self.sweep

    def as_dict(self) -> dict[str, float]:
        return {
            "partition": self.partition,
            "cluster": self.cluster,
            "merge": self.merge,
            "sweep": self.sweep,
            "total": self.total,
        }


@dataclass
class VirtualBreakdown:
    """Critical-path ("virtual parallel") seconds per phase.

    The in-process transports run all tree nodes on one host, so wall
    times sum over nodes; these figures reconstruct what each phase would
    take with one machine per process (slowest leaf for maps, heaviest
    root path for reductions) — the quantity the paper's scaling figures
    actually plot.  Computed by :mod:`repro.mrnet.schedule` from the
    recorded per-node compute times.
    """

    partition: float = 0.0
    cluster: float = 0.0
    merge: float = 0.0
    sweep: float = 0.0

    @property
    def total(self) -> float:
        return self.partition + self.cluster + self.merge + self.sweep

    @property
    def cluster_merge_sweep(self) -> float:
        return self.cluster + self.merge + self.sweep

    def as_dict(self) -> dict[str, float]:
        return {
            "partition": self.partition,
            "cluster": self.cluster,
            "merge": self.merge,
            "sweep": self.sweep,
            "total": self.total,
        }


@dataclass
class MrScanResult:
    """Output of one end-to-end Mr. Scan run.

    ``labels[i]`` is the global cluster of input point ``i`` (input order;
    ``NOISE`` = -1) and ``core_mask[i]`` its owner-authoritative core
    status.  Traces and per-leaf GPU stats feed the perf model and the
    benchmarks; ``timings`` are wall seconds on this host and
    ``virtual_timings`` the reconstructed parallel (critical-path) times.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    n_clusters: int
    timings: PhaseBreakdown
    virtual_timings: "VirtualBreakdown"
    n_leaves: int
    n_partition_nodes: int
    partition_io: IOTrace
    output_io: IOTrace
    gpu_stats: list[MrScanGPUStats] = field(default_factory=list)
    merge_outcomes: list[MergeOutcome] = field(default_factory=list)
    network_traces: dict[str, NetworkTrace] = field(default_factory=dict)
    leaf_point_counts: list[int] = field(default_factory=list)
    #: The run's telemetry bundle (spans + metrics); the shared no-op
    #: bundle when the run was not instrumented.
    telemetry: Telemetry | None = None
    #: Every fault observed across both MRNet trees (injected or real)
    #: and the recovery action taken, in occurrence order (capped — see
    #: ``fault_summary`` for exact totals).
    faults: list[FaultEvent] = field(default_factory=list)
    #: Exact aggregate fault counts (``total``/``dropped``/``by_kind``/
    #: ``by_action``) that survive the event-list cap.
    fault_summary: dict = field(default_factory=dict)
    #: Leaves whose output was recovered from a checkpoint instead of
    #: re-running the GPU clustering pass.
    checkpoint_hits: int = 0
    #: Phase-boundary invariant checking activity (a
    #: :class:`repro.validate.ValidationReport`) when the run had
    #: ``config.validate`` != "off"; None otherwise.  A report attached
    #: here is always clean — violations raise ``ValidationError``.
    validation: object | None = None
    #: Durability (repro.durability): True when this run resumed from a
    #: run directory rather than starting fresh.
    resumed: bool = False
    #: Phase names restored from checkpoints instead of re-executed
    #: (``"partition"``/``"merge"``/``"sweep"``; completed cluster leaves
    #: show up in ``checkpoint_hits``, not here).
    phases_restored: list[str] = field(default_factory=list)
    #: The run directory this run journaled into (None = not durable).
    run_dir: str | None = None
    #: Input rows stripped for non-finite coordinates/weights under
    #: ``config.drop_invalid`` (labels align with the cleaned input).
    n_dropped_invalid: int = 0

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))

    def cluster_sizes(self) -> dict[int, int]:
        labs, counts = np.unique(self.labels[self.labels != NOISE], return_counts=True)
        return {int(l): int(c) for l, c in zip(labs, counts)}

    def cluster_weights(self, weights: np.ndarray) -> dict[int, float]:
        """Aggregate the input's optional per-point weights per cluster.

        The input format carries "an optional weight that can be used for
        analysis of the clustered output" (§3); pass the same
        ``PointSet.weights`` column the pipeline clustered.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"weights ({weights.shape[0]}) and labels ({self.labels.shape[0]}) disagree"
            )
        out: dict[int, float] = {}
        for lab in np.unique(self.labels[self.labels != NOISE]):
            out[int(lab)] = float(weights[self.labels == lab].sum())
        return out

    @property
    def slowest_leaf_ops(self) -> int:
        """Distance ops of the busiest leaf — the cluster-phase critical path."""
        return max((s.total_distance_ops for s in self.gpu_stats), default=0)

    @property
    def total_densebox_eliminated(self) -> int:
        return sum(s.n_eliminated for s in self.gpu_stats)

    def summary(self) -> str:
        """Human-readable one-paragraph run report."""
        t = self.timings
        return (
            f"MrScan: {self.n_points:,} points -> {self.n_clusters} clusters, "
            f"{self.n_noise:,} noise | {self.n_leaves} leaves, "
            f"{self.n_partition_nodes} partition nodes | wall "
            f"partition {t.partition:.3f}s cluster {t.cluster:.3f}s "
            f"merge {t.merge:.3f}s sweep {t.sweep:.3f}s "
            f"(total {t.total:.3f}s) | dense box eliminated "
            f"{self.total_densebox_eliminated:,} points"
        )
