"""Titan cost constants and per-phase time laws.

Every constant is either a published hardware figure (K20, PCIe gen2,
Gemini link) or fitted to an anchor the paper reports; the derivations are
in the field comments.  The model aims for the *shape* of the paper's
curves — who wins, where the knees are — not absolute-second equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError

__all__ = ["TitanCostModel"]


@dataclass(frozen=True)
class TitanCostModel:
    """Time laws for a Mr. Scan run on Titan-class hardware."""

    # --- GPU (NVIDIA K20) -------------------------------------------------
    #: Effective pairwise-distance evaluations per second.  A K20 peaks at
    #: ~3.5 TFLOP/s SP, but DBSCAN neighbor scans are irregular and
    #: memory-bound (gather from KD-tree leaves, divergent branches), so
    #: the *useful* rate is orders of magnitude lower; 1e9/s reproduces
    #: the paper's visible MinPts separation and the mid-scale dense-box
    #: dip of Fig 9c.
    gpu_distance_ops_per_sec: float = 1e9
    #: Host->device / device->host bandwidth (PCIe gen2 x16 sustained).
    pcie_bandwidth: float = 5.5e9
    #: Seconds per kernel launch (driver overhead, bulk-issued).
    kernel_launch_overhead: float = 6e-6
    #: Fixed per-leaf setup (context, allocations).
    gpu_fixed_overhead: float = 1.5
    #: Seconds per point of linear work no optimization removes: KD-tree
    #: build to dense-box granularity, box marking, label writes.  This is
    #: the dense-box floor — the reason the slowest (single-dense-cell)
    #: leaf keeps growing at 6.5 B points (§5.1.1) even though its
    #: distance work is eliminated.
    gpu_per_point_cost: float = 2e-6

    # --- Lustre (Spider-era) ----------------------------------------------
    #: Aggregate streaming read bandwidth available to the partitioner's
    #: P clients.  Fitted: reading 6.5 B x 32 B = 208 GB in ~224 s
    #: (29.92 % of a ~750 s partition phase) => ~0.93 GB/s effective for
    #: 128 clients on a busy centre-wide file system.
    read_bandwidth_total: float = 0.95e9
    #: Aggregate bandwidth for large sequential writes.
    write_bandwidth_total: float = 0.8e9
    #: Seconds per small *random* write RPC at offset (lock contention,
    #: seek, OST round trip).  Fitted: the 8192-partition write taking
    #: ~400 s with each of 128 clients issuing ~2x8192 offset writes
    #: serially => ~24 ms per op.
    small_write_latency: float = 0.024
    #: Small random writes also move bytes; effective per-client bandwidth
    #: while doing offset writes.
    small_write_bandwidth: float = 40e6

    # --- MRNet / ALPS ------------------------------------------------------
    #: Per-run fixed cost: aprun job launches for the two trees, Lustre
    #: open/metadata, MRNet bootstrap.  Fitted from the paper's growth
    #: ratios: 4096x data gives only 18.5-31.7x time, so the smallest
    #: (1.6 M / 2-leaf) configuration must cost ~35-75 s — overwhelmingly
    #: constant overhead.
    job_fixed_overhead: float = 30.0
    #: Seconds of job-launch cost per process ("either linear behavior in
    #: Cray ALPS or the 256-way fanouts", §5.1.1).
    process_startup: float = 0.012
    #: Per-tree-level latency of a reduction/multicast wave.
    tree_level_latency: float = 0.004
    #: Tree link bandwidth (Gemini-era, conservative).
    link_bandwidth: float = 2e9
    #: Seconds an internal node spends merging one child summary byte.
    merge_cpu_per_byte: float = 2.5e-9

    # --- Network partition distribution (the §6 future-work path) ----------
    #: Per-node NIC bandwidth for sending partition data directly to the
    #: clustering leaves instead of through Lustre (Gemini-era injection
    #: bandwidth, conservative).
    nic_bandwidth: float = 3e9
    #: Per-message latency for partition-distribution sends.
    message_latency: float = 20e-6

    # --- Output ------------------------------------------------------------
    #: Aggregate bandwidth for the sweep's parallel output write (leaves
    #: write disjoint sequential regions).
    output_bandwidth_total: float = 5e9

    # ------------------------------------------------------------------ #
    # Phase laws
    # ------------------------------------------------------------------ #

    def time_partition(
        self,
        n_points: int,
        n_partition_nodes: int,
        n_partitions: int,
        *,
        shadow_fraction: float = 0.15,
        record_bytes: int = 32,
        mode: str = "lustre",
    ) -> dict[str, float]:
        """Partition-phase seconds, split into read / histogram / write.

        ``mode="lustre"`` is the paper's implementation: reads are large
        and sequential (each node streams its input slice); writes are the
        §5.1.1 pathology — every partitioner node holds a random data
        slice and so contributes a small write at a specific offset of
        nearly *every* partition (about two offset writes per partition
        per node: body + shadow).

        ``mode="network"`` is the §6 future-work path: partition data is
        sent as messages over the interconnect directly to the clustering
        leaves, replacing the small-random-write wall with per-message
        latency plus NIC streaming.
        """
        if n_points <= 0 or n_partition_nodes <= 0 or n_partitions <= 0:
            raise SimulationError("partition sizes must be positive")
        if mode not in ("lustre", "network"):
            raise SimulationError(f"unknown partition mode {mode!r}")
        total_bytes = n_points * record_bytes
        t_read = total_bytes / self.read_bandwidth_total

        # Histogram + reduce + plan: cells stream once; tiny next to I/O.
        t_histogram = n_points * 2.0e-10 + 0.05 * n_partition_nodes**0.5

        out_bytes = total_bytes * (1.0 + shadow_fraction)
        ops_per_node = 2.0 * n_partitions  # body + shadow per partition
        bytes_per_node = out_bytes / n_partition_nodes
        if mode == "network":
            t_write = (
                ops_per_node * self.message_latency
                + bytes_per_node / self.nic_bandwidth
            )
        else:
            per_op_bytes = bytes_per_node / max(ops_per_node, 1.0)
            # Large per-op payloads stream; small ones pay the RPC latency.
            stream_fraction = min(1.0, per_op_bytes / (4 << 20))
            t_write_ops = (
                ops_per_node * self.small_write_latency * (1.0 - 0.5 * stream_fraction)
            )
            t_write_bytes = bytes_per_node / (
                self.small_write_bandwidth
                + stream_fraction * (self.write_bandwidth_total / n_partition_nodes)
            )
            t_write = t_write_ops + t_write_bytes
        return {
            "read": t_read,
            "histogram": t_histogram,
            "write": t_write,
            "total": t_read + t_histogram + t_write,
        }

    def time_gpu_leaf(
        self,
        distance_ops: float,
        transfer_bytes: float,
        launches: float,
        n_points: float = 0.0,
    ) -> float:
        """Seconds one leaf's GPU spends clustering its partition."""
        if distance_ops < 0 or transfer_bytes < 0 or launches < 0 or n_points < 0:
            raise SimulationError("negative GPU work")
        return (
            self.gpu_fixed_overhead
            + distance_ops / self.gpu_distance_ops_per_sec
            + transfer_bytes / self.pcie_bandwidth
            + launches * self.kernel_launch_overhead
            + n_points * self.gpu_per_point_cost
        )

    def time_startup(self, n_processes: int) -> float:
        """ALPS/MRNet instantiation: fixed job cost + linear per process."""
        if n_processes < 0:
            raise SimulationError("negative process count")
        return self.job_fixed_overhead + self.process_startup * n_processes

    def time_merge(
        self, depth: int, max_fanout: int, summary_bytes: float
    ) -> float:
        """One upstream reduction wave: per level, children stream their
        summaries to the parent, which merges them."""
        if depth < 1:
            raise SimulationError("depth must be >= 1")
        per_level = (
            self.tree_level_latency
            + max_fanout * summary_bytes / self.link_bandwidth
            + max_fanout * summary_bytes * self.merge_cpu_per_byte
        )
        return (depth - 1) * per_level

    def time_sweep(
        self,
        depth: int,
        max_fanout: int,
        assignment_bytes: float,
        n_points: int,
        record_bytes: int = 40,
    ) -> float:
        """Downstream ID multicast plus the parallel output write."""
        per_level = self.tree_level_latency + max_fanout * assignment_bytes / self.link_bandwidth
        t_down = (depth - 1) * per_level
        t_write = n_points * record_bytes / self.output_bandwidth_total
        return t_down + t_write
