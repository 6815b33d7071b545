"""The distributed partitioner (§3.1.3).

Implementation of the paper's flat-topology MRNet partitioner:

1. the input file is spread across N partitioner leaves (each holds a
   random slice — the input is in arbitrary order);
2. each leaf histograms its slice into Eps×Eps cell counts — "the only
   information needed" — and the counts reduce up to the root;
3. the root serially forms the partition boundaries (§3.1.2) and
   broadcasts them;
4. each leaf writes its points "to the correct position in a single
   output file in parallel" — which makes every leaf contribute a small
   random write to nearly every partition, the I/O pattern behind the
   paper's partition-phase scaling wall — and the root emits the offset
   metadata file.

All file traffic is recorded into an :class:`repro.io.IOTrace` whether or
not a real file is produced (pass ``workdir`` to also materialise the
partition file on disk).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import PartitionError
from ..io.lustre import IOTrace
from ..io.partition_files import PartitionFileSet
from ..gpu.treeindex import runs as run_positions
from ..mrnet import FunctionFilter, Network, NetworkTrace, Topology, Transport
from ..mrnet.packets import Packet
from ..points import PointSet
from ..telemetry.tracer import NOOP_TRACER, PID_PARTITION
from .grid import GridHistogram
from .partitioner import Router, form_partitions, gather
from .plan import PartitionPlan

__all__ = ["DistributedPartitioner", "PartitionPhaseResult"]

#: Bytes per point record in the partition file (id, x, y, weight).
RECORD_BYTES = 32


def _merge_histograms(payloads: Sequence[GridHistogram]) -> GridHistogram:
    """Histogram-reduction filter body (module-level for pickling)."""
    if not payloads:
        raise PartitionError("histogram reduction with no children")
    return reduce(GridHistogram.merge, payloads)


@dataclass
class _LeafHistogramTask:
    """Payload for the leaf histogram step (picklable).

    ``points`` is either the slice itself or, under a staging transport
    (:class:`repro.runtime.ShmTransport`), its shared-memory ref — the
    worker materializes a zero-copy view either way.
    """

    points: PointSet  # or repro.runtime.PointSetRef
    eps: float

    def payload_bytes(self) -> int:
        """Wire size: a ref-carrying task costs its handle, not the slice."""
        from ..mrnet.packets import payload_nbytes

        return payload_nbytes(self.points) + 16


def _leaf_histogram(task: _LeafHistogramTask) -> GridHistogram:
    from ..runtime.arena import as_pointset

    return GridHistogram.from_points(as_pointset(task.points), task.eps)


@dataclass
class PartitionPhaseResult:
    """Everything the partition phase produces."""

    plan: PartitionPlan
    partitions: list[tuple[PointSet, PointSet]]
    io_trace: IOTrace
    reduce_trace: NetworkTrace
    multicast_trace: NetworkTrace
    map_trace: NetworkTrace
    n_partition_nodes: int
    file_set: PartitionFileSet | None = None
    # Always 0; kept so partition checkpoints keep their field layout.
    n_shadow_points_saved: int = 0
    distribute_trace: NetworkTrace | None = None  # network output mode
    root_form_seconds: float = 0.0  # serial plan forming at the root
    route_seconds: dict[int, float] = field(default_factory=dict)  # per leaf
    fault_events: list = field(default_factory=list)  # resilience.FaultEvent

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def virtual_seconds(self) -> float:
        """Parallel (critical-path) time of the partition phase.

        Slowest histogram leaf + reduction path + serial root forming +
        slowest routing leaf — what the phase costs when every
        partitioner node is its own machine.
        """
        from ..mrnet.schedule import map_virtual_time, reduce_critical_path
        from ..mrnet.topology import Topology

        topo = Topology.flat(self.n_partition_nodes)
        return (
            map_virtual_time(self.map_trace)
            + reduce_critical_path(topo, self.reduce_trace)
            + self.root_form_seconds
            + max(self.route_seconds.values(), default=0.0)
        )


class DistributedPartitioner:
    """Run the partition phase over an MRNet flat tree."""

    def __init__(
        self,
        eps: float,
        minpts: int,
        n_partition_nodes: int,
        *,
        transport: Transport | None = None,
        rebalance: bool = True,
        output_mode: str = "lustre",
        tracer=None,
        fault_injector=None,
        resilience=None,
    ) -> None:
        if n_partition_nodes < 1:
            raise PartitionError("need at least one partitioner node")
        if output_mode not in ("lustre", "network"):
            raise PartitionError(f"unknown output_mode {output_mode!r}")
        self.tracer = tracer or NOOP_TRACER
        self.eps = float(eps)
        self.minpts = int(minpts)
        self.n_partition_nodes = int(n_partition_nodes)
        self.transport = transport
        self.rebalance = rebalance
        #: "lustre" writes partitions to the shared file (§3.1.3, the
        #: paper's implementation); "network" sends each contribution as a
        #: message straight to the owning clustering leaf — the paper's
        #: planned fix for the partition-phase I/O wall (§6).
        self.output_mode = output_mode
        #: Optional fault injection + recovery policy for the partitioner
        #: tree (see :mod:`repro.resilience`); faults observed during the
        #: phase surface on ``PartitionPhaseResult.fault_events``.
        self.fault_injector = fault_injector
        self.resilience = resilience

    # ------------------------------------------------------------------ #

    def run_from_file(
        self,
        input_path: str | Path,
        n_partitions: int,
        *,
        workdir: str | Path | None = None,
    ) -> PartitionPhaseResult:
        """Partition a binary point file (§3.1.3's actual data path).

        Each partitioner leaf reads only its contiguous record slice of
        the shared input file — the large sequential reads of Fig 9a —
        instead of the whole dataset ever living in one process.
        """
        from ..io.formats import MAGIC, read_points_binary

        input_path = Path(input_path)
        header_len = len(MAGIC) + 8
        n_total = (input_path.stat().st_size - header_len) // RECORD_BYTES
        n_nodes = min(self.n_partition_nodes, max(1, int(n_total)))
        bounds = np.linspace(0, n_total, n_nodes + 1).astype(np.int64)
        slices = [
            read_points_binary(input_path, offset=int(s), count=int(e - s))
            for s, e in zip(bounds, bounds[1:])
        ]
        points = PointSet(
            ids=np.concatenate([ps.ids for ps in slices]),
            coords=np.concatenate([ps.coords for ps in slices]),
            weights=np.concatenate([ps.weights for ps in slices]),
        )
        return self._run_on_slices(points, bounds, n_partitions, workdir=workdir)

    def run(
        self,
        points: PointSet,
        n_partitions: int,
        *,
        workdir: str | Path | None = None,
    ) -> PartitionPhaseResult:
        """Partition an in-memory point set into ``n_partitions`` pieces."""
        n_nodes = min(self.n_partition_nodes, max(1, len(points)))
        # np.array_split's slice sizes: the first ``n % n_nodes`` one larger.
        size, extra = divmod(len(points), n_nodes)
        bounds = np.arange(n_nodes + 1) * size + np.minimum(np.arange(n_nodes + 1), extra)
        return self._run_on_slices(points, bounds, n_partitions, workdir=workdir)

    def _run_on_slices(
        self,
        points: PointSet,
        bounds: np.ndarray,
        n_partitions: int,
        *,
        workdir: str | Path | None = None,
    ) -> PartitionPhaseResult:
        """The phase over partitioner leaves that each hold the contiguous
        rows ``bounds[i]:bounds[i + 1]`` of ``points`` (as views)."""
        io = IOTrace()
        bounds = [int(b) for b in bounds]
        leaf_points = [
            PointSet(points.ids[s:e], points.coords[s:e], points.weights[s:e])
            for s, e in zip(bounds, bounds[1:])
        ]
        n_nodes = len(leaf_points)
        tracer = self.tracer
        network = Network(
            Topology.flat(n_nodes),
            self.transport,
            tracer=tracer,
            trace_pid=PID_PARTITION,
            fault_injector=self.fault_injector,
            resilience=self.resilience,
        )
        # 1. Each leaf reads its contiguous slice of the input file.
        for leaf, lp in enumerate(leaf_points):
            io.record(leaf, "read", len(lp) * RECORD_BYTES, sequential=True)

        # 2. Local histograms, reduced to the root.  Under a staging
        #    transport the slices go into shared memory once and the
        #    tasks carry refs — the dataset is never pickled.  Arena
        #    exhaustion degrades to pickling the point sets instead
        #    of failing the run (stage_pointset_safe).
        payloads = leaf_points
        if getattr(self.transport, "supports_staging", False):
            from ..runtime.executor import stage_pointset_safe

            with tracer.span(
                "runtime.stage",
                cat="runtime",
                pid=PID_PARTITION,
                n_pointsets=len(leaf_points),
            ):
                payloads = [
                    stage_pointset_safe(self.transport, lp)
                    for lp in leaf_points
                ]
        tasks = [_LeafHistogramTask(points=p, eps=self.eps) for p in payloads]
        histograms, map_trace = network.map_leaves(
            _leaf_histogram, tasks, name="partition.histogram"
        )
        histogram, reduce_trace = network.reduce(
            histograms,
            FunctionFilter(_merge_histograms),
            name="partition.histogram",
        )

        # 3. Root forms partitions serially (§3.1.2).
        t0 = time.perf_counter()
        with tracer.span(
            "partition.form",
            cat="partition",
            pid=PID_PARTITION,
            tid=0,
            n_partitions=n_partitions,
        ):
            plan = form_partitions(
                histogram,
                n_partitions,
                self.minpts,
                rebalance=self.rebalance,
            )
        root_form_seconds = time.perf_counter() - t0

        # 4. Boundaries broadcast back to the leaves.
        plans, multicast_trace = network.multicast(plan, name="partition.plan")

        # 5. Leaves route their rows under the plan (one table, built once
        #    for the plan) and emit their contributions: either offset
        #    writes to the shared partition file (the paper's path) or
        #    messages straight to the clustering leaves (the §6
        #    future-work path).  Each leaf view is then one gather of its
        #    rows over every leaf, in leaf order: ascending input rows.
        router = Router(plans[0], len(points))  # every leaf got the same plan
        routed, sizes = [], []
        route_seconds: dict[int, float] = {}
        for leaf, (lp, start) in enumerate(zip(leaf_points, bounds)):
            t0 = time.perf_counter()
            rows, counts = router.route(lp.coords)
            route_seconds[leaf] = time.perf_counter() - t0
            tracer.add_span(
                "partition.route",
                t0,
                t0 + route_seconds[leaf],
                cat="partition",
                pid=PID_PARTITION,
                tid=leaf,
                n_points=len(lp),
            )
            rows += start
            routed.append(rows)
            sizes.append(counts)
        fault_events = network.fault_log.events
        distribute = NetworkTrace() if self.output_mode == "network" else None
        sizes = np.stack(sizes)  # (leaf, block): own, shadow per partition
        for pid in range(len(plan.partitions)):
            for leaf in range(n_nodes):
                for count in sizes[leaf, 2 * pid : 2 * pid + 2].tolist():
                    if not count:
                        continue
                    nbytes = count * RECORD_BYTES
                    if distribute is not None:
                        # src = partitioner leaf, dst = clustering leaf;
                        # the two trees are disjoint process sets, so we
                        # key the destination by partition id.
                        distribute.packets.append(
                            Packet(leaf, pid, "partition-data", nbytes)
                        )
                    else:
                        io.record(leaf, "write", nbytes, sequential=False)
        # Leaf-major blocks -> block-major, leaf order inside each block.
        first = np.cumsum(sizes.ravel()) - sizes.ravel()
        rows = np.concatenate(routed)[
            run_positions(first.reshape(sizes.shape).T.ravel(), sizes.T.ravel())
        ]
        partitions = gather(points, rows, sizes.sum(axis=0))

        if distribute is None:
            # Root writes the metadata file.
            io.record(0, "write", 64 * n_partitions, sequential=True)

        file_set = None
        if workdir is not None and self.output_mode == "network":
            raise PartitionError("workdir is meaningless with network output")
        if workdir is not None:
            workdir = Path(workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            file_set = PartitionFileSet(workdir / "partitions.bin")
            file_set.write(partitions)

        return PartitionPhaseResult(
            plan=plan,
            partitions=partitions,
            io_trace=io,
            reduce_trace=reduce_trace,
            multicast_trace=multicast_trace,
            map_trace=map_trace,
            n_partition_nodes=n_nodes,
            file_set=file_set,
            distribute_trace=distribute,
            root_form_seconds=root_form_seconds,
            route_seconds=route_seconds,
            fault_events=fault_events,
        )
