"""The end-to-end Mr. Scan pipeline (Fig 1).

``run_pipeline`` wires the four phases together over two MRNet trees, the
same process organisation as the paper: a flat partitioner tree writes the
partitions; a second (up to three-level, 256-fanout) tree clusters each
partition on its leaf's simulated GPGPU, progressively merges cluster
summaries at the internal nodes, and sweeps global IDs back down.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..durability.rundir import ResumeState, RunDirectory
from ..errors import CheckpointError, ConfigError, DeviceMemoryError
from ..gpu.mrscan_gpu import mrscan_gpu
from ..io.lustre import IOTrace
from ..merge.global_ids import assign_global_ids
from ..merge.merger import MergeFilter
from ..merge.summary import LeafSummary, summarize_leaf
from ..mrnet import Network, Topology, Transport
from ..mrnet.packets import NetworkTrace
from ..partition.distributed import DistributedPartitioner, RECORD_BYTES
from ..points import PointSet
from ..resilience.checkpoint import LeafCheckpointStore
from ..resilience.faults import FaultLog
from ..runtime.arena import as_pointset
from ..runtime.executor import make_transport, stage_pointset_safe
from ..runtime.worker import acquire_device
from ..sweep.sweep import combine_core_masks, combine_leaf_outputs, sweep_leaf
from ..telemetry import Telemetry, record_result
from ..telemetry.tracer import NOOP_TRACER, PID_DRIVER, PID_GPU, PID_TREE, Tracer
from .config import MrScanConfig
from .result import MrScanResult, PhaseBreakdown, VirtualBreakdown
from .timing import PhaseTimer

__all__ = ["PartialRunResult", "cluster_merge_sweep", "mrscan", "run_pipeline"]

logger = logging.getLogger("repro.pipeline")


#: Cap on OOM-degradation splitting: beyond this many chunks the
#: partition genuinely does not fit and the leaf fails for real.
MAX_MEMORY_CHUNKS = 256

#: Rough per-point device footprint in bytes (coords + labels/flags/queue
#: state) — the cost model leaf failover uses to respect device capacity.
_DEVICE_BYTES_PER_POINT = 33


@dataclass
class _ClusterLeafTask:
    """Everything one clustering leaf needs (picklable).

    ``own``/``shadow`` are the partition's point sets — or, under a
    staging transport (:class:`repro.runtime.ShmTransport`), their
    shared-memory refs, which the leaf materializes as zero-copy views.
    """

    leaf_id: int
    own: PointSet  # or repro.runtime.PointSetRef
    shadow: PointSet  # or repro.runtime.PointSetRef
    owned_cells: frozenset
    config: MrScanConfig
    trace: bool = False
    #: Directory of per-leaf spill checkpoints (None = no checkpointing).
    checkpoint_dir: str | None = None
    #: Device-buffer streaming factor (doubled on DeviceMemoryError).
    memory_chunks: int = 1

    def device_cost(self) -> float:
        """Estimated device-memory footprint of this task in bytes."""
        return float(
            (len(self.own) + len(self.shadow)) * _DEVICE_BYTES_PER_POINT
        ) / max(self.memory_chunks, 1)

    def payload_bytes(self) -> int:
        """Wire size: refs cost their handles, arrays their bytes."""
        from ..mrnet.packets import payload_nbytes

        return payload_nbytes(self.own) + payload_nbytes(self.shadow) + 64

    @property
    def array_nbytes(self) -> int:
        """Materialized input size (``logical_nbytes`` hook): what this
        task would cost on the wire without the shm data plane."""
        from ..mrnet.packets import logical_nbytes

        return logical_nbytes(self.own) + logical_nbytes(self.shadow) + 64


@dataclass
class _ClusterLeafOutput:
    leaf_id: int
    labels: np.ndarray
    core_mask: np.ndarray
    stats: object
    summary: LeafSummary
    n_owned: int
    spans: list = field(default_factory=list)
    #: True when the output was recovered from a spill checkpoint (the
    #: GPU clustering pass did not run).
    from_checkpoint: bool = False
    #: Leaf wall-clock seconds (checkpoint lookup included) — the signal
    #: the tune planner's skew rebalancer keys on.
    wall_seconds: float = 0.0
    #: Points the leaf saw (owned + shadow).
    n_points: int = 0


def _cluster_leaf(task: _ClusterLeafTask) -> _ClusterLeafOutput:
    """Leaf body: GPU DBSCAN over partition+shadow, then summarise.

    ``config.leaf_algorithm`` picks Mr. Scan's two-pass GPU DBSCAN
    (default) or the CUDA-DClust baseline — the end-to-end ablation of
    the paper's §3.2.2/§3.2.3 extensions.

    When ``task.trace`` is set the leaf records into its *own* tracer and
    ships the drained spans back with the result — the worker-safe way to
    trace leaves that may run in another process.

    Resilience: with ``task.checkpoint_dir`` set the leaf first looks for
    a valid spill checkpoint (a retried or failed-over leaf resumes
    without re-clustering — a corrupt checkpoint is treated as a miss);
    its fresh output is checkpointed before returning.  A
    ``DeviceMemoryError`` mid-run degrades gracefully: the device is
    reset and the run retried with the partition streamed in twice as
    many memory chunks (identical labels, more transfers), up to
    :data:`MAX_MEMORY_CHUNKS`.
    """
    t_leaf_start = time.perf_counter()
    cfg = task.config
    engine = "cuda-dclust" if cfg.leaf_algorithm == "cuda-dclust" else "csr"
    store = (
        LeafCheckpointStore(task.checkpoint_dir) if task.checkpoint_dir else None
    )
    if store is not None and store.has(task.leaf_id):
        try:
            # A checkpoint written by a different leaf engine (cuda-dclust
            # vs mrscan, or a legacy ``block`` run) must not replay here.
            ckpt = store.load(task.leaf_id, expected_engine=engine)
        except CheckpointError:
            pass  # corrupt, torn or foreign-engine checkpoint: recompute
        else:
            return _ClusterLeafOutput(
                leaf_id=task.leaf_id,
                labels=ckpt.labels,
                core_mask=ckpt.core_mask,
                stats=ckpt.stats,
                summary=ckpt.summary,
                n_owned=ckpt.n_owned,
                from_checkpoint=True,
                wall_seconds=time.perf_counter() - t_leaf_start,
                n_points=len(task.own) + len(task.shadow),
            )
    # Under the shm data plane own/shadow arrive as refs; materialize
    # them as zero-copy views over the worker's attached segments.
    own = as_pointset(task.own)
    shadow = as_pointset(task.shadow)
    view = own.concat(shadow)
    tracer = Tracer() if task.trace else NOOP_TRACER
    device = acquire_device(cfg.device, tracer=tracer, trace_tid=task.leaf_id)
    try:
        with tracer.span(
            "leaf.cluster",
            cat="gpu",
            pid=PID_GPU,
            tid=task.leaf_id,
            algorithm=cfg.leaf_algorithm,
            n_points=len(view),
        ) as leaf_span:
            claims = None  # the border pass's claims, when mrscan_gpu ran
            if cfg.leaf_algorithm == "cuda-dclust":
                from ..gpu.cuda_dclust import cuda_dclust
                from ..gpu.mrscan_gpu import MrScanGPUStats

                labels, core_mask, base = cuda_dclust(
                    view, cfg.eps, cfg.minpts, device=device
                )
                stats = MrScanGPUStats(
                    n_points=base.n_points,
                    n_core=int(core_mask.sum()),
                    n_boxes=0,
                    n_eliminated=0,
                    pass1_ops=0,
                    pass2_ops=base.distance_ops,
                    kernel_launches=device.stats.kernel_launches,
                    sync_round_trips=base.sync_round_trips,
                    engine=engine,
                    device=device.stats.as_dict(),
                )
            else:
                chunks = max(1, int(task.memory_chunks))
                while True:
                    try:
                        result = mrscan_gpu(
                            view,
                            cfg.eps,
                            cfg.minpts,
                            device=device,
                            use_densebox=cfg.use_densebox,
                            memory_chunks=chunks,
                        )
                        break
                    except DeviceMemoryError:
                        if chunks >= MAX_MEMORY_CHUNKS:
                            raise
                        chunks *= 2
                        device.reset()
                        tracer.instant(
                            "oom.split",
                            cat="gpu",
                            pid=PID_GPU,
                            tid=task.leaf_id,
                            memory_chunks=chunks,
                        )
                labels, core_mask, stats, claims = (
                    result.labels,
                    result.core_mask,
                    result.stats,
                    result.claims,
                )
            leaf_span.set(
                n_core=stats.n_core,
                distance_ops=stats.total_distance_ops,
                kernel_launches=stats.kernel_launches,
            )
        with tracer.span(
            "leaf.summarize", cat="gpu", pid=PID_GPU, tid=task.leaf_id
        ):
            summary = summarize_leaf(
                task.leaf_id,
                view,
                labels,
                core_mask,
                cfg.eps,
                set(task.owned_cells),
                claims=claims,
            )
    finally:
        # Never leak device allocations, whatever path exits the leaf —
        # a retried leaf reuses a fresh device, but an injected crash
        # "after" the work would otherwise leave buffers accounted.
        device.free_all()
    if store is not None:
        store.save(
            task.leaf_id,
            labels=labels,
            core_mask=core_mask,
            n_owned=len(task.own),
            summary=summary,
            stats=stats,
            engine=engine,
        )
    return _ClusterLeafOutput(
        leaf_id=task.leaf_id,
        labels=labels,
        core_mask=core_mask,
        stats=stats,
        summary=summary,
        n_owned=len(task.own),
        spans=tracer.drain(),
        wall_seconds=time.perf_counter() - t_leaf_start,
        n_points=len(view),
    )


def _split_on_oom(task: _ClusterLeafTask, message: str):
    """OOM recovery hook: re-run the leaf with the partition streamed
    in twice as many device-memory chunks (labels are unchanged)."""
    new_chunks = max(1, task.memory_chunks) * 2
    if new_chunks > MAX_MEMORY_CHUNKS:
        return None
    return replace(task, memory_chunks=new_chunks)


def _stage_partitions(transport, partitions, tracer=NOOP_TRACER):
    """Push each partition's (own, shadow) through the transport's data
    plane when it has one; otherwise return them as-is.  Staging degrades
    to the point sets themselves on arena exhaustion
    (:func:`stage_pointset_safe`) rather than failing the run."""
    if not getattr(transport, "supports_staging", False):
        return list(partitions)
    with tracer.span(
        "runtime.stage",
        cat="runtime",
        pid=PID_DRIVER,
        n_pointsets=2 * len(partitions),
    ):
        return [
            (
                stage_pointset_safe(transport, own),
                stage_pointset_safe(transport, shadow),
            )
            for own, shadow in partitions
        ]


def run_pipeline(
    points: PointSet,
    config: MrScanConfig,
    *,
    transport: Transport | str | None = None,
    telemetry: Telemetry | None = None,
) -> MrScanResult:
    """Run all four Mr. Scan phases and return the global clustering.

    ``telemetry`` supplies a live :class:`repro.telemetry.Telemetry` to
    record into; when omitted, one is created if ``config.telemetry`` is
    set and the shared no-op bundle is used otherwise (zero overhead).
    The bundle — spans for every phase, node and leaf, plus the metrics
    fed from the run's stat objects — is attached to the result.

    ``transport`` supplies the execution backend for both MRNet trees:
    a transport object, a name (``"local"``/``"process"``/``"shm"``, see
    :mod:`repro.runtime`), or None to build one from
    ``config.resolved_transport()``.  A transport built here (from a
    name or the config) is owned by this call and closed — pool reaped,
    shared-memory segments unlinked — on every exit path.  A
    caller-provided transport *object* is never closed here.
    """
    if telemetry is None:
        telemetry = Telemetry() if config.telemetry else Telemetry.disabled()
    transport_name = transport if isinstance(transport, str) else None
    tune_store = None
    if config.auto_tune and transport is None:
        # Planner fills only unset label-neutral knobs (transport, pool
        # size) from recorded history; a tune failure must never fail
        # the run it was trying to speed up.
        try:
            from ..tune.history import ProfileStore
            from ..tune.planner import auto_tune_config

            tune_store = ProfileStore(config.tune_dir)
            config, tune_plan = auto_tune_config(config, points, store=tune_store)
            logger.info(
                "auto-tune: %s (%d history profile(s))",
                config.resolved_transport(),
                tune_plan.model_info.get("history_rows", 0),
            )
        except Exception:  # noqa: BLE001 - advisory subsystem, never fatal
            logger.warning("auto-tune failed; running with config as given",
                           exc_info=True)
            tune_store = None
    owns_transport = transport is None or isinstance(transport, str)
    if owns_transport:
        transport = make_transport(
            transport if isinstance(transport, str) else config.resolved_transport(),
            n_workers=config.transport_workers,
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
        )
    try:
        result = _run_pipeline(
            points, config, transport=transport, telemetry=telemetry
        )
    finally:
        if owns_transport:
            transport.close()
    if config.auto_tune or config.tune_record:
        # Feed the run back into the profile store so the next plan has
        # one more row of this-machine evidence.  Best-effort only.
        try:
            from ..tune.history import ProfileStore, profile_from_result

            if tune_store is None:
                tune_store = ProfileStore(config.tune_dir)
            # A transport passed by name overrides config.transport for
            # the run; the profile must record what actually executed.
            profiled = (
                replace(config, transport=transport_name)
                if transport_name is not None and config.transport is None
                else config
            )
            tune_store.append(profile_from_result(result, profiled, points=points))
        except Exception:  # noqa: BLE001 - advisory subsystem, never fatal
            logger.warning("tune profile recording failed", exc_info=True)
    return result


def _run_pipeline(
    points: PointSet,
    config: MrScanConfig,
    *,
    transport: Transport,
    telemetry: Telemetry,
) -> MrScanResult:
    n_dropped_invalid = 0
    if config.drop_invalid:
        points, n_dropped_invalid = points.drop_invalid()
        if n_dropped_invalid:
            # Info, not warning: the caller opted in, and the count is
            # surfaced in result.n_dropped_invalid (the CLI prints it).
            logger.info(
                "dropped %d input row(s) with non-finite coordinates/weights",
                n_dropped_invalid,
            )
    n = len(points)
    points.validate_unique_ids()
    points.validate_finite()
    tracer = telemetry.tracer
    # Phase-boundary invariant checking (repro.validate).  The context is
    # filled in as phases complete; each boundary runs its registered
    # checkers and raises ValidationError on the first violated invariant.
    vctx = vreport = None
    if config.validate != "off":
        from ..validate.invariants import (
            ValidationContext,
            ValidationReport,
            run_phase_checks,
        )

        vreport = ValidationReport(level=config.validate)
    # Normalise ids to 0..n-1 (input order); merge/sweep set logic keys on
    # them, and the final labels align with input order.
    internal = PointSet(
        ids=np.arange(n, dtype=np.int64), coords=points.coords, weights=points.weights
    )
    if vreport is not None:
        vctx = ValidationContext(
            points=internal, eps=config.eps, minpts=config.minpts, config=config
        )

    timer = PhaseTimer()
    timings = PhaseBreakdown()
    resilience = config.resilience_policy()

    # Durability (repro.durability): open the run directory, replay its
    # journal, and classify what a resume may skip.  The journal follows
    # write-ahead discipline throughout: a phase is journaled done only
    # after its invariant checks passed and its checkpoint is on disk.
    durable: RunDirectory | None = None
    state = ResumeState()
    leaf_checkpoint_dir = config.checkpoint_dir
    if config.run_dir is not None:
        durable = RunDirectory(config.run_dir)
        state = durable.start(
            points,
            config,
            resume=config.resume,
            metrics=telemetry.metrics,
            tracer=tracer,
        )
        if leaf_checkpoint_dir is None:
            leaf_checkpoint_dir = str(durable.leaf_checkpoint_dir)
    try:
        return _run_phases(
            points=points,
            internal=internal,
            config=config,
            transport=transport,
            telemetry=telemetry,
            tracer=tracer,
            timer=timer,
            timings=timings,
            resilience=resilience,
            durable=durable,
            state=state,
            leaf_checkpoint_dir=leaf_checkpoint_dir,
            n_dropped_invalid=n_dropped_invalid,
            vctx=vctx,
            vreport=vreport,
        )
    finally:
        if durable is not None:
            durable.close()


def _run_phases(
    *,
    points: PointSet,
    internal: PointSet,
    config: MrScanConfig,
    transport: Transport,
    telemetry: Telemetry,
    tracer,
    timer: PhaseTimer,
    timings: PhaseBreakdown,
    resilience,
    durable: RunDirectory | None,
    state: ResumeState,
    leaf_checkpoint_dir: str | None,
    n_dropped_invalid: int,
    vctx,
    vreport,
) -> MrScanResult:
    n = len(internal)
    if vctx is not None:
        from ..validate.invariants import run_phase_checks

    # A run that already finished (run_end journaled, sweep checkpoint on
    # disk) short-circuits: the persisted labels ARE the result.
    if durable is not None and state.complete:
        try:
            labels, core_mask = durable.phases.load("sweep")
        except CheckpointError:
            state.complete = False
        else:
            state.restored = ["partition", "cluster", "merge", "sweep"]
            durable.note("resume_complete", {"n_points": int(len(labels))})
            logger.info(
                "resume: run already complete; returning persisted labels"
            )
            return MrScanResult(
                labels=labels,
                core_mask=core_mask,
                n_clusters=int(len(np.unique(labels[labels >= 0]))),
                timings=timings,
                virtual_timings=VirtualBreakdown(),
                n_leaves=config.n_leaves,
                n_partition_nodes=config.partition_nodes,
                partition_io=IOTrace(),
                output_io=IOTrace(),
                telemetry=telemetry,
                resumed=True,
                phases_restored=state.restored,
                run_dir=config.run_dir,
                n_dropped_invalid=n_dropped_invalid,
            )

    # ----------------------------- partition --------------------------- #
    phase1 = None
    if durable is not None and state.partition_restorable:
        try:
            with tracer.span(
                "durability.restore", cat="durability", pid=PID_DRIVER,
                phase="partition",
            ):
                phase1 = durable.phases.load("partition")
        except CheckpointError:
            phase1 = None  # corrupt checkpoint: the phase re-runs
        else:
            state.restored.append("partition")
            logger.info(
                "resume: partition restored from checkpoint (%d partitions)",
                phase1.n_partitions,
            )
    if phase1 is None:
        with timer.phase("partition"), tracer.span(
            "partition", cat="phase", pid=PID_DRIVER, n_points=n
        ):
            partitioner = DistributedPartitioner(
                config.eps,
                config.minpts,
                config.partition_nodes,
                transport=transport,
                rebalance=config.rebalance_partitions,
                shadow_representatives=config.shadow_representatives,
                output_mode=config.partition_output,
                tracer=tracer,
                fault_injector=config.fault_plan,
                resilience=resilience,
                partition_hints=config.partition_hints,
            )
            phase1 = partitioner.run(
                internal, config.n_leaves, workdir=config.materialize_dir
            )
        logger.info(
            "partition: %d points -> %d partitions via %d nodes (%s output, "
            "imbalance %.2f)",
            n,
            phase1.n_partitions,
            phase1.n_partition_nodes,
            config.partition_output,
            phase1.plan.size_imbalance(),
        )
    if vctx is not None:
        vctx.phase1 = phase1
        run_phase_checks("partition", vctx, config.validate, vreport, telemetry)
    if durable is not None and "partition" not in state.restored:
        # Checks passed; only now does the checkpoint + journal record
        # land (write-ahead: journaled done implies validated).
        with tracer.span(
            "durability.checkpoint", cat="durability", pid=PID_DRIVER,
            phase="partition",
        ):
            durable.phases.save("partition", phase1)
        durable.note(
            "partition_done",
            {"n_partitions": phase1.n_partitions,
             "n_partition_nodes": phase1.n_partition_nodes,
             "wall_seconds": timer.seconds.get("partition", 0.0)},
        )

    # ----------------------------- cluster ----------------------------- #
    # The tree is sized from the plan's actual partition count: split
    # hints (config.partition_hints) can grow it past config.n_leaves.
    topology = Topology.paper_style(
        max(phase1.n_partitions, 1), config.fanout
    )
    network = Network(
        topology,
        transport,
        tracer=tracer,
        trace_pid=PID_TREE,
        fault_injector=config.fault_plan,
        resilience=resilience,
    )
    # Stage the partitions through the transport's data plane when it has
    # one (repro.runtime): each leaf task then carries ~100-byte refs and
    # the arrays themselves never ride the task pickles.  Staging
    # degrades to the point sets themselves on arena exhaustion
    # (stage_pointset_safe) rather than failing the run.
    leaf_inputs = _stage_partitions(transport, phase1.partitions, tracer)
    tasks = [
        _ClusterLeafTask(
            leaf_id=pid,
            own=own,
            shadow=shadow,
            owned_cells=frozenset(phase1.plan.partitions[pid].cells),
            config=config,
            trace=telemetry.enabled,
            checkpoint_dir=leaf_checkpoint_dir,
        )
        for pid, (own, shadow) in enumerate(leaf_inputs)
    ]
    if getattr(transport, "supports_staging", False) and telemetry.enabled:
        # Traffic the refs keep off the wire for one dispatch round.
        telemetry.metrics.counter("runtime.bytes_avoided").inc(
            sum(t.array_nbytes - t.payload_bytes() for t in tasks)
        )

    # Journal each leaf completion as its result lands: a resume knows
    # exactly which leaves finished (their spill checkpoints satisfy them
    # without re-clustering) even if the driver dies mid-round.
    on_leaf_result = None
    if durable is not None:
        def on_leaf_result(_idx: int, out) -> None:
            durable.note(
                "leaf_done",
                {
                    "leaf_id": out.leaf_id,
                    "from_checkpoint": bool(out.from_checkpoint),
                    "n_owned": out.n_owned,
                    "n_points": int(out.n_points),
                    "wall_seconds": float(out.wall_seconds),
                },
            )

    # A crashed phase must still release the transport's worker pools —
    # everything from here to the end of the sweep runs under one
    # try/finally so ``network.close()`` is unconditional.
    try:
        with timer.phase("cluster"), tracer.span(
            "cluster", cat="phase", pid=PID_DRIVER, n_leaves=len(tasks)
        ):
            outputs, map_trace = network.map_leaves(
                _cluster_leaf,
                tasks,
                name="cluster",
                recover=_split_on_oom,
                cost=_ClusterLeafTask.device_cost,
                capacity=float(config.device.memory_bytes),
                on_result=on_leaf_result,
            )
            for out in outputs:
                tracer.ingest(out.spans)
        logger.info(
            "cluster: %s over %s (%s leaves); slowest leaf %s distance ops",
            config.leaf_algorithm,
            topology.describe(),
            config.n_leaves,
            max((o.stats.total_distance_ops for o in outputs), default=0),
        )
        if vctx is not None:
            vctx.outputs = outputs
            run_phase_checks("cluster", vctx, config.validate, vreport, telemetry)
        if durable is not None:
            durable.note(
                "cluster_done",
                {
                    "n_leaves": len(outputs),
                    "checkpoint_hits": sum(
                        1 for o in outputs if o.from_checkpoint
                    ),
                    "wall_seconds": timer.seconds.get("cluster", 0.0),
                },
            )

        # ------------------------------ merge -------------------------- #
        merge_filter = MergeFilter(config.eps, tracer=tracer)
        merge_restored = False
        if durable is not None and state.merge_restorable:
            try:
                with tracer.span(
                    "durability.restore", cat="durability", pid=PID_DRIVER,
                    phase="merge",
                ):
                    root_summary, assignment = durable.phases.load("merge")
            except CheckpointError:
                pass  # corrupt checkpoint: the phase re-runs
            else:
                merge_restored = True
                reduce_trace = NetworkTrace()
                state.restored.append("merge")
                logger.info(
                    "resume: merge restored from checkpoint (%d global clusters)",
                    assignment.n_clusters,
                )
        if not merge_restored:
            with timer.phase("merge"), tracer.span(
                "merge", cat="phase", pid=PID_DRIVER
            ):
                root_summary, reduce_trace = network.reduce(
                    [o.summary for o in outputs], merge_filter, name="merge"
                )
                assignment = assign_global_ids(root_summary)
            logger.info(
                "merge: %d leaf clusters -> %d global clusters (%d bytes up the tree)",
                sum(o.summary.n_clusters for o in outputs),
                assignment.n_clusters,
                reduce_trace.total_bytes,
            )
        if vctx is not None:
            vctx.assignment = assignment
            vctx.root_summary = root_summary
            run_phase_checks("merge", vctx, config.validate, vreport, telemetry)
        if durable is not None and not merge_restored:
            with tracer.span(
                "durability.checkpoint", cat="durability", pid=PID_DRIVER,
                phase="merge",
            ):
                durable.phases.save("merge", (root_summary, assignment))
            durable.note(
                "merge_done",
                {"n_clusters": assignment.n_clusters,
                 "wall_seconds": timer.seconds.get("merge", 0.0)},
            )

        # ------------------------------ sweep -------------------------- #
        output_io = IOTrace()
        sweep_leaf_seconds: dict[int, float] = {}
        with timer.phase("sweep"), tracer.span(
            "sweep", cat="phase", pid=PID_DRIVER
        ):
            assignments, sweep_trace = network.multicast(assignment, name="sweep")
            sweep_results = []
            for out, asg, (own, shadow) in zip(
                outputs, assignments, phase1.partitions
            ):
                view = own.concat(shadow)
                t_leaf = time.perf_counter()
                res = sweep_leaf(
                    out.leaf_id,
                    view,
                    out.labels,
                    out.n_owned,
                    asg.for_leaf(out.leaf_id),
                    core_mask=out.core_mask,
                )
                sweep_leaf_seconds[out.leaf_id] = time.perf_counter() - t_leaf
                tracer.add_span(
                    "sweep.leaf",
                    t_leaf,
                    t_leaf + sweep_leaf_seconds[out.leaf_id],
                    cat="sweep",
                    pid=PID_GPU,
                    tid=out.leaf_id,
                    n_owned=out.n_owned,
                )
                sweep_results.append(res)
                if len(res.owned_ids):
                    output_io.record(
                        out.leaf_id,
                        "write",
                        len(res.owned_ids) * (RECORD_BYTES + 8),
                        sequential=True,
                    )
            labels = combine_leaf_outputs(sweep_results, n)
            core_mask = combine_core_masks(sweep_results, n)
        if vctx is not None:
            vctx.sweep_results = sweep_results
            vctx.labels = labels
            vctx.core_mask = core_mask
            run_phase_checks("sweep", vctx, config.validate, vreport, telemetry)
        if durable is not None:
            with tracer.span(
                "durability.checkpoint", cat="durability", pid=PID_DRIVER,
                phase="sweep",
            ):
                durable.phases.save("sweep", (labels, core_mask))
            durable.note(
                "sweep_done",
                {
                    "n_points": int(n),
                    "labels_digest": hashlib.sha256(
                        np.ascontiguousarray(labels).tobytes()
                    ).hexdigest(),
                    "wall_seconds": timer.seconds.get("sweep", 0.0),
                },
            )
    finally:
        network.close()
    logger.info(
        "sweep: wrote %d points (%d noise) in %.3fs wall",
        n,
        int(np.count_nonzero(labels == -1)),
        timer.seconds.get("sweep", 0.0),
    )

    timings.partition = timer.seconds.get("partition", 0.0)
    timings.cluster = timer.seconds.get("cluster", 0.0)
    timings.merge = timer.seconds.get("merge", 0.0)
    timings.sweep = timer.seconds.get("sweep", 0.0)

    # Critical-path ("virtual parallel") phase times from the recorded
    # per-node compute seconds — what a one-process-per-node deployment
    # would measure (see repro.mrnet.schedule).
    from ..mrnet.schedule import map_virtual_time, reduce_critical_path

    virtual = VirtualBreakdown(
        partition=phase1.virtual_seconds(),
        cluster=map_virtual_time(map_trace),
        merge=reduce_critical_path(topology, reduce_trace),
        sweep=max(sweep_leaf_seconds.values(), default=0.0),
    )

    # Faults from both trees, in phase order, with exact aggregates.
    fault_log = FaultLog()
    fault_log.extend(phase1.fault_events)
    fault_log.extend(network.fault_log.events)
    checkpoint_hits = sum(1 for o in outputs if o.from_checkpoint)
    if fault_log.total or checkpoint_hits:
        logger.info(
            "resilience: %d fault(s) (%s), %d checkpoint hit(s), %d dead node(s)",
            fault_log.total,
            ", ".join(f"{k}={v}" for k, v in sorted(fault_log.by_kind.items()))
            or "none",
            checkpoint_hits,
            len(network.dead_nodes),
        )

    n_clusters = int(len(np.unique(labels[labels >= 0])))
    if durable is not None:
        durable.note("run_end", {"n_clusters": n_clusters})
    result = MrScanResult(
        labels=labels,
        core_mask=core_mask,
        n_clusters=n_clusters,
        timings=timings,
        virtual_timings=virtual,
        # The tree's actual width: split hints can grow it past the
        # configured leaf count.
        n_leaves=max(phase1.n_partitions, 1),
        n_partition_nodes=phase1.n_partition_nodes,
        partition_io=phase1.io_trace,
        output_io=output_io,
        gpu_stats=[o.stats for o in outputs],
        merge_outcomes=list(merge_filter.outcomes),
        network_traces={
            "partition_map": phase1.map_trace,
            "partition_reduce": phase1.reduce_trace,
            "partition_multicast": phase1.multicast_trace,
            **(
                {"partition_distribute": phase1.distribute_trace}
                if phase1.distribute_trace is not None
                else {}
            ),
            "cluster_map": map_trace,
            "merge_reduce": reduce_trace,
            "sweep_multicast": sweep_trace,
        },
        leaf_point_counts=[len(own) + len(shadow) for own, shadow in phase1.partitions],
        leaf_wall_seconds={
            o.leaf_id: float(o.wall_seconds) for o in outputs
        },
        telemetry=telemetry,
        faults=fault_log.events,
        fault_summary=fault_log.summary(),
        checkpoint_hits=checkpoint_hits,
        validation=vreport,
        resumed=state.resumed,
        phases_restored=state.restored,
        run_dir=config.run_dir,
        n_dropped_invalid=n_dropped_invalid,
    )
    if telemetry.enabled:
        record_result(telemetry.metrics, result)
    return result


@dataclass
class PartialRunResult:
    """Outcome of one :func:`cluster_merge_sweep` partial run."""

    labels: np.ndarray
    core_mask: np.ndarray
    n_clusters: int
    #: Every leaf's output after this run (cached + fresh), by leaf id —
    #: feed back as ``cached_outputs`` of the next partial run.
    outputs: dict[int, _ClusterLeafOutput]
    #: Leaf ids dispatched to the cluster phase this run.
    reclustered: frozenset[int]
    #: Of those, how many actually ran the GPU pass (vs spill-checkpoint
    #: hits) — the provenance the serve tests assert on.
    n_fresh: int


def cluster_merge_sweep(
    *,
    partitions,
    plan,
    n_points: int,
    config: MrScanConfig,
    transport: Transport,
    dirty=None,
    cached_outputs: dict[int, _ClusterLeafOutput] | None = None,
    telemetry: Telemetry | None = None,
    checkpoint_dir: str | None = None,
    on_leaf_result=None,
    cancel=None,
) -> PartialRunResult:
    """Re-entrant partial run: cluster a leaf *subset*, re-merge, re-sweep.

    The incremental half of the pipeline, factored out for long-lived
    callers (:mod:`repro.serve`): given an already-formed partition
    ``plan`` and its materialized ``partitions`` (``[(own, shadow), ...]``
    in leaf-id order, covering every leaf), cluster only the ``dirty``
    leaves (``None`` = all), reuse ``cached_outputs`` for the rest, then
    run the full merge tree over all summaries and sweep global ids over
    all leaves.  Merge+sweep always run in full — they are cheap relative
    to clustering and global ids are not stable across merges, so every
    leaf's labels must be re-swept against the new assignment.

    The caller owns ``transport`` — it is never closed here, so pools and
    arenas stay warm across calls.  Leaves in ``dirty`` whose spill
    checkpoints should not satisfy them must be invalidated first
    (:meth:`~repro.resilience.checkpoint.LeafCheckpointStore.invalidate`).

    ``cancel`` (a :class:`~repro.resilience.CancelToken`) makes the run
    abandonable: the token is checked between phases and threaded into
    every tree collective, so a cancelled or deadline-expired run raises
    :class:`~repro.errors.OperationCancelledError` without committing
    anything — the caller's snapshot and journal are untouched, and any
    spill checkpoints written for dirty leaves must be re-invalidated by
    the caller before the retry (:mod:`repro.serve` does).
    """
    if telemetry is None:
        telemetry = Telemetry.disabled()
    tracer = telemetry.tracer
    n_leaves = len(partitions)
    cached = dict(cached_outputs or {})
    if dirty is None:
        dirty = frozenset(range(n_leaves))
    dirty = frozenset(int(d) for d in dirty)
    out_of_range = [d for d in dirty if not 0 <= d < n_leaves]
    if out_of_range:
        raise ConfigError(
            f"dirty leaf ids {sorted(out_of_range)} outside 0..{n_leaves - 1}"
        )
    # A leaf with no cached output must re-cluster whether dirty or not.
    need = sorted(dirty | (set(range(n_leaves)) - set(cached)))

    resilience = config.resilience_policy()
    fresh: dict[int, _ClusterLeafOutput] = {}
    if cancel is not None:
        cancel.check()
    if need:
        staged = _stage_partitions(
            transport, [partitions[i] for i in need], tracer
        )
        tasks = [
            _ClusterLeafTask(
                leaf_id=pid,
                own=own,
                shadow=shadow,
                owned_cells=frozenset(plan.partitions[pid].cells),
                config=config,
                trace=telemetry.enabled,
                checkpoint_dir=checkpoint_dir,
            )
            for pid, (own, shadow) in zip(need, staged)
        ]
        # The cluster map rides a tree sized to the dirty subset — tasks
        # carry their real leaf ids, so outputs slot straight back into
        # the full-tree merge below.
        sub_network = Network(
            Topology.paper_style(len(tasks), config.fanout),
            transport,
            tracer=tracer,
            trace_pid=PID_TREE,
            fault_injector=config.fault_plan,
            resilience=resilience,
            cancel=cancel,
        )
        try:
            with tracer.span(
                "cluster.partial", cat="phase", pid=PID_DRIVER,
                n_leaves=len(tasks),
            ):
                outs, _ = sub_network.map_leaves(
                    _cluster_leaf,
                    tasks,
                    name="cluster",
                    recover=_split_on_oom,
                    cost=_ClusterLeafTask.device_cost,
                    capacity=float(config.device.memory_bytes),
                    on_result=on_leaf_result,
                )
        finally:
            sub_network.close()
        for o in outs:
            tracer.ingest(o.spans)
            fresh[o.leaf_id] = o

    outputs = {**cached, **fresh}
    ordered = [outputs[i] for i in range(n_leaves)]

    if cancel is not None:
        cancel.check()
    network = Network(
        Topology.paper_style(n_leaves, config.fanout),
        transport,
        tracer=tracer,
        trace_pid=PID_TREE,
        resilience=resilience,
        cancel=cancel,
    )
    merge_filter = MergeFilter(config.eps, tracer=tracer)
    try:
        with tracer.span("merge.partial", cat="phase", pid=PID_DRIVER):
            root_summary, _ = network.reduce(
                [o.summary for o in ordered], merge_filter, name="merge"
            )
            assignment = assign_global_ids(root_summary)
        with tracer.span("sweep.partial", cat="phase", pid=PID_DRIVER):
            assignments, _ = network.multicast(assignment, name="sweep")
    finally:
        network.close()

    if cancel is not None:
        cancel.check()
    sweep_results = []
    for out, asg, (own, shadow) in zip(ordered, assignments, partitions):
        view = as_pointset(own).concat(as_pointset(shadow))
        sweep_results.append(
            sweep_leaf(
                out.leaf_id,
                view,
                out.labels,
                out.n_owned,
                asg.for_leaf(out.leaf_id),
                core_mask=out.core_mask,
            )
        )
    labels = combine_leaf_outputs(sweep_results, n_points)
    core_mask = combine_core_masks(sweep_results, n_points)
    return PartialRunResult(
        labels=labels,
        core_mask=core_mask,
        n_clusters=int(len(np.unique(labels[labels >= 0]))),
        outputs=outputs,
        reclustered=frozenset(need),
        n_fresh=sum(1 for o in fresh.values() if not o.from_checkpoint),
    )


def mrscan(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    n_leaves: int = 4,
    transport: Transport | str | None = None,
    telemetry: Telemetry | bool | None = None,
    **config_kwargs,
) -> MrScanResult:
    """One-call Mr. Scan: cluster ``points`` with DBSCAN semantics.

    Example::

        result = mrscan(points, eps=0.1, minpts=40, n_leaves=8)
        result = mrscan(points, eps=0.1, minpts=40, transport="shm")

    ``telemetry=True`` records spans and metrics for the run (see
    :mod:`repro.telemetry`; the bundle lands on ``result.telemetry``), or
    pass a pre-built :class:`~repro.telemetry.Telemetry` to record into.
    ``transport`` takes a backend name (``local``/``process``/``shm``) or
    a pre-built transport object.  Additional keyword arguments go to
    :class:`MrScanConfig` (``fanout``, ``use_densebox``,
    ``n_partition_nodes``, ...).
    """
    if len(points) == 0:
        raise ConfigError("cannot cluster an empty point set")
    telemetry_obj = telemetry if isinstance(telemetry, Telemetry) else None
    if telemetry_obj is None and telemetry is not None:
        config_kwargs.setdefault("telemetry", bool(telemetry))
    config = MrScanConfig(
        eps=eps, minpts=minpts, n_leaves=n_leaves, **config_kwargs
    )
    return run_pipeline(points, config, transport=transport, telemetry=telemetry_obj)
