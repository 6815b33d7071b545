"""The end-to-end Mr. Scan pipeline (Fig 1).

``run_pipeline`` wires the four phases together over two MRNet trees, the
same process organisation as the paper: a flat partitioner tree writes the
partitions; a second (up to three-level, 256-fanout) tree clusters each
partition on its leaf's simulated GPGPU, progressively merges cluster
summaries at the internal nodes, and sweeps global IDs back down.

Cluster, merge and sweep are one runner, :func:`cluster_merge_sweep`,
which the serve daemon calls for every partial run; each phase boundary
(restore, run, validate, checkpoint, journal) is one step, ``_phase``.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..durability.checkpoints import LeafCheckpointStore
from ..durability.rundir import ResumeState, RunDirectory
from ..errors import CheckpointError, ConfigError, DeviceMemoryError, ValidationError
from ..gpu.append import mrscan_gpu_append
from ..gpu.densebox import CellIndex
from ..gpu.mrscan_gpu import mrscan_gpu
from ..io.lustre import IOTrace
from ..merge.merger import MergeFilter
from ..merge.summary import LeafSummary, summarize_leaf
from ..mrnet import Network, Topology, Transport
from ..mrnet.packets import NetworkTrace
from ..mrnet.schedule import map_virtual_time, reduce_critical_path
from ..partition.distributed import DistributedPartitioner, RECORD_BYTES
from ..points import PointSet
from ..resilience.faults import FaultLog
from ..runtime.arena import as_pointset
from ..runtime.executor import make_transport, stage_pointset_safe
from ..runtime.worker import acquire_device
from ..sweep.sweep import LeafCut, SweepGather, cut_leaf, sweep_gather
from ..telemetry import Telemetry, record_result
from ..telemetry.tracer import NOOP_TRACER, PID_DRIVER, PID_GPU, PID_TREE, Tracer
from .config import MrScanConfig
from .result import MrScanResult, PhaseBreakdown, VirtualBreakdown
from .timing import PhaseTimer

__all__ = ["LeafState", "PartialRunResult", "cluster_merge_sweep", "mrscan", "run_pipeline"]

logger = logging.getLogger("repro.pipeline")


#: Cap on OOM-degradation splitting: beyond this many chunks the
#: partition genuinely does not fit and the leaf fails for real.
MAX_MEMORY_CHUNKS = 256

#: Rough per-point device footprint in bytes (coords + labels/flags/queue
#: state) — the cost model leaf failover uses to respect device capacity.
_DEVICE_BYTES_PER_POINT = 33


@dataclass
class LeafState:
    """What a leaf keeps for its next append: its output's labels, core
    mask and border claims with d², its view's cell index, the ids of its
    summary's representatives, and the ids of the view it was clustered
    from (own rows, then shadow rows, each ascending).

    :meth:`full` runs a full pass and :meth:`append` an append from this
    state; each ends with the leaf's summary and returns the next state.
    The view ids are attached by the driver from the partition it
    dispatched (:func:`_cluster_merge_sweep`): a worker never ships them
    back and a spill never holds them, as under ``shm`` they are arena
    views.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    claims: np.ndarray
    claim_d2: np.ndarray
    index: CellIndex
    rep_ids: np.ndarray
    own_ids: np.ndarray | None = field(default=None, repr=False)
    shadow_ids: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def full(cls, leaf: _LeafRun, *, keep: bool):
        """A full pass (``mrscan_gpu``) over the leaf's view, then its
        summary: ``(result, summary, state)``, the state None without
        ``keep`` (the engine then builds no cell index)."""
        with leaf.span("leaf.cluster", n_points=len(leaf.view), mode="full",
                       n_inserted=len(leaf.view)) as span:
            # Only a kept state asks for the index, so a batch run's
            # leaves call ``mrscan_gpu`` as the test oracles stand in for it.
            result = (leaf.cluster(span, mrscan_gpu, keep_index=True) if keep
                      else leaf.cluster(span, mrscan_gpu))
        with leaf.span("leaf.summarize"):
            summary = leaf.summarize(result)
        return result, summary, cls._of(result, summary) if keep else None

    def append(self, leaf: _LeafRun):
        """:meth:`full`'s result for the leaf's grown view, from this
        state (``mrscan_gpu_append``); the summary searches for
        representatives among this state's and the new cores only."""
        own, shadow = leaf.own, leaf.shadow
        with leaf.span("leaf.cluster", n_points=len(leaf.view)) as span:
            old_rows = self._rows_in(own, shadow)
            span.set(mode="append", n_inserted=len(leaf.view) - len(old_rows))
            result = leaf.cluster(
                span, mrscan_gpu_append, old_rows=old_rows, labels=self.labels,
                core_mask=self.core_mask, claims=self.claims, claim_d2=self.claim_d2,
                index=self.index,
            )
            span.set(cells_read=result.densebox.n_subdivisions, rows_read=result.rows_read)
        with leaf.span("leaf.summarize"):
            summary = leaf.summarize(
                result, self._candidates(own, shadow, old_rows, result.core_mask)
            )
        return result, summary, self._of(result, summary)

    @classmethod
    def _of(cls, result, summary: LeafSummary) -> LeafState:
        return cls(result.labels, result.core_mask, result.claims, result.claim_d2,
                   result.index, summary.rep_ids)

    def payload_bytes(self) -> int:
        """Wire size of the arrays an append task ships."""
        arrays = (self.own_ids, self.shadow_ids, self.labels, self.core_mask,
                  self.claims, self.claim_d2, self.rep_ids)
        return self.index.nbytes + sum(a.nbytes for a in arrays if a is not None)

    def _rows_in(self, own: PointSet, shadow: PointSet) -> np.ndarray:
        """Positions of this state's view rows in the view ``own + shadow``.

        A view only grows, and own and shadow rows each ascend by id, so
        the old ids must be a subsequence of the new ones on each side;
        anything else is a bug upstream, never a reason to re-cluster."""
        parts = []
        for old, new, offset in (
            (self.own_ids, own.ids, 0), (self.shadow_ids, shadow.ids, len(own)),
        ):
            if np.array_equal(new[: len(old)], old):  # rows were only appended
                parts.append(np.arange(offset, offset + len(old)))
                continue
            at = np.searchsorted(new, old)
            if not (
                np.all(new[1:] > new[:-1])
                and np.all(at[1:] > at[:-1])
                and (not len(at) or at[-1] < len(new))
                and np.array_equal(new[at], old)
            ):
                raise AssertionError("a leaf's prior view is not a subsequence of its new view")
            parts.append(at + offset)
        return np.concatenate(parts)

    def _candidates(
        self, own: PointSet, shadow: PointSet, old_rows: np.ndarray, core_mask: np.ndarray
    ) -> np.ndarray:
        """Rows of the view ``own + shadow`` that hold every representative
        of its new ``core_mask``: this state's representatives and the
        rows core now but not before — ``summarize_leaf``'s
        ``candidates`` after an append."""
        rep_ids = np.sort(self.rep_ids)  # binary searches run faster on sorted keys
        at = np.searchsorted(own.ids, rep_ids)
        in_own = at < len(own)
        in_own[in_own] = own.ids[at[in_own]] == rep_ids[in_own]
        is_candidate = core_mask.copy()
        is_candidate[old_rows] &= ~self.core_mask
        is_candidate[at[in_own]] = True
        is_candidate[len(own) + np.searchsorted(shadow.ids, rep_ids[~in_own])] = True
        return np.flatnonzero(is_candidate)


@dataclass
class _ClusterLeafTask:
    """Everything one clustering leaf needs (picklable).

    ``own``/``shadow`` are the partition's point sets — or, under a
    staging transport (:class:`repro.runtime.ShmTransport`), their
    shared-memory refs, which the leaf materializes as zero-copy views.
    With ``prior`` set the leaf appends from that state
    (:meth:`LeafState.append`).
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
    #: Keep the leaf's :class:`LeafState` on the output (a daemon's next
    #: ingest appends from it).
    keep_state: bool = False
    prior: LeafState | None = None

    def device_cost(self) -> float:
        """Estimated device-memory footprint of this task in bytes."""
        return float(
            (len(self.own) + len(self.shadow)) * _DEVICE_BYTES_PER_POINT
        ) / max(self.memory_chunks, 1)

    def payload_bytes(self) -> int:
        """Wire size: refs cost their handles, arrays their bytes."""
        from ..mrnet.packets import payload_nbytes

        return sum(payload_nbytes(p) for p in (self.own, self.shadow, self.prior)) + 64

    @property
    def array_nbytes(self) -> int:
        """Materialized input size (``logical_nbytes`` hook): what this
        task would cost on the wire without the shm data plane."""
        from ..mrnet.packets import logical_nbytes

        return sum(logical_nbytes(p) for p in (self.own, self.shadow, self.prior)) + 64


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
    #: Leaf wall-clock seconds (checkpoint lookup included), journalled
    #: as ``leaf_done.wall_seconds``.
    wall_seconds: float = 0.0
    #: Points the leaf saw (owned + shadow).
    n_points: int = 0
    #: The sweep's cut of this output, made by the driver on first use
    #: (:func:`_sweep`); a cached output keeps the partition it was
    #: clustered from, so its cut stays valid.
    cut: LeafCut | None = field(default=None, repr=False)
    #: True when the append path produced this output from the leaf's
    #: previous one.
    appended: bool = False
    #: What the leaf's next append starts from, kept only by
    #: :func:`cluster_merge_sweep`'s runs.
    state: LeafState | None = field(default=None, repr=False)


@dataclass
class _LeafRun:
    """One leaf's pass over its view ``own + shadow`` on ``device``: the
    steps :class:`LeafState` takes, each under a span of ``tracer``."""

    task: _ClusterLeafTask
    own: PointSet
    shadow: PointSet
    view: PointSet
    device: object
    tracer: Tracer

    def span(self, name: str, **args):
        return self.tracer.span(name, cat="gpu", pid=PID_GPU, tid=self.task.leaf_id, **args)

    def cluster(self, span, engine, **state):
        """``engine`` over the view; a ``DeviceMemoryError`` resets the
        device and re-runs with the partition streamed in twice as many
        memory chunks (identical labels, more transfers), up to
        :data:`MAX_MEMORY_CHUNKS`."""
        cfg = self.task.config
        chunks = max(1, int(self.task.memory_chunks))
        while True:
            try:
                result = engine(
                    self.view, cfg.eps, cfg.minpts, device=self.device,
                    use_densebox=cfg.use_densebox, memory_chunks=chunks, **state,
                )
                break
            except DeviceMemoryError:
                if chunks >= MAX_MEMORY_CHUNKS:
                    raise
                chunks *= 2
                self.device.reset()
                self.tracer.instant(
                    "oom.split", cat="gpu", pid=PID_GPU, tid=self.task.leaf_id,
                    memory_chunks=chunks,
                )
        stats = result.stats
        span.set(
            n_core=stats.n_core,
            distance_ops=stats.total_distance_ops,
            kernel_launches=stats.kernel_launches,
        )
        return result

    def summarize(self, result, candidates: np.ndarray | None = None) -> LeafSummary:
        task = self.task
        return summarize_leaf(
            task.leaf_id, self.view, result.labels, result.core_mask, task.config.eps,
            set(task.owned_cells), claims=result.claims, candidates=candidates,
        )


def _cluster_leaf(task: _ClusterLeafTask) -> _ClusterLeafOutput:
    """Leaf body: Mr. Scan's two-pass GPU DBSCAN over partition+shadow,
    then summarise — a full pass, or an append from ``task.prior``.

    When ``task.trace`` is set the leaf records into its *own* tracer and
    ships the drained spans back with the result — the worker-safe way to
    trace leaves that may run in another process.

    Resilience: with ``task.checkpoint_dir`` set (a batch run with a run
    directory) the leaf first looks for a valid spill checkpoint (a
    retried or failed-over leaf resumes without re-clustering — a corrupt
    checkpoint is treated as a miss); its fresh output is spilled before
    returning.  A ``DeviceMemoryError`` mid-run degrades gracefully
    (:meth:`_LeafRun.cluster`).
    """
    t_leaf_start = time.perf_counter()
    store = (
        LeafCheckpointStore(task.checkpoint_dir) if task.checkpoint_dir else None
    )
    if store is not None and store.has(task.leaf_id):
        try:
            # A checkpoint written by another leaf engine (a legacy
            # ``block`` or CUDA-DClust run) must not replay here.
            out = store.load(task.leaf_id, expected_engine="csr")
        except CheckpointError:
            pass  # corrupt, torn, foreign-engine or older-layout checkpoint: recompute
        else:
            return replace(
                out, from_checkpoint=True, appended=False,
                wall_seconds=time.perf_counter() - t_leaf_start,
            )
    # Under the shm data plane own/shadow arrive as refs; materialize
    # them as zero-copy views over the worker's attached segments.
    own = as_pointset(task.own)
    shadow = as_pointset(task.shadow)
    tracer = Tracer() if task.trace else NOOP_TRACER
    device = acquire_device(task.config.device, tracer=tracer, trace_tid=task.leaf_id)
    leaf = _LeafRun(task, own, shadow, own.concat(shadow), device, tracer)
    try:
        if task.prior is None:
            result, summary, state = LeafState.full(leaf, keep=task.keep_state)
        else:
            result, summary, state = task.prior.append(leaf)
    finally:
        # Never leak device allocations, whatever path exits the leaf —
        # a retried leaf reuses a fresh device, but an injected crash
        # "after" the work would otherwise leave buffers accounted.
        device.free_all()
    out = _ClusterLeafOutput(
        leaf_id=task.leaf_id,
        labels=result.labels,
        core_mask=result.core_mask,
        stats=result.stats,
        summary=summary,
        n_owned=len(own),
        n_points=len(leaf.view),
        appended=task.prior is not None,
        state=state,
    )
    if store is not None:
        store.save(task.leaf_id, out, engine="csr")
    out.spans = tracer.drain()
    out.wall_seconds = time.perf_counter() - t_leaf_start
    return out


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


def _sweep(outputs, partitions, assignment, n_points: int) -> SweepGather:
    """The sweep (§3.4): cut every leaf output not cut before, then one
    gather relabels them all."""
    for out, (own, shadow) in zip(outputs, partitions):
        if out.cut is None:
            out.cut = cut_leaf(
                out.leaf_id, as_pointset(own).ids, as_pointset(shadow).ids,
                out.labels, out.core_mask,
            )
    return sweep_gather([out.cut for out in outputs], assignment, n_points)


def _rewind(transport) -> None:
    """End of a run on a transport it does not close: the next run
    stages into the same shared-memory pages (see ``ShmTransport.rewind``)."""
    if getattr(transport, "supports_staging", False):
        transport.rewind()


@dataclass
class _Run:
    """One run's context: what every phase boundary reads.

    A batch run fills in the run directory and validation; a daemon's
    partial run has neither, so its boundaries are a timer and a span.
    """

    config: MrScanConfig
    transport: Transport
    telemetry: Telemetry
    cancel: object = None  # repro.resilience.CancelToken
    #: Keep every leaf's append state on its output (a daemon's runs).
    keep_state: bool = False
    durable: RunDirectory | None = None
    state: ResumeState = field(default_factory=ResumeState)
    #: Phase-boundary invariant checking (repro.validate): the context
    #: the checkers read, filled in as phases complete, and the report.
    vctx: object = None
    vreport: object = None
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    @property
    def checkpoint_dir(self) -> str | None:
        """Where leaves spill: the run directory's ``checkpoints/leaves``
        (None without a run directory — no spills)."""
        if self.durable is None:
            return None
        return str(self.durable.leaf_checkpoint_dir)


def _phase(run: _Run, name: str, body, *, checks, record, saved=None,
           restorable: bool = False, **span_args):
    """One phase boundary: restore, run, validate, checkpoint, journal.

    A ``restorable`` phase whose checkpoint loads skips ``body``; else
    ``body()`` runs under the phase's timer and ``cat="phase"`` span.
    ``checks(value)`` then fills the validation context and the phase's
    invariant checks run.  Only after they pass does the checkpoint
    (``saved(value)``; None = the phase keeps none) land and
    ``<name>_done`` get journaled with ``record(value)`` — write-ahead:
    journaled done implies validated.  A restored phase is validated
    again but neither re-saved nor re-journaled.
    """
    tracer = run.telemetry.tracer
    durable = run.durable
    if run.cancel is not None:
        run.cancel.check()
    restored = False
    if restorable:
        try:
            with tracer.span(
                "durability.restore", cat="durability", pid=PID_DRIVER, phase=name
            ):
                value = durable.phases.load(name)
        except CheckpointError:
            pass  # corrupt checkpoint: the phase re-runs
        else:
            restored = True
            run.state.restored.append(name)
            logger.info("resume: %s restored from checkpoint", name)
    if not restored:
        with run.timer.phase(name), tracer.span(
            name, cat="phase", pid=PID_DRIVER, **span_args
        ):
            value = body()
    if run.vctx is not None:
        from ..validate.invariants import run_phase_checks

        for key, item in checks(value).items():
            setattr(run.vctx, key, item)
        run_phase_checks(name, run.vctx, run.config.validate, run.vreport, run.telemetry)
    if durable is not None and not restored:
        if saved is not None:
            with tracer.span(
                "durability.checkpoint", cat="durability", pid=PID_DRIVER, phase=name
            ):
                durable.phases.save(name, saved(value))
        durable.note(
            f"{name}_done",
            {**record(value), "wall_seconds": run.timer.seconds.get(name, 0.0)},
        )
    return value


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
    a transport object, a name (one of
    :data:`~repro.runtime.TRANSPORT_NAMES`: ``"local"``/``"shm"``/``"tcp"``),
    or None to build one from ``config.resolved_transport()``.  A
    transport built here (from a name or the config) is owned by this
    call and closed — pool reaped, shared-memory segments unlinked — on
    every exit path.  A caller-provided transport *object* is never
    closed here; its arena is rewound instead, so repeated runs reuse
    the same pages.
    """
    if telemetry is None:
        telemetry = Telemetry() if config.telemetry else Telemetry.disabled()
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
        else:
            _rewind(transport)
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
    # Normalise ids to 0..n-1 (input order); merge/sweep set logic keys on
    # them, and the final labels align with input order.
    internal = PointSet(
        ids=np.arange(n, dtype=np.int64), coords=points.coords, weights=points.weights
    )
    run = _Run(config, transport, telemetry)
    if config.validate != "off":
        # Each phase boundary runs its registered checkers and raises
        # ValidationError on the first violated invariant.
        from ..validate.invariants import ValidationContext, ValidationReport

        run.vreport = ValidationReport(level=config.validate)
        run.vctx = ValidationContext(
            points=internal, eps=config.eps, minpts=config.minpts, config=config
        )
    # Durability (repro.durability): open the run directory, replay its
    # journal, and classify what a resume may skip.
    if config.run_dir is not None:
        run.durable = RunDirectory(config.run_dir)
        run.state = run.durable.start(
            points,
            config,
            resume=config.resume,
            metrics=telemetry.metrics,
            tracer=telemetry.tracer,
        )
    try:
        return _run_phases(run, internal, n_dropped_invalid)
    finally:
        if run.durable is not None:
            run.durable.close()


def _run_phases(run: _Run, internal: PointSet, n_dropped_invalid: int) -> MrScanResult:
    config, durable, state, telemetry = run.config, run.durable, run.state, run.telemetry
    n = len(internal)

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
                timings=PhaseBreakdown(),
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

    def partition():
        phase1 = DistributedPartitioner(
            config.eps,
            config.minpts,
            config.partition_nodes,
            transport=run.transport,
            rebalance=config.rebalance_partitions,
            shadow_representatives=config.shadow_representatives,
            output_mode=config.partition_output,
            tracer=telemetry.tracer,
            fault_injector=config.fault_plan,
            resilience=config.resilience_policy(),
        ).run(internal, config.n_leaves, workdir=config.materialize_dir)
        logger.info(
            "partition: %d points -> %d partitions via %d nodes (%s output, "
            "imbalance %.2f)",
            n,
            phase1.n_partitions,
            phase1.n_partition_nodes,
            config.partition_output,
            phase1.plan.size_imbalance(),
        )
        return phase1

    phase1 = _phase(
        run, "partition", partition,
        restorable=state.partition_restorable,
        checks=lambda p: {"phase1": p},
        saved=lambda p: p,
        record=lambda p: {"n_partitions": p.n_partitions,
                          "n_partition_nodes": p.n_partition_nodes},
        n_points=n,
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

    partial = _cluster_merge_sweep(
        run, phase1.partitions, phase1.plan, n, on_leaf_result=on_leaf_result
    )
    labels, outputs = partial.labels, list(partial.outputs.values())
    logger.info(
        "sweep: wrote %d points (%d noise) in %.3fs wall",
        n,
        int(np.count_nonzero(labels == -1)),
        run.timer.seconds.get("sweep", 0.0),
    )
    timings = PhaseBreakdown(**{
        name: run.timer.seconds.get(name, 0.0)
        for name in ("partition", "cluster", "merge", "sweep")
    })

    # Faults from both trees, in phase order, with exact aggregates.
    fault_log = FaultLog()
    fault_log.extend(phase1.fault_events)
    fault_log.extend(partial.faults)
    checkpoint_hits = sum(1 for o in outputs if o.from_checkpoint)
    if fault_log.total or checkpoint_hits:
        logger.info(
            "resilience: %d fault(s) (%s), %d checkpoint hit(s), %d dead node(s)",
            fault_log.total,
            ", ".join(f"{k}={v}" for k, v in sorted(fault_log.by_kind.items()))
            or "none",
            checkpoint_hits,
            partial.n_dead_nodes,
        )

    if durable is not None:
        durable.note("run_end", {"n_clusters": partial.n_clusters})
    result = MrScanResult(
        labels=labels,
        core_mask=partial.core_mask,
        n_clusters=partial.n_clusters,
        timings=timings,
        virtual_timings=replace(partial.virtual, partition=phase1.virtual_seconds()),
        n_leaves=max(phase1.n_partitions, 1),
        n_partition_nodes=phase1.n_partition_nodes,
        partition_io=phase1.io_trace,
        output_io=partial.output_io,
        gpu_stats=[o.stats for o in outputs],
        merge_outcomes=partial.merge_outcomes,
        network_traces={
            "partition_map": phase1.map_trace,
            "partition_reduce": phase1.reduce_trace,
            "partition_multicast": phase1.multicast_trace,
            **(
                {"partition_distribute": phase1.distribute_trace}
                if phase1.distribute_trace is not None
                else {}
            ),
            **partial.network_traces,
        },
        leaf_point_counts=[len(own) + len(shadow) for own, shadow in phase1.partitions],
        telemetry=telemetry,
        faults=fault_log.events,
        fault_summary=fault_log.summary(),
        checkpoint_hits=checkpoint_hits,
        validation=run.vreport,
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
    #: Of those, how many took the append path.
    n_appended: int = 0
    #: ``cluster_map`` / ``merge_reduce`` / ``sweep_multicast`` traces.
    network_traces: dict = field(default_factory=dict)
    #: Critical-path cluster / merge / sweep seconds (partition is 0).
    virtual: VirtualBreakdown = field(default_factory=VirtualBreakdown)
    #: Owned-point writes of the sweep, one sequential write per leaf.
    output_io: IOTrace = field(default_factory=IOTrace)
    merge_outcomes: list = field(default_factory=list)
    #: Fault events of the map tree, then of the merge tree.
    faults: list = field(default_factory=list)
    n_dead_nodes: int = 0


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
    all leaves.  Global ids are not stable across merges, so every leaf's
    labels are re-swept against the new assignment: one gather, in which
    a cached output reuses the cut it carries.  A batch run
    (:func:`run_pipeline`) runs the same phases after its partition phase.

    Outputs made here keep their leaf's :class:`LeafState`.  A dirty leaf
    with a cached output appends from its state
    (:meth:`LeafState.append`): its view must be the cached one's plus
    inserted rows, and the result is what a full pass would return; its
    summary searches for representatives among the cached summary's and
    the rows that became core only.  A leaf without a cached output is
    clustered in full.  Cached outputs are only read, so a retried leaf
    appends again from the same one.

    The caller owns ``transport`` — it is never closed here, so pools and
    arenas stay warm across calls; the arena is rewound as the call
    returns or raises, so every call restages into the same pages.
    Nothing here spills: a retried leaf runs again (a dirty one appends
    again from the same cached output).

    ``cancel`` (a :class:`~repro.resilience.CancelToken`) makes the run
    abandonable: the token is checked between phases and threaded into
    every tree collective, so a cancelled or deadline-expired run raises
    :class:`~repro.errors.OperationCancelledError` without committing
    anything — the caller's snapshot and journal are untouched.
    """
    run = _Run(
        config,
        transport,
        telemetry if telemetry is not None else Telemetry.disabled(),
        cancel=cancel,
        keep_state=True,
    )
    try:
        return _cluster_merge_sweep(
            run, partitions, plan, n_points,
            dirty=dirty, cached=cached_outputs, on_leaf_result=on_leaf_result,
        )
    finally:
        _rewind(transport)


def _cluster_merge_sweep(
    run: _Run, partitions, plan, n_points: int, *,
    dirty=None, cached=None, on_leaf_result=None,
) -> PartialRunResult:
    """The cluster, merge and sweep phases of every run (see
    :func:`cluster_merge_sweep`), each through one :func:`_phase`."""
    config, transport, telemetry = run.config, run.transport, run.telemetry
    tracer = telemetry.tracer
    n_leaves = len(partitions)
    cached = dict(cached or {})
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

    def tree(n_tree_leaves: int) -> Network:
        return Network(
            Topology.paper_style(n_tree_leaves, config.fanout),
            transport,
            tracer=tracer,
            trace_pid=PID_TREE,
            fault_injector=config.fault_plan,
            resilience=resilience,
            cancel=run.cancel,
        )

    # ----------------------------- cluster ----------------------------- #
    # Stage the partitions through the transport's data plane when it has
    # one (repro.runtime): each leaf task then carries ~100-byte refs and
    # the arrays themselves never ride the task pickles.
    staged = _stage_partitions(transport, [partitions[i] for i in need], tracer)
    tasks = [
        _ClusterLeafTask(
            leaf_id=pid,
            own=own,
            shadow=shadow,
            owned_cells=frozenset(plan.partitions[pid].cells),
            config=config,
            trace=telemetry.enabled,
            checkpoint_dir=run.checkpoint_dir,
            keep_state=run.keep_state,
            prior=cached[pid].state if pid in dirty and pid in cached else None,
        )
        for pid, (own, shadow) in zip(need, staged)
    ]
    if getattr(transport, "supports_staging", False) and telemetry.enabled:
        # Traffic the refs keep off the wire for one dispatch round.
        telemetry.metrics.counter("runtime.bytes_avoided").inc(
            sum(t.array_nbytes - t.payload_bytes() for t in tasks)
        )
    # The cluster map rides a tree sized to the leaves it re-clusters
    # (every leaf in a batch run); tasks carry their real leaf ids, so
    # outputs slot straight back into the full-tree merge below.
    map_tree = tree(len(tasks)) if tasks else None
    traces = {"cluster_map": NetworkTrace()}

    def cluster():
        fresh = {}
        if tasks:
            outs, traces["cluster_map"] = map_tree.map_leaves(
                _cluster_leaf,
                tasks,
                name="cluster",
                recover=_split_on_oom,
                cost=_ClusterLeafTask.device_cost,
                capacity=float(config.device.memory_bytes),
                on_result=on_leaf_result,
            )
            for o in outs:
                tracer.ingest(o.spans)
                fresh[o.leaf_id] = o
                if o.state is not None:
                    own, shadow = partitions[o.leaf_id]
                    o.state.own_ids = as_pointset(own).ids
                    o.state.shadow_ids = as_pointset(shadow).ids
            logger.info(
                "cluster: %s (%d leaves); slowest leaf %s distance ops",
                map_tree.topology.describe(),
                len(tasks),
                max(o.stats.total_distance_ops for o in outs),
            )
        return [fresh[i] if i in fresh else cached[i] for i in range(n_leaves)]

    try:
        outputs = _phase(
            run, "cluster", cluster,
            checks=lambda outs: {"outputs": outs},
            record=lambda outs: {
                "n_leaves": len(outs),
                "checkpoint_hits": sum(1 for o in outs if o.from_checkpoint),
            },
            n_leaves=len(tasks),
        )
    except ValidationError:
        # The spills hold the output that failed its checks: a resume
        # must re-cluster those leaves, not replay them.
        if run.checkpoint_dir is not None:
            store = LeafCheckpointStore(run.checkpoint_dir)
            for pid in need:
                store.invalidate(pid)
        raise

    # --------------------------- merge, sweep -------------------------- #
    merge_filter = MergeFilter(config.eps, tracer=tracer)
    network = tree(n_leaves)
    traces["merge_reduce"] = NetworkTrace()

    def merge():
        assignment, traces["merge_reduce"] = network.reduce(
            [o.summary for o in outputs], merge_filter, name="merge"
        )
        logger.info(
            "merge: %d leaf clusters -> %d global clusters (%d bytes up the tree)",
            sum(o.summary.n_clusters for o in outputs),
            assignment.n_clusters,
            traces["merge_reduce"].total_bytes,
        )
        return assignment

    assignment = _phase(
        run, "merge", merge,
        restorable=run.state.merge_restorable,
        checks=lambda a: {"assignment": a},
        saved=lambda a: a,
        record=lambda a: {"n_clusters": a.n_clusters},
    )
    gather_seconds = 0.0

    def sweep():
        nonlocal gather_seconds
        _, traces["sweep_multicast"] = network.multicast(assignment, name="sweep")
        if run.cancel is not None:
            run.cancel.check()
        t_gather = time.perf_counter()
        swept = _sweep(outputs, partitions, assignment, n_points)
        gather_seconds = time.perf_counter() - t_gather
        tracer.add_span(
            "sweep.gather", t_gather, t_gather + gather_seconds,
            cat="sweep", pid=PID_DRIVER, n_leaves=len(outputs),
        )
        return swept

    swept = _phase(
        run, "sweep", sweep,
        checks=lambda s: {"sweep_results": s.results(), "labels": s.labels,
                          "core_mask": s.core_mask},
        saved=lambda s: (s.labels, s.core_mask),
        record=lambda s: {
            "n_points": int(n_points),
            "labels_digest": hashlib.sha256(
                np.ascontiguousarray(s.labels).tobytes()
            ).hexdigest(),
        },
    )

    output_io = IOTrace()
    for cut in swept.cuts:
        if len(cut.owned_ids):
            output_io.record(
                cut.leaf_id, "write", len(cut.owned_ids) * (RECORD_BYTES + 8),
                sequential=True,
            )
    trees = [network] if map_tree is None else [map_tree, network]
    return PartialRunResult(
        labels=swept.labels,
        core_mask=swept.core_mask,
        n_clusters=assignment.n_clusters,
        outputs=dict(enumerate(outputs)),
        reclustered=frozenset(need),
        n_fresh=sum(1 for i in need if not outputs[i].from_checkpoint),
        n_appended=sum(1 for i in need if outputs[i].appended),
        network_traces=traces,
        # Critical-path ("virtual parallel") phase times from the
        # recorded per-node compute seconds — what a one-process-per-node
        # deployment would measure (see repro.mrnet.schedule).
        virtual=VirtualBreakdown(
            cluster=map_virtual_time(traces["cluster_map"]),
            merge=reduce_critical_path(network.topology, traces["merge_reduce"]),
            sweep=gather_seconds,
        ),
        output_io=output_io,
        merge_outcomes=list(merge_filter.outcomes),
        faults=[event for t in trees for event in t.fault_log.events],
        n_dead_nodes=len(set().union(*(t.dead_nodes for t in trees))),
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
    ``transport`` takes a backend name (``local``/``shm``/``tcp``) or a
    pre-built transport object.  Additional keyword arguments go to
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
