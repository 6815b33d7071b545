"""Resident clustering state and the incremental ingest transaction.

:class:`ServeState` is the daemon's single source of truth: the resident
point set (internal ids ``0..n-1``, external ids mapped alongside), the
partition plan and histogram, every leaf's cached output, and the
current global labels.  It is transport-agnostic and synchronous — the
asyncio server serializes ingests onto it from an executor thread and
answers queries from committed snapshots.

One ingest is a **transaction** over a candidate copy of the spatial
state:

1. sanitize the batch, assign internal ids, compute its touched cells;
2. adopt cells that were empty at plan time
   (:func:`repro.partition.adopt_cells` on a *copied* plan);
3. merge the batch's histogram into a new one and refresh the shadow
   sets of every affected partition;
4. map touched cells to dirty partitions
   (:func:`repro.partition.dirty_partitions`);
5. append the batch to the committed partitions
   (:func:`~repro.partition.partitioner.append_points`): only the
   partitions owning or shadowing a batch cell change, clean ones come
   back as the same objects with their cached labels aligned, and the
   result equals :func:`~repro.partition.partitioner.partition_points`
   on the union byte for byte — no ingest re-routes the resident set;
   dirty specs get their point counts from the appended own rows;
6. run :func:`repro.core.pipeline.cluster_merge_sweep` with every
   leaf's committed output: clean leaves reuse theirs, and each dirty
   leaf appends from its own's
   :class:`~repro.core.pipeline.LeafState` (the engine updates the last
   output around the inserted rows, and the summary searches only the
   last representatives and the new cores); a retried dirty leaf
   appends again from the same committed output;
7. commit — swap every reference under the snapshot lock, journal
   ``ingest_done``, bump ``serve.*`` metrics.

A failure anywhere before step 7 leaves the committed state untouched
(the next ingest simply starts from it again), which is what makes a
worker ``kill`` fault or an OOM mid-re-cluster safe: the self-healing
transport retries inside step 6, and if the run ultimately fails the ingest
is rejected without poisoning the resident state.  Nothing here spills
leaf checkpoints: a retried bootstrap leaf re-clusters, with the same
output, so the only durable state is the ingest log.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from ..core.config import MrScanConfig
from ..core.pipeline import cluster_merge_sweep
from ..durability.ingestlog import IngestLog, batch_digest
from ..durability.rundir import config_fingerprint, dataset_fingerprint
from ..errors import ConfigError, FormatError
from ..partition.dirty import adopt_cells, dirty_partitions, touched_cells_of
from ..partition.grid import GridHistogram, cell_of_coords
from ..partition.partitioner import append_points, form_partitions, partition_points
from ..partition.shadow import refresh_shadow
from ..points import PointSet
from ..telemetry import Telemetry

__all__ = ["IngestOutcome", "ServeState"]

logger = logging.getLogger("repro.serve")

#: Test/chaos hook: seconds to sleep inside an ingest *after* the batch
#: blob is durable but *before* the transaction commits and acks — the
#: deterministic window the crash harness SIGKILLs the daemon in.
INGEST_DELAY_ENV = "MRSCAN_SERVE_INGEST_DELAY"


@dataclass
class IngestOutcome:
    """What one committed ingest did (the wire-level ack payload)."""

    seq: int
    n_points: int
    n_dropped: int
    n_touched_cells: int
    dirty_leaves: tuple[int, ...]
    dirty_ratio: float
    n_reclustered: int
    n_clusters: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "n_points": self.n_points,
            "n_dropped": self.n_dropped,
            "n_touched_cells": self.n_touched_cells,
            "dirty_leaves": list(self.dirty_leaves),
            "dirty_ratio": self.dirty_ratio,
            "n_reclustered": self.n_reclustered,
            "n_clusters": self.n_clusters,
            "seconds": self.seconds,
        }


@dataclass
class _Snapshot:
    """The committed, queryable view (swapped atomically on commit)."""

    labels: np.ndarray
    core_mask: np.ndarray
    external_ids: np.ndarray
    n_clusters: int


class ServeState:
    """Resident state of one serving session.

    Parameters
    ----------
    base:
        The initial dataset (external ids preserved).  Must be non-empty
        — the partition plan is formed from its histogram and keeps its
        leaf count for the session's lifetime.
    config:
        Pipeline parameters.  ``config.n_leaves`` fixes the leaf count.
    transport:
        A caller-owned transport (say a resident
        :class:`~repro.runtime.ShmTransport`) handed to every partial
        run; neither this class nor the run closes it.
    ingest_log:
        Optional :class:`~repro.durability.IngestLog` for WAL durability.
    """

    def __init__(
        self,
        base: PointSet,
        config: MrScanConfig,
        *,
        transport,
        telemetry: Telemetry | None = None,
        ingest_log: IngestLog | None = None,
        resume: bool = False,
    ) -> None:
        if len(base) == 0:
            raise ConfigError("serve needs a non-empty base dataset")
        self.config = config
        self.transport = transport
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.metrics = self.telemetry.metrics
        self.ingest_log = ingest_log
        self._snapshot_lock = threading.Lock()
        self._ingest_lock = threading.Lock()
        self.n_ingests = 0
        self.started_at = time.time()
        #: Wall seconds of the last committed ingest — the server's
        #: ``retry_after_s`` estimate keys on it.
        self.last_ingest_seconds = 0.0

        base, n_dropped = base.drop_invalid()
        if len(base) == 0:
            raise ConfigError("base dataset has no finite points")
        if n_dropped:
            logger.info("serve: dropped %d non-finite base row(s)", n_dropped)
        base.validate_unique_ids()

        if self.ingest_log is not None:
            fresh = self.ingest_log.open_serve(
                config=config_fingerprint(config),
                base=dataset_fingerprint(base),
                n_base=len(base),
            )
            if not fresh and not resume:
                raise ConfigError(
                    "ingest log already holds a serving session; pass "
                    "--resume to replay it or use a fresh --run-dir"
                )

        self._bootstrap(base)

        if self.ingest_log is not None and resume:
            acked = self.ingest_log.acked()
            for batch in acked:
                self._apply_ingest(batch.coords, batch.ids, journal=False)
                self.n_ingests += 1
            if acked:
                logger.info(
                    "serve: resumed %d acked ingest(s) from %s",
                    len(acked),
                    self.ingest_log.root,
                )

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    def _bootstrap(self, base: PointSet) -> None:
        """Full (non-incremental) load of the base dataset."""
        cfg = self.config
        external_ids = base.ids.copy()
        points = PointSet(
            ids=np.arange(len(base), dtype=np.int64),
            coords=base.coords,
            weights=base.weights,
        )
        histogram = GridHistogram.from_points(points, cfg.eps)
        plan = form_partitions(
            histogram, cfg.n_leaves, cfg.minpts, rebalance=cfg.rebalance_partitions
        )
        partitions = partition_points(points, plan)
        result = cluster_merge_sweep(
            partitions=partitions,
            plan=plan,
            n_points=len(points),
            config=cfg,
            transport=self.transport,
            dirty=None,  # everything: the initial full cluster
            telemetry=self.telemetry,
        )
        self.points = points
        self.external_ids = external_ids
        self._ext_to_int = {int(e): i for i, e in enumerate(external_ids)}
        self.histogram = histogram
        self.plan = plan
        self.partitions = partitions
        self.outputs = result.outputs
        self.snapshot = _Snapshot(
            labels=result.labels,
            core_mask=result.core_mask,
            external_ids=external_ids,
            n_clusters=result.n_clusters,
        )
        self.last_dirty_ratio = 1.0
        if self.metrics.enabled:
            self.metrics.gauge("serve.points").set(len(points))
            self.metrics.gauge("serve.clusters").set(result.n_clusters)
        logger.info(
            "serve: bootstrapped %d points into %d leaves (%d clusters)",
            len(points),
            cfg.n_leaves,
            result.n_clusters,
        )

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        coords: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        cancel=None,
    ) -> IngestOutcome:
        """Ingest one batch; blocks until the new labels are committed.

        ``coords`` is ``(k, 2)``; ``ids`` supplies external ids (fresh
        ones are allocated past the current maximum when omitted).
        Thread-safe: ingests serialize on an internal lock; queries keep
        reading the previous snapshot until commit.

        ``cancel`` (a :class:`~repro.resilience.CancelToken`) bounds the
        transaction: a cancelled or deadline-expired token unwinds the
        re-cluster with :class:`~repro.errors.OperationCancelledError`
        *before* commit — labels, plan and journal all stay at the
        previous committed state, and the batch's WAL blob (durable but
        never acked) is exactly what a resume replays or drops.
        """
        with self._ingest_lock:
            outcome = self._apply_ingest(coords, ids, journal=True, cancel=cancel)
            self.n_ingests += 1
            return outcome

    def _apply_ingest(
        self,
        coords: np.ndarray,
        ids: np.ndarray | None,
        *,
        journal: bool,
        cancel=None,
    ) -> IngestOutcome:
        t0 = time.perf_counter()
        if cancel is not None:
            cancel.check()
        cfg = self.config
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        if len(coords) == 0:
            raise FormatError("empty ingest batch")
        finite = np.isfinite(coords).all(axis=1)
        n_dropped = int((~finite).sum())
        if ids is None:
            start = int(self.external_ids.max()) + 1 if len(self.external_ids) else 0
            ids = np.arange(start, start + len(coords), dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64).reshape(-1)
            if len(ids) != len(coords):
                raise FormatError(
                    f"batch ids ({len(ids)}) and coords ({len(coords)}) disagree"
                )
        coords, ids = coords[finite], ids[finite]
        if len(coords) == 0:
            raise FormatError("ingest batch has no finite points")
        if len(np.unique(ids)) != len(ids):
            raise FormatError("ingest batch repeats an external id")
        clash = [int(e) for e in ids if int(e) in self._ext_to_int]
        if clash:
            raise FormatError(
                f"{len(clash)} external id(s) already resident "
                f"(e.g. {clash[:5]})"
            )

        seq = self.n_ingests
        digest = None
        if journal and self.ingest_log is not None:
            # WAL step 1: the blob is durable before any state changes.
            digest = self.ingest_log.save_batch(seq, coords, ids)
        else:
            digest = batch_digest(coords, ids)

        # ---- plan the incremental run over candidate copies ----------- #
        touched = touched_cells_of(cell_of_coords(coords, cfg.eps))
        # Adoption appends to cell lists and refreshing replaces shadow
        # sets: copying those per spec is a deep enough copy.
        plan = replace(
            self.plan,
            partitions=[
                replace(spec, cells=list(spec.cells), shadow_cells=set(spec.shadow_cells))
                for spec in self.plan.partitions
            ],
        )
        owner = plan.cell_owner()
        new_cells = {c for c in touched if c not in owner}
        adopt_cells(plan, new_cells, owner=owner)
        histogram = self.histogram.merge(
            GridHistogram.from_points(PointSet(ids=ids, coords=coords), cfg.eps)
        )
        dirty = dirty_partitions(plan, touched, owner=owner)
        # Newly non-empty cells change their neighbors' shadow sets; every
        # such partition is in ``dirty`` by construction, so refreshing
        # exactly the dirty specs restores the shadow invariant.
        for pid in dirty:
            refresh_shadow(plan.partitions[pid], histogram)

        n_internal = len(self.points)
        batch_internal = PointSet(
            ids=np.arange(n_internal, n_internal + len(coords), dtype=np.int64),
            coords=coords,
        )
        points = self.points.concat(batch_internal)
        # Append, never re-route: clean partitions come back as the same
        # objects (their cached labels stay aligned), and internal ids
        # are row positions, which is the order append_points needs.
        partitions = append_points(self.partitions, batch_internal, self.plan, plan)
        for pid in dirty:
            plan.partitions[pid].point_count = len(partitions[pid][0])

        # Every committed output: the clean leaves' are reused, the dirty
        # leaves' are where their append path starts.  No spills: a
        # retried dirty leaf appends again from its committed output.
        result = cluster_merge_sweep(
            partitions=partitions,
            plan=plan,
            n_points=len(points),
            config=cfg,
            transport=self.transport,
            dirty=dirty,
            cached_outputs=self.outputs,
            telemetry=self.telemetry,
            cancel=cancel,
        )

        delay = float(os.environ.get(INGEST_DELAY_ENV, "0") or 0)
        if delay > 0:
            # Chaos window: blob durable, transaction complete, commit
            # and ack still pending — a SIGKILL here must lose exactly
            # this batch and nothing else.
            time.sleep(delay)

        # ---- commit ---------------------------------------------------- #
        external_ids = np.concatenate([self.external_ids, ids])
        with self._snapshot_lock:
            self.points = points
            self.external_ids = external_ids
            for offset, e in enumerate(ids):
                self._ext_to_int[int(e)] = n_internal + offset
            self.histogram = histogram
            self.plan = plan
            self.partitions = partitions
            self.outputs = result.outputs
            self.snapshot = _Snapshot(
                labels=result.labels,
                core_mask=result.core_mask,
                external_ids=external_ids,
                n_clusters=result.n_clusters,
            )
        dirty_ratio = len(dirty) / max(1, cfg.n_leaves)
        self.last_dirty_ratio = dirty_ratio
        self.last_ingest_seconds = time.perf_counter() - t0
        if journal and self.ingest_log is not None:
            # WAL step 2: journaled == acked.
            self.ingest_log.commit(
                seq,
                digest=digest,
                n_points=len(coords),
                dirty_leaves=dirty,
                n_touched_cells=len(touched),
            )
        seconds = time.perf_counter() - t0
        if self.metrics.enabled:
            self.metrics.counter("serve.ingests").inc()
            self.metrics.counter("serve.ingested_points").inc(len(coords))
            self.metrics.counter("serve.reclustered_leaves").inc(len(dirty))
            self.metrics.counter("serve.appended_leaves").inc(result.n_appended)
            self.metrics.gauge("serve.dirty_leaf_ratio").set(dirty_ratio)
            self.metrics.gauge("serve.points").set(len(points))
            self.metrics.gauge("serve.clusters").set(result.n_clusters)
            self.metrics.quantile("serve.ingest_seconds").observe(seconds)
        logger.info(
            "serve: ingest %d committed %d point(s); %d/%d dirty leaves "
            "(%.0f%%), %d clusters, %.3fs",
            seq,
            len(coords),
            len(dirty),
            cfg.n_leaves,
            100 * dirty_ratio,
            result.n_clusters,
            seconds,
        )
        return IngestOutcome(
            seq=seq,
            n_points=len(coords),
            n_dropped=n_dropped,
            n_touched_cells=len(touched),
            dirty_leaves=tuple(sorted(dirty)),
            dirty_ratio=dirty_ratio,
            n_reclustered=result.n_fresh,
            n_clusters=result.n_clusters,
            seconds=seconds,
        )

    # ------------------------------------------------------------------ #
    # Queries (read the committed snapshot)
    # ------------------------------------------------------------------ #

    def _snap(self) -> _Snapshot:
        with self._snapshot_lock:
            return self.snapshot

    def labels_for(self, ids) -> tuple[list[int], list[bool]]:
        """Labels and core flags for the given external ids.

        Unknown ids raise :class:`~repro.errors.FormatError` (a service
        answering "-1" for a typo'd id would be indistinguishable from
        noise).
        """
        snap = self._snap()
        t0 = time.perf_counter()
        labels: list[int] = []
        core: list[bool] = []
        for e in ids:
            i = self._ext_to_int.get(int(e))
            if i is None or i >= len(snap.labels):
                raise FormatError(f"unknown point id {int(e)}")
            labels.append(int(snap.labels[i]))
            core.append(bool(snap.core_mask[i]))
        if self.metrics.enabled:
            self.metrics.quantile("serve.query_seconds").observe(
                time.perf_counter() - t0
            )
        return labels, core

    def dump(self) -> dict:
        """The full labelling (external ids, labels, core flags)."""
        snap = self._snap()
        return {
            "ids": snap.external_ids.tolist(),
            "labels": snap.labels[: len(snap.external_ids)].tolist(),
            "core": snap.core_mask[: len(snap.external_ids)].tolist(),
        }

    def stats(self) -> dict:
        snap = self._snap()
        return {
            "n_points": int(len(snap.external_ids)),
            "n_clusters": int(snap.n_clusters),
            "n_noise": int(np.count_nonzero(snap.labels == -1)),
            "n_leaves": int(self.config.n_leaves),
            "n_ingests": int(self.n_ingests),
            "last_dirty_ratio": float(self.last_dirty_ratio),
            "uptime_seconds": time.time() - self.started_at,
            "eps": float(self.config.eps),
            "minpts": int(self.config.minpts),
        }
