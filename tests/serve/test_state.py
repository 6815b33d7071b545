"""ServeState: incremental ingest, provenance, durability, rollback."""

from __future__ import annotations

import hashlib
import os
from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from block_reference import assert_fresh_cell_index
from repro.core.config import MrScanConfig
from repro.core.pipeline import _ClusterLeafTask, _cluster_leaf, mrscan
from repro.dbscan.labels import clustering_signature
from repro.gpu.densebox import CellIndex
from repro.durability.ingestlog import IngestLog
from repro.errors import FormatError, OperationCancelledError, RetryExhaustedError
from repro.mrnet import LocalTransport, Topology
from repro.partition import partition_points
from repro.partition.grid import GRID_NEIGHBOR_OFFSETS
from repro.points import PointSet
from repro.resilience import CancelToken, FaultPlan, FaultSpec
from repro.runtime import ShmTransport
from repro.runtime.executor import borrow_transport, make_transport
from repro.serve.state import ServeState
from repro.telemetry import Telemetry
from repro.validate import labels_equivalent
from shm_segments import own_usage


@pytest.fixture
def base() -> PointSet:
    rng = np.random.default_rng(0)
    centers = rng.uniform(-3, 3, size=(6, 2))
    which = rng.integers(0, 6, size=6000)
    return PointSet.from_coords(
        centers[which] + rng.normal(0, 0.1, size=(6000, 2))
    )


@pytest.fixture
def config() -> MrScanConfig:
    return MrScanConfig(eps=0.08, minpts=8, n_leaves=8)


@pytest.fixture
def transport():
    t = make_transport("local")
    yield t
    t.close()


def _local_batch(base: PointSet, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    anchor = base.coords[int(rng.integers(0, len(base)))]
    return anchor + rng.normal(0, 0.03, size=(n, 2))


def _cells_beside_another_partition(state: ServeState):
    """Empty cells that adoption gives to a partition whose shadow then
    grows over another partition's resident cell, in cell order: yields
    the cell, the adopter and that resident cell."""
    owner = state.plan.cell_owner()
    for cx, cy in sorted(
        (cx + dx, cy + dy) for cx, cy in owner for dx, dy in GRID_NEIGHBOR_OFFSETS
    ):
        if (cx, cy) in owner:
            continue
        around = [(cx + dx, cy + dy) for dx, dy in GRID_NEIGHBOR_OFFSETS]
        around = [c for c in around if c in owner]
        adopter = min(owner[c] for c in around)
        shadow = state.plan.partitions[adopter].shadow_cells
        grown = [c for c in around if owner[c] != adopter and c not in shadow]
        if grown:
            yield (cx, cy), adopter, grown[0]


def _beside_another_partition(state: ServeState, n: int, seed: int):
    """``n`` points wholly in the first such cell; returns the points, the
    adopter and the resident cell its shadow grows over."""
    for cell, adopter, grown in _cells_beside_another_partition(state):
        rng = np.random.default_rng(seed)
        coords = (np.array(cell) + rng.uniform(0.1, 0.9, (n, 2))) * state.config.eps
        return coords, adopter, grown
    raise AssertionError("no empty cell beside two partitions")


def _assert_materialized(state: ServeState) -> None:
    """The resident partitions are the re-route of the resident points,
    byte for byte, and every spec counts them."""
    want = partition_points(state.points, state.plan)
    for spec, got, ref in zip(state.plan.partitions, state.partitions, want):
        for g, w in zip(got, ref):
            for name in ("ids", "coords", "weights"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
        assert (spec.point_count, spec.shadow_count) == tuple(map(len, got))


def _outputs_digest(state: ServeState) -> str:
    """One digest of every committed leaf output's labels, core mask and
    claims with d²."""
    digest = hashlib.sha256()
    for pid in sorted(state.outputs):
        out = state.outputs[pid]
        for array in (out.labels, out.core_mask, out.state.claims, out.state.claim_d2):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _claim_set(claims: np.ndarray, d2: np.ndarray) -> tuple[bytes, bytes]:
    order = np.lexsort((claims[:, 1], claims[:, 0]))
    return claims[order].tobytes(), d2[order].tobytes()


def _assert_leaves_equal_a_full_pass(state: ServeState) -> None:
    """Every leaf output the state holds (appended or not) is a fresh full
    pass over its current partition: labels, core mask, claims with d²,
    the summary's arrays, and a cell index built from scratch."""
    for pid, out in state.outputs.items():
        own, shadow = state.partitions[pid]
        assert_fresh_cell_index(
            out.state.index, own.concat(shadow).coords, state.config.eps, out.core_mask
        )
        ref = _cluster_leaf(_ClusterLeafTask(
            leaf_id=pid, own=own, shadow=shadow,
            owned_cells=frozenset(state.plan.partitions[pid].cells),
            config=state.config, keep_state=True,
        ))
        assert out.labels.tobytes() == ref.labels.tobytes(), pid
        assert out.core_mask.tobytes() == ref.core_mask.tobytes(), pid
        got, want = out.state, ref.state
        assert _claim_set(got.claims, got.claim_d2) == _claim_set(want.claims, want.claim_d2), pid
        for f in fields(out.summary):
            got, want = getattr(out.summary, f.name), getattr(ref.summary, f.name)
            if isinstance(got, np.ndarray):
                assert got.tobytes() == want.tobytes(), (pid, f.name)
            else:
                assert got == want, (pid, f.name)


def _index_digest(index: CellIndex) -> str:
    digest = hashlib.sha256()
    for f in fields(index):
        value = getattr(index, f.name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return digest.hexdigest()


def test_ingest_reclusters_only_dirty_leaves(base, config, transport):
    telemetry = Telemetry()
    state = ServeState(
        base, config, transport=borrow_transport(transport), telemetry=telemetry
    )
    before = dict(state.outputs)
    outcome = state.ingest(_local_batch(base, 200, 1))

    # A spatially-local batch dirties a strict subset of the leaves ...
    assert 0 < len(outcome.dirty_leaves) < config.n_leaves
    assert outcome.dirty_ratio < 1.0
    # ... and provenance proves only they re-clustered: clean leaves keep
    # their exact cached output objects.
    for pid, out in state.outputs.items():
        if pid in outcome.dirty_leaves:
            assert out is not before[pid]
        else:
            assert out is before[pid]
    assert outcome.n_reclustered == len(outcome.dirty_leaves)
    # The serve.dirty_leaf_ratio metric carries the same fact.
    gauge = telemetry.metrics.get("serve.dirty_leaf_ratio")
    assert gauge is not None and gauge.value == pytest.approx(outcome.dirty_ratio)
    assert telemetry.metrics.get("serve.ingest_seconds").count == 1


def test_dirty_leaves_take_the_append_path(base, config, transport):
    """Bootstrap clusters every leaf in full; an ingest's dirty leaves are
    appended to, and the span, the counter and the ack agree."""
    telemetry = Telemetry()
    state = ServeState(
        base, config, transport=borrow_transport(transport), telemetry=telemetry
    )
    boot = [s for s in telemetry.tracer.drain() if s.name == "leaf.cluster"]
    assert len(boot) == config.n_leaves
    assert {s.args["mode"] for s in boot} == {"full"}
    assert all(s.args["n_inserted"] == s.args["n_points"] for s in boot)

    batch = _local_batch(base, 200, 1)
    outcome = state.ingest(batch)
    spans = [s for s in telemetry.tracer.drain() if s.name == "leaf.cluster"]
    assert sorted(s.tid for s in spans) == list(outcome.dirty_leaves)
    assert {s.args["mode"] for s in spans} == {"append"}
    # Every batch row lands in one leaf's own rows, and maybe in shadows.
    assert sum(s.args["n_inserted"] for s in spans) >= len(batch)
    appended = telemetry.metrics.get("serve.appended_leaves")
    assert appended.value == outcome.n_reclustered == len(outcome.dirty_leaves)
    assert telemetry.metrics.get("serve.reclustered_leaves").value == appended.value
    _assert_leaves_equal_a_full_pass(state)


def test_adoption_inserts_resident_rows_mid_shadow(transport):
    """An adopted cell widens the adopter's shadow over another
    partition's resident rows, which merge into the shadow by id: the
    append path sees old rows after inserted ones and still equals a
    full pass."""
    state = ServeState(
        PointSet.from_coords(_machine_base()), MACHINE_CONFIG,
        transport=borrow_transport(transport),
    )
    eps = MACHINE_CONFIG.eps
    cells = np.floor(state.points.coords / eps).astype(np.int64)
    for cell, adopter, grown in _cells_beside_another_partition(state):
        # A cell whose widened shadow takes a resident row with an id
        # below the adopter's last shadow id.
        in_grown = np.flatnonzero((cells == grown).all(axis=1))
        if in_grown.min() < state.partitions[adopter][1].ids.max():
            break
    coords = (np.array(cell) + np.random.default_rng(3).uniform(0.1, 0.9, (20, 2))) * eps
    n_resident = len(state.points)
    old_shadow = state.partitions[adopter][1].ids
    state.ingest(coords)
    new_shadow = state.partitions[adopter][1].ids
    moved = np.flatnonzero((new_shadow < n_resident) & ~np.isin(new_shadow, old_shadow))
    kept = np.flatnonzero(np.isin(new_shadow, old_shadow))
    assert grown in state.plan.partitions[adopter].shadow_cells
    assert len(moved) and moved.min() < kept.max()
    assert state.outputs[adopter].appended
    _assert_leaves_equal_a_full_pass(state)


@pytest.mark.slow
def test_ingests_on_a_borrowed_shm_pool_stop_growing_shared_memory(
    base, config, transport
):
    """Each partial run rewinds the resident arena, so ingests restage
    into the pages the bootstrap touched (an arena that never rewound
    would touch fresh pages on every ingest); labels match a local twin."""
    local = ServeState(base, config, transport=borrow_transport(transport))
    with ShmTransport(n_workers=2) as shm:
        state = ServeState(base, config, transport=borrow_transport(shm))
        for i in range(1, 31):
            batch = _local_batch(base, 100, 100 + i)
            state.ingest(batch)
            local.ingest(batch)
            if i == 2:
                after_second = own_usage()[1]
        assert 0 < own_usage()[1] <= after_second
        assert state.snapshot.labels.tobytes() == local.snapshot.labels.tobytes()


def test_labels_and_stats_queries(base, config, transport):
    state = ServeState(base, config, transport=borrow_transport(transport))
    outcome = state.ingest(_local_batch(base, 50, 2))
    labels, core = state.labels_for([0, 1, len(base)])
    assert len(labels) == len(core) == 3
    stats = state.stats()
    assert stats["n_points"] == len(base) + outcome.n_points
    assert stats["n_ingests"] == 1
    with pytest.raises(FormatError):
        state.labels_for([10**9])


def test_failed_ingest_leaves_state_committed(base, config, transport):
    state = ServeState(base, config, transport=borrow_transport(transport))
    snap_before = state._snap()
    n_before = len(state.points)
    # Re-using a resident external id must reject the batch ...
    with pytest.raises(FormatError):
        state.ingest(_local_batch(base, 10, 3), ids=np.arange(10))
    # ... without touching the committed state.
    assert len(state.points) == n_before
    assert state._snap() is snap_before
    # The state still works afterwards.
    outcome = state.ingest(_local_batch(base, 10, 4))
    assert outcome.n_points == 10


def test_ingest_log_resume_restores_acked_state(base, config, transport, tmp_path):
    log = IngestLog(tmp_path / "run")
    state = ServeState(
        base,
        config,
        transport=borrow_transport(transport),
        ingest_log=log,
    )
    state.ingest(_local_batch(base, 100, 5))
    state.ingest(_local_batch(base, 100, 6))
    # Adoption beside another partition's resident cell: the adopter's
    # shadow takes that cell's resident rows, on replay too.
    coords, adopter, grown = _beside_another_partition(state, 20, 7)
    state.ingest(coords)
    assert grown in state.plan.partitions[adopter].shadow_cells
    _assert_materialized(state)
    committed = state._snap()
    log.close()

    # A fresh state resuming from the same log replays both acked batches.
    log2 = IngestLog(tmp_path / "run")
    resumed = ServeState(
        base,
        config,
        transport=borrow_transport(transport),
        ingest_log=log2,
        resume=True,
    )
    snap = resumed._snap()
    np.testing.assert_array_equal(snap.labels, committed.labels)
    np.testing.assert_array_equal(snap.core_mask, committed.core_mask)
    np.testing.assert_array_equal(snap.external_ids, committed.external_ids)
    assert resumed.n_ingests == 3
    _assert_materialized(resumed)
    log2.close()


def test_reopening_log_without_resume_is_rejected(base, config, transport, tmp_path):
    log = IngestLog(tmp_path / "run")
    ServeState(base, config, transport=borrow_transport(transport), ingest_log=log)
    log.close()
    from repro.errors import ConfigError

    log2 = IngestLog(tmp_path / "run")
    with pytest.raises(ConfigError):
        ServeState(
            base, config, transport=borrow_transport(transport), ingest_log=log2
        )
    log2.close()


def test_snapshot_equals_a_from_scratch_run(transport):
    """The daemon keeps its bootstrap plan, a fresh run plans the union, so
    their leaves see different eps/√2 cells as dense boxes.  When box
    members left their borders unclaimed, the first draw had the fresh run
    drop a border the daemon clustered; labels must not depend on the
    plan.  The second draw lands in an empty cell whose adoption widens a
    shadow over another partition's resident points."""
    rng = np.random.default_rng(177)
    base = PointSet.from_coords(np.concatenate([
        rng.normal(scale=0.4, size=(150, 2)),
        rng.normal(loc=4.0, scale=0.4, size=(150, 2)),
        rng.uniform(-2, 7, size=(40, 2)),
    ]))
    around_a_point = base.coords[int(rng.integers(len(base)))] + rng.normal(0, 0.3, size=(40, 2))
    config = MrScanConfig(eps=0.4, minpts=5, n_leaves=6)
    for draw in ("around_a_point", "beside_another_partition"):
        state = ServeState(base, config, transport=borrow_transport(transport))
        batch = around_a_point
        if draw == "beside_another_partition":
            batch = _beside_another_partition(state, 40, 178)[0]
        state.ingest(batch)
        _assert_materialized(state)
        snap = state._snap()

        union = PointSet.from_coords(np.vstack([base.coords, batch]))
        full = mrscan(union, config.eps, config.minpts, n_leaves=config.n_leaves)
        report = labels_equivalent(
            union, config.eps, full.labels, full.core_mask, snap.labels, snap.core_mask
        )
        assert report.ok, (draw, report.summary())
        assert clustering_signature(snap.labels) == clustering_signature(full.labels), draw


def test_stray_points_in_empty_cells_are_adopted(base, config, transport):
    """A batch landing wholly in cells that were empty at plan time still
    ingests (cell adoption) and the points are queryable afterwards."""
    state = ServeState(base, config, transport=borrow_transport(transport))
    far = np.array([[500.0, 500.0], [500.01, 500.01], [500.02, 500.0]])
    outcome = state.ingest(far)
    assert outcome.n_points == 3
    labels, _ = state.labels_for([len(base), len(base) + 1, len(base) + 2])
    assert len(labels) == 3


# --------------------------------------------------------------------- #
# The daemon's merge tree runs the config's fault plan, as a batch run's
# does: a fault on its root is retried, and an unrecoverable one fails
# the ingest without committing it.
# --------------------------------------------------------------------- #


def _root_reduce_fault(config: MrScanConfig, **spec) -> MrScanConfig:
    """``config`` with a ``reduce`` fault on the root of the daemon's tree."""
    root = Topology.paper_style(config.n_leaves, config.fanout).root
    plan = FaultPlan(faults=(FaultSpec(node=root, phase="reduce", **spec),))
    return replace(config, fault_plan=plan, backoff_base=0.0)


def test_dead_merge_root_fails_the_ingest_and_commits_nothing(
    base, config, transport
):
    batch = _local_batch(base, 100, 8)
    twin = ServeState(base, config, transport=borrow_transport(transport))
    dirty = set(twin.ingest(batch).dirty_leaves)
    state = ServeState(base, config, transport=borrow_transport(transport))
    before = state._snap()
    outputs, digest = dict(state.outputs), _outputs_digest(state)
    # The fault joins after bootstrap, whose merge would die on it too.
    state.config = replace(
        _root_reduce_fault(config, permanent=True), max_retries=0, failover=False
    )
    with pytest.raises(RetryExhaustedError):
        state.ingest(batch)
    assert state._snap() is before
    assert state.n_ingests == 0
    # The failed run appended to the committed outputs without touching them.
    assert all(state.outputs[pid] is out for pid, out in outputs.items())
    assert _outputs_digest(state) == digest
    # The retry appends to the same outputs, and lands where the twin did.
    state.config = config
    state.ingest(batch)
    assert all(state.outputs[pid].appended for pid in dirty)
    assert state._snap().labels.tobytes() == twin._snap().labels.tobytes()


def test_a_dirty_leaf_crashing_after_its_work_is_retried_by_appending(
    base, config, transport
):
    """A dirty leaf that crashes after its work is retried from its
    committed output: it appends
    again from the committed cell index, which the failed attempt left
    byte for byte as it was, counts as re-clustered, and the labels are
    the fault-free twin's."""
    batch = _local_batch(base, 100, 10)
    twin = ServeState(base, config, transport=borrow_transport(transport))
    want = twin.ingest(batch)
    telemetry = Telemetry()
    state = ServeState(
        base, config, transport=borrow_transport(transport), telemetry=telemetry,
    )
    # The ingest's map tree has one leaf node per dirty leaf, in leaf order.
    node = Topology.paper_style(len(want.dirty_leaves), config.fanout).leaves()[0]
    plan = FaultPlan(faults=(FaultSpec(node=node, phase="cluster", point="after"),))
    state.config = replace(config, fault_plan=plan, backoff_base=0.0)
    crashed = want.dirty_leaves[0]
    committed = state.outputs[crashed].state.index
    before = _index_digest(committed)
    seen = []
    real_grown = CellIndex.grown

    def grown(index, *args):
        seen.append((index is committed, _index_digest(index)))
        return real_grown(index, *args)

    telemetry.tracer.drain()
    with patch.object(CellIndex, "grown", grown):
        got = state.ingest(batch)
    faults = [i for i in telemetry.tracer.instants() if i.name == "fault"]
    assert [(f.args["phase"], f.args["action"]) for f in faults] == [("cluster", "retry")]
    modes = [s.args["mode"] for s in telemetry.tracer.drain() if s.name == "leaf.cluster"]
    assert modes == ["append"] * len(want.dirty_leaves)
    # The crashed leaf grew the committed index twice, the same both times.
    assert seen.count((True, before)) == 2
    assert _index_digest(committed) == before
    assert got.dirty_leaves == want.dirty_leaves
    assert got.n_reclustered == want.n_reclustered == len(want.dirty_leaves)
    assert all(state.outputs[pid].appended for pid in got.dirty_leaves)
    assert state._snap().labels.tobytes() == twin._snap().labels.tobytes()
    assert state._snap().core_mask.tobytes() == twin._snap().core_mask.tobytes()


def test_merge_root_crash_is_retried_to_the_fault_free_labels(base, config, transport):
    batch = _local_batch(base, 100, 9)
    twin = ServeState(base, config, transport=borrow_transport(transport))
    telemetry = Telemetry()
    state = ServeState(
        base, config, transport=borrow_transport(transport), telemetry=telemetry
    )
    state.config = _root_reduce_fault(config, attempt=0)
    state.ingest(batch)
    twin.ingest(batch)
    faults = [i for i in telemetry.tracer.instants() if i.name == "fault"]
    assert [(f.args["phase"], f.args["action"]) for f in faults] == [("merge", "retry")]
    assert state._snap().labels.tobytes() == twin._snap().labels.tobytes()
    assert state._snap().core_mask.tobytes() == twin._snap().core_mask.tobytes()


# --------------------------------------------------------------------- #
# A model of the daemon over ServeState: random
# interleavings of ingests keep the snapshot equal to a from-scratch run
# on exactly the acked points, and a refused ingest commits nothing.
# --------------------------------------------------------------------- #

FUZZ = os.environ.get("MRSCAN_FUZZ") == "1"
MACHINE_CONFIG = MrScanConfig(eps=0.4, minpts=5, n_leaves=6)


def _machine_base() -> np.ndarray:
    rng = np.random.default_rng(177)
    return np.concatenate([
        rng.normal(scale=0.4, size=(180, 2)),
        rng.normal(loc=4.0, scale=0.4, size=(180, 2)),
        rng.uniform(-2, 7, size=(40, 2)),
    ])


class ServeStateMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.acked = [_machine_base()]
        self.state = ServeState(
            PointSet.from_coords(self.acked[0]), MACHINE_CONFIG, transport=LocalTransport()
        )

    def _ingest(self, batch: np.ndarray) -> None:
        outcome = self.state.ingest(batch)
        self.acked.append(batch)
        # Every output kept its state, so every dirty leaf appends.
        assert all(self.state.outputs[pid].appended for pid in outcome.dirty_leaves)

    @rule(seed=st.integers(0, 2**16), n=st.integers(5, 40))
    def local_batch(self, seed: int, n: int) -> None:
        rng = np.random.default_rng(seed)
        resident = self.state.points.coords
        anchor = resident[int(rng.integers(len(resident)))]
        self._ingest(anchor + rng.normal(0, 0.3, size=(n, 2)))

    @rule(seed=st.integers(0, 2**16), n=st.integers(5, 40))
    def scattered_batch(self, seed: int, n: int) -> None:
        self._ingest(np.random.default_rng(seed).uniform(-2, 7, size=(n, 2)))

    @precondition(lambda self: any(_cells_beside_another_partition(self.state)))
    @rule(seed=st.integers(0, 2**16), n=st.integers(5, 40))
    def batch_beside_another_partition(self, seed: int, n: int) -> None:
        coords, adopter, grown = _beside_another_partition(self.state, n, seed)
        self._ingest(coords)
        # The adopter's shadow took the resident rows of ``grown``: rows
        # its append path found inside the shadow, not only at its end.
        assert grown in self.state.plan.partitions[adopter].shadow_cells
        assert self.state.outputs[adopter].appended

    @rule(seed=st.integers(0, 2**16))
    def expired_ingest(self, seed: int) -> None:
        before = self.state._snap()
        outputs, digest = dict(self.state.outputs), _outputs_digest(self.state)
        batch = np.random.default_rng(seed).uniform(-2, 7, size=(20, 2))
        with pytest.raises(OperationCancelledError):
            self.state.ingest(batch, cancel=CancelToken(deadline_s=0))
        assert self.state._snap() is before
        assert all(self.state.outputs[pid] is out for pid, out in outputs.items())
        assert _outputs_digest(self.state) == digest

    @invariant()
    def leaf_outputs_equal_a_full_pass(self) -> None:
        _assert_leaves_equal_a_full_pass(self.state)

    @invariant()
    def partitions_are_materialized(self) -> None:
        _assert_materialized(self.state)

    @invariant()
    def snapshot_equals_a_from_scratch_run(self) -> None:
        cfg = MACHINE_CONFIG
        union = PointSet.from_coords(np.vstack(self.acked))
        snap = self.state._snap()
        full = mrscan(
            union, cfg.eps, cfg.minpts, n_leaves=cfg.n_leaves, transport="local"
        )
        report = labels_equivalent(
            union, cfg.eps, full.labels, full.core_mask, snap.labels, snap.core_mask
        )
        assert report.ok, report.summary()
        assert clustering_signature(snap.labels) == clustering_signature(full.labels)


TestServeStateMachine = ServeStateMachine.TestCase
TestServeStateMachine.settings = settings(
    max_examples=30 if FUZZ else 5, stateful_step_count=20 if FUZZ else 8, deadline=None
)
