"""Crash-resume: interrupted drivers restart and reproduce byte-identical labels.

Driver "crashes" are simulated by monkeypatching a phase body to raise —
the process that owns the run directory aborts exactly as it would on a
SIGKILL (the journal and checkpoints on disk are what a dead driver
leaves behind), then a fresh ``resume=True`` run reconstructs state.
"""

from __future__ import annotations

import copyreg
import hashlib
import json
import pickle
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from merge_reference import write_dict_orders, write_object_graphs

import repro.core.pipeline as pipeline_mod
import repro.durability.checkpoints as checkpoints_mod
from repro.core import mrscan
from repro.core.config import MrScanConfig
from repro.durability import PhaseCheckpointStore, config_fingerprint, replay_journal
from repro.errors import CheckpointError, DurabilityError, ValidationError
from repro.merge import GlobalIdAssignment, merge_summaries
from repro.merge.global_ids import _unpack_assignment
from repro.merge.summary import LeafSummary, _unpack_summary
from repro.partition import PartitionPhaseResult, PartitionPlan, PartitionSpec
from repro.points import PointSet
from repro.resilience import FaultPlan, FaultSpec, LeafCheckpointStore
from repro.validate import assert_resume_equivalent


def _points(n=500, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4.0, size=(5, 2))
    which = rng.integers(0, 5, size=n)
    coords = centers[which] + rng.normal(0.0, 0.08, size=(n, 2))
    return PointSet.from_coords(coords)


EPS, MINPTS, LEAVES = 0.15, 5, 4


def _run(points, run_dir=None, resume=False, **kw):
    return mrscan(
        points,
        EPS,
        MINPTS,
        n_leaves=LEAVES,
        run_dir=(str(run_dir) if run_dir is not None else None),
        resume=resume,
        **kw,
    )


def _journal_types(run_dir):
    return [r.type for r in replay_journal(run_dir / "journal.jsonl")]


def test_completed_run_short_circuits_on_resume(tmp_path):
    points = _points()
    baseline = _run(points)
    first = _run(points, run_dir=tmp_path)
    assert not first.resumed and first.phases_restored == []
    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.resumed
    assert resumed.phases_restored == ["partition", "cluster", "merge", "sweep"]
    assert_resume_equivalent(baseline, resumed)
    np.testing.assert_array_equal(first.labels, resumed.labels)
    types = _journal_types(tmp_path)
    assert types[-2:] == ["resume_begin", "resume_complete"]


def test_fresh_durable_run_journals_every_phase(tmp_path):
    points = _points()
    _run(points, run_dir=tmp_path)
    types = _journal_types(tmp_path)
    assert types[0] == "run_begin"
    assert types.count("leaf_done") == LEAVES
    for expected in ("partition_done", "cluster_done", "merge_done",
                     "sweep_done", "run_end"):
        assert expected in types
    # WAL ordering: each *_done record lands after the previous phase's.
    assert types.index("partition_done") < types.index("cluster_done")
    assert types.index("cluster_done") < types.index("merge_done")
    assert types.index("merge_done") < types.index("sweep_done")
    assert (tmp_path / "config.json").exists()
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["eps"] == EPS


def test_crash_mid_cluster_resumes_without_reclustering_done_leaves(
    tmp_path, monkeypatch
):
    """Driver dies after two leaves finished; resume recovers them from
    spill checkpoints (journal proves the skip) and only re-runs the rest."""
    points = _points()
    baseline = _run(points)

    real_leaf = pipeline_mod._cluster_leaf

    def dying_leaf(task):
        if task.leaf_id >= 2:
            raise RuntimeError("injected driver crash mid-cluster")
        return real_leaf(task)

    # The patch lives in this process only: pool workers would run the
    # real leaf, so the crashing run is pinned to the local transport.
    monkeypatch.setattr(pipeline_mod, "_cluster_leaf", dying_leaf)
    with pytest.raises(Exception):
        _run(points, run_dir=tmp_path, max_retries=0, failover=False,
             backoff_base=0.0, transport="local")
    monkeypatch.setattr(pipeline_mod, "_cluster_leaf", real_leaf)

    crashed_types = _journal_types(tmp_path)
    assert "partition_done" in crashed_types
    done_before = {
        r.payload["leaf_id"]
        for r in replay_journal(tmp_path / "journal.jsonl")
        if r.type == "leaf_done"
    }
    assert done_before == {0, 1}
    assert "run_end" not in crashed_types

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.resumed
    assert "partition" in resumed.phases_restored
    assert resumed.checkpoint_hits >= 2
    assert_resume_equivalent(baseline, resumed)
    # The journal proves which leaves skipped re-clustering on resume.
    resumed_leaf_recs = [
        r for r in replay_journal(tmp_path / "journal.jsonl")
        if r.type == "leaf_done"
    ][-LEAVES:]
    from_ckpt = {
        r.payload["leaf_id"] for r in resumed_leaf_recs
        if r.payload["from_checkpoint"]
    }
    assert done_before <= from_ckpt


def test_crash_mid_merge_resumes_with_all_leaves_checkpointed(
    tmp_path, monkeypatch
):
    points = _points()
    baseline = _run(points)

    def boom(*args, **kwargs):
        raise RuntimeError("injected driver crash mid-merge")

    monkeypatch.setattr(pipeline_mod, "MergeFilter", boom)
    with pytest.raises(RuntimeError):
        _run(points, run_dir=tmp_path)
    monkeypatch.undo()

    types = _journal_types(tmp_path)
    assert "cluster_done" in types and "merge_done" not in types

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.resumed
    assert resumed.phases_restored == ["partition"]
    assert resumed.checkpoint_hits == LEAVES  # no leaf re-clustered
    assert_resume_equivalent(baseline, resumed)


def test_crash_mid_sweep_restores_merge_table(tmp_path, monkeypatch):
    points = _points()
    baseline = _run(points)

    def boom(*args, **kwargs):
        raise RuntimeError("injected driver crash mid-sweep")

    monkeypatch.setattr(pipeline_mod, "sweep_gather", boom)
    with pytest.raises(RuntimeError):
        _run(points, run_dir=tmp_path)
    monkeypatch.undo()

    types = _journal_types(tmp_path)
    assert "merge_done" in types and "sweep_done" not in types

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.resumed
    assert set(resumed.phases_restored) == {"partition", "merge"}
    assert resumed.checkpoint_hits == LEAVES
    assert_resume_equivalent(baseline, resumed)


def test_corrupt_phase_checkpoint_downgrades_to_rerun(tmp_path, monkeypatch):
    """A restorable phase whose checkpoint is damaged re-runs instead of
    failing the resume — corruption costs time, never correctness."""
    points = _points()
    baseline = _run(points)

    def boom(*args, **kwargs):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(pipeline_mod, "MergeFilter", boom)
    with pytest.raises(RuntimeError):
        _run(points, run_dir=tmp_path)
    monkeypatch.undo()

    blob = tmp_path / "checkpoints" / "partition.bin"
    blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 3])

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert "partition" not in resumed.phases_restored  # re-ran
    assert_resume_equivalent(baseline, resumed)


def test_resume_rejects_label_affecting_config_change(tmp_path):
    points = _points()
    _run(points, run_dir=tmp_path)
    with pytest.raises(DurabilityError):
        mrscan(points, EPS * 2, MINPTS, n_leaves=LEAVES,
               run_dir=str(tmp_path), resume=True)


def test_config_fingerprint_is_the_one_csr_run_dirs_hold():
    """``run_begin`` stores this digest and a resume compares it.  The
    literal is what the last commit with a selectable cluster engine
    returned for this config under ``csr``, its default — so run dirs it
    wrote keep resuming (a ``block`` one: test_engine_resume.py)."""
    config = MrScanConfig(eps=EPS, minpts=MINPTS, n_leaves=LEAVES)
    assert config_fingerprint(config) == (
        "d3e1311669639d799a2fed73c611b0b96bd1a7be259301152b6c6cc21dc15b53"
    )


def test_resume_rejects_different_dataset(tmp_path):
    _run(_points(seed=0), run_dir=tmp_path)
    with pytest.raises(DurabilityError):
        _run(_points(seed=99), run_dir=tmp_path, resume=True)


def test_resume_accepts_execution_knob_changes(tmp_path, monkeypatch):
    """Transport/retry/validate knobs are outside the fingerprint: a
    crashed run may legally resume under different execution settings."""
    points = _points()
    baseline = _run(points)

    def boom(*args, **kwargs):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(pipeline_mod, "MergeFilter", boom)
    with pytest.raises(RuntimeError):
        _run(points, run_dir=tmp_path)
    monkeypatch.undo()

    resumed = _run(points, run_dir=tmp_path, resume=True,
                   max_retries=5, validate="cheap")
    assert resumed.resumed
    assert_resume_equivalent(baseline, resumed)


def test_resume_on_empty_directory_starts_fresh(tmp_path, caplog):
    points = _points()
    result = _run(points, run_dir=tmp_path / "never-written", resume=True)
    assert not result.resumed  # nothing to resume from
    assert "run_end" in _journal_types(tmp_path / "never-written")


def test_rundir_without_resume_wipes_previous_state(tmp_path):
    points = _points()
    _run(points, run_dir=tmp_path)
    assert "run_end" in _journal_types(tmp_path)
    _run(points, run_dir=tmp_path)  # fresh run, not resume
    types = _journal_types(tmp_path)
    assert types.count("run_begin") == 1 and "resume_begin" not in types


def test_resume_under_shm_transport_with_active_fault_plan(tmp_path, monkeypatch):
    """The acceptance scenario: crash after the cluster phase, then resume
    under ``--transport shm`` with a fault plan active — byte-identical."""
    points = _points(n=300)
    baseline = _run(points)

    def boom(*args, **kwargs):
        raise RuntimeError("injected crash after cluster")

    monkeypatch.setattr(pipeline_mod, "MergeFilter", boom)
    with pytest.raises(RuntimeError):
        _run(points, run_dir=tmp_path)
    monkeypatch.undo()

    plan = FaultPlan(
        faults=(
            FaultSpec(node=0, phase="merge", attempt=0, kind="crash"),
            FaultSpec(node=1, phase="sweep", attempt=0, kind="slowdown",
                      delay_seconds=0.001),
        )
    )
    resumed = _run(
        points,
        run_dir=tmp_path,
        resume=True,
        transport="shm",
        transport_workers=2,
        fault_plan=plan,
        backoff_base=0.0,
    )
    assert resumed.resumed
    assert resumed.checkpoint_hits == LEAVES
    assert_resume_equivalent(baseline, resumed)


def test_assert_resume_equivalent_rejects_divergence(tmp_path):
    points = _points(n=200)
    a = _run(points)
    b = _run(points)
    assert_resume_equivalent(a, b)  # identical runs pass
    import copy

    c = copy.deepcopy(b)
    c.labels[0] = 10_000
    with pytest.raises(ValidationError):
        assert_resume_equivalent(a, c)


# --------------------------------------------------------------------- #
# Older summary blobs (DESIGN.md §2b, "In memory and on the wire"):
# columnar blobs in any row order resume to the same bytes; blobs from
# before the columnar layout are object graphs naming classes that are
# gone, and are misses that recompute; a columnar blob whose columns
# disagree is a miss too, never an ``IndexError`` out of the merge.
# --------------------------------------------------------------------- #


def _crash_in(monkeypatch, name, points, run_dir):
    """A durable run whose driver dies entering pipeline function ``name``."""

    def boom(*args, **kwargs):
        raise RuntimeError(f"injected driver crash in {name}")

    with monkeypatch.context() as crash:
        crash.setattr(pipeline_mod, name, boom)
        with pytest.raises(RuntimeError, match="injected"):
            _run(points, run_dir=run_dir)


class _DamagedSummary:
    """Pickles as ``summary`` with the last representative id missing."""

    def __init__(self, summary: LeafSummary) -> None:
        (columns,) = summary.__reduce__()[1]
        self.columns = (*columns[:9], columns[9][:-1], *columns[10:])

    def __reduce__(self):
        return _unpack_summary, (self.columns,)


class _DamagedAssignment:
    """Pickles as ``assignment`` with the last global id missing."""

    def __init__(self, assignment: GlobalIdAssignment) -> None:
        self.assignment = assignment

    def __reduce__(self):
        a = self.assignment
        return _unpack_assignment, (a.keys, a.gids[:-1], a.n_clusters)


def _old_merge_checkpoint(monkeypatch, run_dir) -> None:
    """Rewrite a run dir's merge checkpoint as builds whose root built a
    merged summary wrote it: ``(root_summary, assignment)``, the
    assignment pickled as its default dataclass state, a ``mapping`` dict
    and ``n_clusters``."""
    leaves = LeafCheckpointStore(run_dir / "checkpoints" / "leaves")
    root, _ = merge_summaries([leaves.load(i).summary for i in range(LEAVES)], EPS)
    phases = PhaseCheckpointStore(run_dir / "checkpoints")
    assignment = phases.load("merge")
    with monkeypatch.context() as legacy:
        legacy.setattr(
            GlobalIdAssignment,
            "__reduce__",
            lambda self: (
                copyreg.__newobj__,
                (GlobalIdAssignment,),
                {"mapping": self.mapping, "n_clusters": self.n_clusters},
            ),
        )
        phases.save("merge", (root, assignment))


@pytest.mark.parametrize(
    "crash_in, restored",
    [("sweep_gather", ["partition", "merge"]), ("MergeFilter", ["partition"])],
)
def test_columnar_run_dir_in_dict_orders_resumes_byte_identically(
    tmp_path, monkeypatch, crash_in, restored
):
    """Leaf and merge checkpoints whose rows follow some writer's dict and
    set orders, as a build that kept summaries as dicts wrote them: every
    one is a hit — the merge checkpoint restored, or the leaf checkpoints
    merged again — and the run resumes to the same bytes."""
    # The older layouts are written by patching this process's pickler,
    # which pool workers would not see: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    points = _points()
    baseline = _run(points)
    with monkeypatch.context() as shuffling:
        write_dict_orders(shuffling, seed=5)
        _crash_in(monkeypatch, crash_in, points, tmp_path)
    written = LeafCheckpointStore(tmp_path / "checkpoints" / "leaves").load(0).summary
    assert not np.array_equal(written.keys, np.sort(written.keys, axis=0))

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == restored
    assert resumed.checkpoint_hits == LEAVES
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()


def test_run_dir_in_the_old_layout_resumes_byte_identically(tmp_path, monkeypatch):
    """Leaf checkpoints and the merge checkpoint as the object graphs
    builds before the columnar layout wrote: every one is a miss, the
    leaves re-cluster and the merge re-runs, to the same bytes."""
    # The older layouts are written by patching this process's pickler,
    # which pool workers would not see: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "sweep_gather", points, tmp_path)
    leaves = LeafCheckpointStore(tmp_path / "checkpoints" / "leaves")
    with monkeypatch.context() as legacy:
        write_object_graphs(legacy)
        _old_merge_checkpoint(legacy, tmp_path)
        for leaf_id in range(LEAVES):
            leaves.save(leaf_id, leaves.load(leaf_id), engine="csr")
    ckpt = tmp_path / "checkpoints"
    assert b"_unpack_summary" not in (ckpt / "merge.bin").read_bytes()
    assert b"CellSummary" in (ckpt / "merge.bin").read_bytes()
    with pytest.raises(CheckpointError, match="unreadable"):
        LeafCheckpointStore(ckpt / "leaves").load(0)
    with pytest.raises(CheckpointError, match="unreadable"):
        PhaseCheckpointStore(ckpt).load("merge")

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]
    assert resumed.checkpoint_hits == 0
    assert_resume_equivalent(baseline, resumed)
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()


def test_merge_checkpoint_holding_a_root_summary_is_a_miss(tmp_path, monkeypatch):
    """A merge checkpoint as builds whose root built a merged summary
    wrote it, ``(root_summary, assignment)``: a miss, and the merge
    re-runs to the same bytes (the leaf checkpoints still hit)."""
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "sweep_gather", points, tmp_path)
    _old_merge_checkpoint(monkeypatch, tmp_path)
    with pytest.raises(CheckpointError, match="unreadable"):
        PhaseCheckpointStore(tmp_path / "checkpoints").load("merge")

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]  # merge re-ran
    assert resumed.checkpoint_hits == LEAVES
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()


def test_old_layout_leaf_checkpoints_are_misses(tmp_path, monkeypatch):
    # The older layouts are written by patching this process's pickler,
    # which pool workers would not see: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    points = _points()
    baseline = _run(points)
    with monkeypatch.context() as legacy:
        write_object_graphs(legacy)
        _crash_in(monkeypatch, "MergeFilter", points, tmp_path)
    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]
    assert resumed.checkpoint_hits == 0
    assert resumed.labels.tobytes() == baseline.labels.tobytes()


def test_leaf_checkpoint_with_inconsistent_columns_is_a_miss(tmp_path, monkeypatch):
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "MergeFilter", points, tmp_path)
    store = LeafCheckpointStore(tmp_path / "checkpoints" / "leaves")
    good = store.load(1)
    store.save(1, replace(good, summary=_DamagedSummary(good.summary)), engine="csr")
    with pytest.raises(CheckpointError, match="columns disagree"):
        store.load(1)  # the digest is fine: only the columns are not

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.checkpoint_hits == LEAVES - 1  # leaf 1 re-clustered
    assert_resume_equivalent(baseline, resumed)
    assert resumed.labels.tobytes() == baseline.labels.tobytes()


def test_merge_checkpoint_with_inconsistent_columns_reruns_the_merge(tmp_path, monkeypatch):
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "sweep_gather", points, tmp_path)
    phases = PhaseCheckpointStore(tmp_path / "checkpoints")
    phases.save("merge", _DamagedAssignment(phases.load("merge")))
    with pytest.raises(CheckpointError, match="columns disagree"):
        phases.load("merge")

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]  # merge re-ran
    assert_resume_equivalent(baseline, resumed)
    assert resumed.labels.tobytes() == baseline.labels.tobytes()


def test_partition_checkpoint_keeps_the_layout_old_run_dirs_hold(tmp_path, monkeypatch):
    """The partition checkpoint pickles the same three dataclasses, with the
    same fields, as run dirs written before the partition phase became
    array passes — and a plan of plain Python values (tuples of ints, no
    numpy scalar anywhere).  A run that crashed right after partition
    resumes from it to byte-identical labels."""
    assert [f.name for f in fields(PartitionPlan)] == [
        "eps", "partitions", "target_size", "final_target_size",
    ]
    assert [f.name for f in fields(PartitionSpec)] == [
        "partition_id", "cells", "point_count", "shadow_cells", "shadow_count",
    ]
    assert [f.name for f in fields(PartitionPhaseResult)] == [
        "plan", "partitions", "io_trace", "reduce_trace", "multicast_trace",
        "map_trace", "n_partition_nodes", "file_set", "n_shadow_points_saved",
        "distribute_trace", "root_form_seconds", "route_seconds", "fault_events",
    ]
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "_stage_partitions", points, tmp_path)
    phase1 = PhaseCheckpointStore(tmp_path / "checkpoints").load("partition")
    assert b"numpy" not in pickle.dumps(phase1.plan)
    assert any(spec.shadow_cells for spec in phase1.plan.partitions)

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()


def _write_npz_spill(root, leaf_id):
    """Rewrite one leaf entry as builds before the one blob store wrote
    it: ``leaf_NNNN.npz`` (labels, core mask, n_owned and the pickled
    summary/stats as a byte array) plus a manifest whose digest covers
    all three."""
    leaf = LeafCheckpointStore(root).load(leaf_id)
    engine = json.loads((root / f"leaf_{leaf_id:04d}.json").read_text())["engine"]
    blob = pickle.dumps(
        {"summary": leaf.summary, "stats": leaf.stats}, protocol=pickle.HIGHEST_PROTOCOL
    )
    name = root / f"leaf_{leaf_id:04d}"
    with open(name.with_suffix(".npz"), "wb") as fh:
        np.savez(
            fh, labels=leaf.labels, core_mask=leaf.core_mask,
            n_owned=np.int64(leaf.n_owned), blob=np.frombuffer(blob, dtype=np.uint8),
        )
    digest = hashlib.sha256()
    for part in (leaf.labels.tobytes(), leaf.core_mask.tobytes(), blob):
        digest.update(part)
    manifest = {
        "leaf_id": leaf_id, "n_points": len(leaf.labels),
        "digest": digest.hexdigest(), "engine": engine,
    }
    name.with_suffix(".json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    name.with_suffix(".bin").unlink()


def test_npz_leaf_spills_are_misses_and_reclustered_byte_identically(tmp_path, monkeypatch):
    """A run dir whose leaf spills are in the npz layout: every one is a
    miss, each leaf re-clusters, and the labels and core mask are the
    bytes of a fresh run."""
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "MergeFilter", points, tmp_path)
    leaves = tmp_path / "checkpoints" / "leaves"
    for leaf_id in range(LEAVES):
        _write_npz_spill(leaves, leaf_id)
    store = LeafCheckpointStore(leaves)
    assert not store.has(0)
    with pytest.raises(CheckpointError, match="no checkpoint"):
        store.load(0)

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]
    assert resumed.checkpoint_hits == 0
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()
    assert store.has(0)  # re-spilled in the current layout


@dataclass
class CheckpointedLeaf:
    """A leaf spill as builds before the leaf state wrote it: the output
    without the state an append starts from."""

    leaf_id: int
    labels: np.ndarray
    core_mask: np.ndarray
    n_owned: int
    summary: object
    stats: object
    engine: str | None = None


def _write_checkpointed_leaf_spill(monkeypatch, root, leaf_id):
    """Rewrite one leaf entry as a ``CheckpointedLeaf`` of
    ``repro.durability.checkpoints``, the class those builds pickled."""
    store = LeafCheckpointStore(root)
    leaf = store.load(leaf_id)
    old = CheckpointedLeaf(
        leaf_id, leaf.labels, leaf.core_mask, leaf.n_owned, leaf.summary, leaf.stats, "csr"
    )
    with monkeypatch.context() as legacy:
        legacy.setattr(CheckpointedLeaf, "__module__", checkpoints_mod.__name__)
        legacy.setattr(checkpoints_mod, "CheckpointedLeaf", CheckpointedLeaf, raising=False)
        store.save(leaf_id, old, engine="csr")


def test_leaf_spills_without_append_state_are_misses(tmp_path, monkeypatch):
    """A run dir whose leaf spills are ``CheckpointedLeaf`` entries, which
    carry no append state: every one is a miss, each leaf re-clusters,
    and the run resumes to the bytes of a fresh run."""
    points = _points()
    baseline = _run(points)
    _crash_in(monkeypatch, "MergeFilter", points, tmp_path)
    leaves = tmp_path / "checkpoints" / "leaves"
    for leaf_id in range(LEAVES):
        _write_checkpointed_leaf_spill(monkeypatch, leaves, leaf_id)
    assert b"CheckpointedLeaf" in (leaves / "leaf_0000.bin").read_bytes()
    with pytest.raises(CheckpointError, match="unreadable"):
        LeafCheckpointStore(leaves).load(0)

    resumed = _run(points, run_dir=tmp_path, resume=True)
    assert resumed.phases_restored == ["partition"]
    assert resumed.checkpoint_hits == 0
    assert_resume_equivalent(baseline, resumed)
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()
