"""Engine identity gates resume: no cross-engine checkpoint replay.

The pipeline runs one leaf engine (``csr``), but run directories and
leaf checkpoints written while ``block`` or the CUDA-DClust baseline was
selectable are still on disks.  Two enforcement layers keep them from
being spliced into a run:

* ``LeafCheckpointStore.load(expected_engine=...)`` treats a foreign or
  legacy (engine-less) checkpoint as a miss (``CheckpointError``): the
  engine is a manifest field;
* the run-directory config fingerprint still hashes the engine and the
  leaf algorithm as the constants ``"csr"`` and ``"mrscan"``, so a
  ``csr`` run dir resumes and a ``block`` or ``cuda-dclust`` one fails up
  front with ``DurabilityError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.durability.rundir as rundir_mod
from repro.core import mrscan
from repro.core.pipeline import _ClusterLeafOutput
from repro.errors import CheckpointError, DurabilityError
from repro.points import PointSet
from repro.resilience import LeafCheckpointStore


@pytest.fixture
def leaf_output(rng):
    return _ClusterLeafOutput(
        leaf_id=0,
        labels=rng.integers(-1, 5, size=100).astype(np.int64),
        core_mask=rng.random(100) > 0.5,
        n_owned=80,
        summary={"n_clusters": 5},
        stats={"kernel_launches": 3},
    )


def _engine(root, leaf_id: int):
    """The engine a leaf spill's manifest records."""
    return json.loads((root / f"leaf_{leaf_id:04d}.json").read_text())["engine"]


# ---------------------------------------------------------------------- #
# Leaf checkpoint store
# ---------------------------------------------------------------------- #


def test_save_records_engine(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(0, leaf_output, engine="csr")
    assert _engine(tmp_path, 0) == "csr"
    ckpt = store.load(0, expected_engine="csr")
    np.testing.assert_array_equal(ckpt.labels, leaf_output.labels)


def test_foreign_engine_checkpoint_is_a_miss(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(0, leaf_output, engine="block")
    with pytest.raises(CheckpointError, match="engine 'block', not 'csr'"):
        store.load(0, expected_engine="csr")
    # The right engine still replays it.
    ckpt = store.load(0, expected_engine="block")
    np.testing.assert_array_equal(ckpt.labels, leaf_output.labels)


def test_legacy_checkpoint_rejected_when_engine_expected(tmp_path, leaf_output):
    """Checkpoints written before engines were recorded never replay
    into an engine-pinned run (conservative: recompute, don't guess)."""
    store = LeafCheckpointStore(tmp_path)
    store.save(0, leaf_output)  # legacy writer: no engine recorded
    assert _engine(tmp_path, 0) is None
    np.testing.assert_array_equal(store.load(0).labels, leaf_output.labels)
    with pytest.raises(CheckpointError, match="engine None"):
        store.load(0, expected_engine="csr")
    with pytest.raises(CheckpointError, match="engine None"):
        store.load(0, expected_engine="block")


def test_load_without_expectation_accepts_any_engine(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(0, leaf_output, engine="csr")
    store.save(1, leaf_output, engine="block")
    assert (_engine(tmp_path, 0), _engine(tmp_path, 1)) == ("csr", "block")
    for leaf_id in (0, 1):
        np.testing.assert_array_equal(store.load(leaf_id).labels, leaf_output.labels)


# ---------------------------------------------------------------------- #
# Whole-run resume
# ---------------------------------------------------------------------- #


def _points(n=400, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4.0, size=(4, 2))
    coords = centers[rng.integers(0, 4, size=n)] + rng.normal(0, 0.08, (n, 2))
    return PointSet.from_coords(coords)


def _run(points, run_dir, *, resume=False, **kw):
    return mrscan(
        points, 0.15, 5, n_leaves=4, run_dir=str(run_dir), resume=resume, **kw
    )


#: ``config_fingerprint`` of ``_run``'s config at the last commit that had
#: ``MrScanConfig(cluster_engine="block")`` — what a ``block`` run dir holds.
#: (The ``csr`` digest is pinned in test_resume.py.)
BLOCK_RUN_FINGERPRINT = "d4d3e5e077c9f9cc9f652405355c09766b1715dc5c060865d52a2b0332d1856c"

#: ``config_fingerprint`` of ``_run``'s config with
#: ``leaf_algorithm="cuda-dclust"``, at the last commit that had the field —
#: what a run dir with CUDA-DClust leaves holds.
CUDA_DCLUST_RUN_FINGERPRINT = (
    "b81ea691ff358b4e1ce611989ea83c75f120c78bdefeb4521639267bec70eab9"
)


@pytest.mark.parametrize(
    "recorded",
    [BLOCK_RUN_FINGERPRINT, CUDA_DCLUST_RUN_FINGERPRINT],
    ids=["block", "cuda-dclust"],
)
def test_resume_under_different_engine_refused(tmp_path, monkeypatch, recorded):
    """A run dir recorded under another leaf engine is refused, not replayed."""
    points = _points()
    with monkeypatch.context() as old_engine:
        old_engine.setattr(rundir_mod, "config_fingerprint", lambda config: recorded)
        _run(points, tmp_path)
    with pytest.raises(DurabilityError, match="different label-affecting"):
        _run(points, tmp_path, resume=True)


def test_same_engine_resume_replays_leaf_checkpoints(tmp_path):
    points = _points(seed=2)
    first = _run(points, tmp_path)
    resumed = _run(points, tmp_path, resume=True)
    assert resumed.resumed
    np.testing.assert_array_equal(first.labels, resumed.labels)
