"""Leaf-checkpoint corruption hardening: every damage mode is a cache miss.

Regression tests for the load path: a truncated or empty spill file, a
digest mismatch and a garbled manifest each raise ``CheckpointError`` (a
re-cluster miss), never an escaping exception.  The catch tuple also
covers what a torn npz (``zipfile.BadZipFile``, the serve WAL's batch
blobs) and a damaged pickle (``UnpicklingError``) raise — neither is
``OSError``/``ValueError``, so they used to escape as crashes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import mrscan
from repro.core.pipeline import _ClusterLeafOutput
from repro.durability.checkpoints import (
    CORRUPT_CHECKPOINT_ERRORS,
    LeafCheckpointStore,
    PhaseCheckpointStore,
)
from repro.errors import CheckpointError
from repro.points import PointSet


def _save_one(store, leaf_id=3, n=50):
    rng = np.random.default_rng(leaf_id)
    labels = rng.integers(-1, 4, size=n).astype(np.int64)
    core = rng.random(n) < 0.5
    store.save(
        leaf_id,
        _ClusterLeafOutput(
            leaf_id=leaf_id,
            labels=labels,
            core_mask=core,
            n_owned=n - 10,
            summary={"leaf": leaf_id},
            stats={"ops": 123},
        ),
    )
    return labels, core


def test_corrupt_error_tuple_covers_zip_and_pickle():
    import pickle
    import zipfile

    assert zipfile.BadZipFile in CORRUPT_CHECKPOINT_ERRORS
    assert pickle.UnpicklingError in CORRUPT_CHECKPOINT_ERRORS
    assert EOFError in CORRUPT_CHECKPOINT_ERRORS


def test_truncated_npz_is_cache_miss_not_crash(tmp_path, caplog):
    store = LeafCheckpointStore(tmp_path)
    _save_one(store)
    data = tmp_path / "leaf_0003.bin"
    data.write_bytes(data.read_bytes()[: data.stat().st_size // 2])
    with caplog.at_level("WARNING"):
        with pytest.raises(CheckpointError):
            store.load(3)
    assert any("re-clustering" in rec.message for rec in caplog.records)


def test_empty_npz_file_is_cache_miss(tmp_path):
    store = LeafCheckpointStore(tmp_path)
    _save_one(store)
    (tmp_path / "leaf_0003.bin").write_bytes(b"")
    with pytest.raises(CheckpointError):
        store.load(3)


def test_digest_mismatch_is_cache_miss(tmp_path):
    store = LeafCheckpointStore(tmp_path)
    _save_one(store)
    meta = tmp_path / "leaf_0003.json"
    manifest = json.loads(meta.read_text())
    manifest["digest"] = "0" * 64
    meta.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        store.load(3)


def test_garbled_manifest_json_is_cache_miss(tmp_path):
    store = LeafCheckpointStore(tmp_path)
    _save_one(store)
    (tmp_path / "leaf_0003.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError):
        store.load(3)


def test_intact_checkpoint_still_round_trips(tmp_path):
    store = LeafCheckpointStore(tmp_path)
    labels, core = _save_one(store)
    got = store.load(3)
    np.testing.assert_array_equal(got.labels, labels)
    np.testing.assert_array_equal(got.core_mask, core)


def test_pipeline_reclusters_through_truncated_checkpoint(tmp_path):
    """End to end: a truncated spill file must not fail the run — the
    affected leaf silently re-clusters and labels come out right."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(0.0, 4.0, size=(4, 2))
    which = rng.integers(0, 4, size=400)
    points = PointSet.from_coords(
        centers[which] + rng.normal(0.0, 0.08, size=(400, 2))
    )
    run = tmp_path / "run"
    baseline = mrscan(points, 0.15, 5, n_leaves=4, run_dir=str(run))
    assert baseline.checkpoint_hits == 0
    # Drop the phase checkpoints so a resume re-runs every phase, and
    # truncate one leaf's spill: the cluster phase then reads the store.
    PhaseCheckpointStore(run / "checkpoints").clear()
    victim = sorted((run / "checkpoints" / "leaves").glob("leaf_*.bin"))[0]
    victim.write_bytes(victim.read_bytes()[:64])
    rerun = mrscan(points, 0.15, 5, n_leaves=4, run_dir=str(run), resume=True)
    assert rerun.checkpoint_hits == 3  # three intact leaves recovered
    np.testing.assert_array_equal(rerun.labels, baseline.labels)
