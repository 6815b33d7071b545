"""Phase checkpoint store: atomic writes, digest verification, corruption."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.durability import PHASE_NAMES, PhaseCheckpointStore
from repro.errors import CheckpointError


def test_save_load_round_trip(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    labels = np.arange(10, dtype=np.int64)
    core = labels % 2 == 0
    store.save("sweep", (labels, core))
    assert store.has("sweep")
    got_labels, got_core = store.load("sweep")
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_array_equal(got_core, core)


def test_unknown_phase_rejected(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    with pytest.raises(CheckpointError):
        store.save("cluster", {})  # cluster is covered per-leaf
    with pytest.raises(CheckpointError):
        store.load("bogus")


def test_missing_checkpoint_raises(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    assert not store.has("merge")
    with pytest.raises(CheckpointError):
        store.load("merge")


def test_truncated_blob_is_checkpoint_error(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    store.save("merge", {"table": list(range(100))})
    data = tmp_path / "merge.bin"
    data.write_bytes(data.read_bytes()[: data.stat().st_size // 2])
    with pytest.raises(CheckpointError):
        store.load("merge")


def test_digest_tamper_is_checkpoint_error(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    store.save("partition", [1, 2, 3])
    data = tmp_path / "partition.bin"
    blob = bytearray(data.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    data.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        store.load("partition")


def test_missing_manifest_means_no_checkpoint(tmp_path):
    """A crash between blob and manifest leaves no usable checkpoint."""
    store = PhaseCheckpointStore(tmp_path)
    store.save("sweep", (np.zeros(3), np.zeros(3, dtype=bool)))
    (tmp_path / "sweep.json").unlink()
    assert not store.has("sweep")
    with pytest.raises(CheckpointError):
        store.load("sweep")


def test_overwrite_replaces_payload(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    store.save("merge", "first")
    store.save("merge", "second")
    assert store.load("merge") == "second"


def test_clear_removes_everything(tmp_path):
    store = PhaseCheckpointStore(tmp_path)
    for phase in PHASE_NAMES:
        store.save(phase, phase)
    assert store.clear() == 2 * len(PHASE_NAMES)
    for phase in PHASE_NAMES:
        assert not store.has(phase)


def test_manifest_written_by_earlier_builds_still_loads(tmp_path):
    """Earlier builds wrote phase manifests of exactly these keys, in
    their own write path; such a checkpoint still restores."""
    store = PhaseCheckpointStore(tmp_path)
    store.save("merge", {"table": [3, 1, 2]})
    blob = (tmp_path / "merge.bin").read_bytes()
    manifest = {
        "phase": "merge",
        "n_bytes": len(blob),
        "digest": hashlib.sha256(blob).hexdigest(),
    }
    (tmp_path / "merge.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    assert store.load("merge") == {"table": [3, 1, 2]}
