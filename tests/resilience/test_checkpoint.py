"""Leaf checkpoint store: roundtrip, integrity, atomicity semantics."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.config import MrScanConfig
from repro.core.pipeline import _ClusterLeafOutput, _ClusterLeafTask, _cluster_leaf
from repro.errors import CheckpointError
from repro.points import PointSet
from repro.resilience import LeafCheckpointStore


@pytest.fixture
def leaf_output(rng):
    return _ClusterLeafOutput(
        leaf_id=3,
        labels=rng.integers(-1, 5, size=200).astype(np.int64),
        core_mask=rng.random(200) > 0.5,
        n_owned=150,
        summary={"n_clusters": 5, "cells": [(0, 1), (2, 3)]},
        stats={"kernel_launches": 7},
    )


def test_roundtrip_is_exact(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    assert not store.has(3)
    store.save(3, leaf_output)
    assert store.has(3)
    assert len(store) == 1
    ckpt = store.load(3)
    assert ckpt.leaf_id == 3
    assert np.array_equal(ckpt.labels, leaf_output.labels)
    assert np.array_equal(ckpt.core_mask, leaf_output.core_mask)
    assert ckpt.n_owned == 150
    assert ckpt.summary == leaf_output.summary
    assert ckpt.stats == leaf_output.stats
    assert ckpt.state is None


def test_state_round_trips_and_shares_the_output_arrays(tmp_path):
    """A spill keeps the leaf's append state, the arrays it shares with
    the output and its summary once each, and never the view's ids."""
    rng = np.random.default_rng(4)
    coords = rng.normal(0.0, 0.2, size=(400, 2))
    own, shadow = PointSet.from_coords(coords[:300]), PointSet(
        ids=np.arange(300, 400), coords=coords[300:]
    )
    out = _cluster_leaf(_ClusterLeafTask(
        leaf_id=0, own=own, shadow=shadow, owned_cells=frozenset({(0, 0)}),
        config=MrScanConfig(eps=0.1, minpts=5, n_leaves=1), keep_state=True,
    ))
    store = LeafCheckpointStore(tmp_path)
    store.save(0, out)
    got = store.load(0)
    for f in fields(out.state):
        a, b = getattr(got.state, f.name), getattr(out.state, f.name)
        if f.name == "index":
            assert pickle.dumps(a) == pickle.dumps(b)
        elif b is None:  # the view ids: only the driver sets them
            assert a is None, f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name
    assert got.state.labels is got.labels
    assert got.state.core_mask is got.core_mask
    assert got.state.rep_ids is got.summary.rep_ids


def test_missing_checkpoint_raises(tmp_path):
    store = LeafCheckpointStore(tmp_path)
    with pytest.raises(CheckpointError, match="no checkpoint"):
        store.load(9)


def test_corrupt_data_fails_digest(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(1, leaf_output)
    # Corrupt the artifact: full length, one flipped byte.
    data = tmp_path / "leaf_0001.bin"
    blob = bytearray(data.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    data.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        store.load(1)


def test_truncated_data_is_unreadable_not_fatal(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(2, leaf_output)
    (tmp_path / "leaf_0002.bin").write_bytes(b"not a pickle")
    with pytest.raises(CheckpointError, match="unreadable"):
        store.load(2)


def test_torn_write_is_a_clean_miss(tmp_path, leaf_output):
    """Manifest written last: data without manifest == no checkpoint."""
    store = LeafCheckpointStore(tmp_path)
    store.save(4, leaf_output)
    (tmp_path / "leaf_0004.json").unlink()  # simulate dying between data and manifest
    assert not store.has(4)
    with pytest.raises(CheckpointError):
        store.load(4)


def test_clear_removes_everything(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    for leaf in (0, 1, 2):
        store.save(leaf, leaf_output)
    assert store.clear() == 3
    assert len(store) == 0
    assert not store.has(0)


def test_overwrite_updates_in_place(tmp_path, leaf_output):
    store = LeafCheckpointStore(tmp_path)
    store.save(5, leaf_output)
    changed = replace(leaf_output, labels=leaf_output.labels * 0)
    store.save(5, changed)
    assert len(store) == 1
    assert np.array_equal(store.load(5).labels, changed.labels)
