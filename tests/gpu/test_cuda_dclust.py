"""Tests for the CUDA-DClust baseline (§3.2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust
from hypothesis import given, settings, strategies as st

from repro.data import gaussian_blobs, uniform_noise
from repro.dbscan import GridIndex, dbscan_reference
from repro.dbscan.labels import border_assignment_valid, core_sets_equal
from repro.errors import ConfigError
from repro.gpu import SimulatedDevice
from repro.gpu.device import DeviceConfig
from repro.points import NOISE, PointSet


def _small_blobs(n=400, seed=0):
    blobs = gaussian_blobs(n - n // 10, centers=3, spread=0.3, seed=seed)
    noise = uniform_noise(n // 10, seed=seed + 1)
    return PointSet.from_coords(np.concatenate([blobs.coords, noise.coords]))


def _check_against_reference(points, eps, minpts, n_blocks=32):
    dev = SimulatedDevice(DeviceConfig(n_blocks=n_blocks))
    labels, core, stats = cuda_dclust(points, eps, minpts, device=dev)
    ref = dbscan_reference(points, eps, minpts)
    assert np.array_equal(core, ref.core_mask), "core masks differ"
    assert np.array_equal(labels == NOISE, ref.labels == NOISE), "noise sets differ"
    assert core_sets_equal(ref.labels, labels, ref.core_mask, core)
    gi = GridIndex(points, eps)
    assert border_assignment_valid(labels, core, gi.neighbors_of)
    return labels, core, stats


def test_rejects_bad_params():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(ConfigError):
        cuda_dclust(ps, -1.0, 5)
    with pytest.raises(ConfigError):
        cuda_dclust(ps, 1.0, 0)


def test_empty_input():
    labels, core, stats = cuda_dclust(PointSet.empty(), 1.0, 5)
    assert len(labels) == 0 and len(core) == 0
    assert stats.n_iterations == 0


def test_matches_reference_on_blobs():
    _check_against_reference(_small_blobs(), 0.25, 8)


def test_matches_reference_few_blocks():
    """With few blocks, chains grow long and collide — the interesting path."""
    labels, core, stats = _check_against_reference(_small_blobs(), 0.25, 8, n_blocks=4)
    assert stats.n_iterations > 1
    assert stats.n_chains >= 3


def test_matches_reference_single_block():
    _check_against_reference(_small_blobs(200), 0.25, 8, n_blocks=1)


def test_collisions_merge_chains():
    """One dense blob with many blocks must produce collisions that all
    resolve into a single cluster."""
    ps = gaussian_blobs(300, centers=np.array([[0.0, 0.0]]), spread=0.1, seed=3)
    dev = SimulatedDevice(DeviceConfig(n_blocks=64))
    labels, core, stats = cuda_dclust(ps, 0.5, 5, device=dev)
    assert stats.n_collisions > 0
    assert stats.n_core_collisions > 0
    assert len(np.unique(labels[labels != NOISE])) == 1


def test_sync_transfers_scale_with_iterations():
    """CUDA-DClust pays 2 synchronous copies per DBSCAN iteration."""
    ps = _small_blobs(300)
    dev = SimulatedDevice(DeviceConfig(n_blocks=8))
    _, _, stats = cuda_dclust(ps, 0.25, 8, device=dev)
    # one initial h2d + 2 per iteration + final d2h
    assert stats.sync_round_trips == 2 * stats.n_iterations + 2


def test_deterministic():
    ps = _small_blobs(300, seed=9)
    a = cuda_dclust(ps, 0.25, 8, device=SimulatedDevice(DeviceConfig(n_blocks=8)))
    b = cuda_dclust(ps, 0.25, 8, device=SimulatedDevice(DeviceConfig(n_blocks=8)))
    assert np.array_equal(a[0], b[0])


def test_all_noise():
    ps = uniform_noise(60, box=(0, 0, 1000, 1000), seed=5)
    labels, core, stats = cuda_dclust(ps, 0.5, 4)
    assert np.all(labels == NOISE)
    assert not core.any()


def test_distance_ops_counted():
    _, _, stats = cuda_dclust(_small_blobs(200), 0.25, 8)
    assert stats.distance_ops > 0


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 5000), n_blocks=st.sampled_from([1, 4, 16, 256]))
def test_property_matches_reference(seed, n_blocks):
    rng = np.random.default_rng(seed)
    coords = np.concatenate(
        [
            rng.normal(scale=0.25, size=(60, 2)),
            rng.normal(loc=2.5, scale=0.25, size=(60, 2)),
            rng.uniform(-2, 5, size=(15, 2)),
        ]
    )
    ps = PointSet.from_coords(coords)
    _check_against_reference(ps, 0.4, 5, n_blocks=n_blocks)
