"""Tests for Mr. Scan's two-pass GPU DBSCAN (§3.2.2–3.2.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import gaussian_blobs, generate_sdss, generate_twitter, uniform_noise
from repro.dbscan import GridIndex, dbscan_reference
from repro.dbscan.labels import border_assignment_valid, core_sets_equal
from repro.errors import ConfigError
from repro.gpu import SimulatedDevice, mrscan_gpu
from repro.points import NOISE, PointSet


def _check_core_exact(points, eps, minpts, **kw):
    ref = dbscan_reference(points, eps, minpts)
    got = mrscan_gpu(points, eps, minpts, **kw)
    assert np.array_equal(ref.core_mask, got.core_mask)
    assert core_sets_equal(ref.labels, got.labels, ref.core_mask, got.core_mask)
    return ref, got


def test_rejects_bad_params():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(ConfigError):
        mrscan_gpu(ps, 0.0, 5)
    with pytest.raises(ConfigError):
        mrscan_gpu(ps, 1.0, 0)


def test_empty_input():
    res = mrscan_gpu(PointSet.empty(), 1.0, 5)
    assert res.n_clusters == 0
    assert len(res.labels) == 0


def test_blobs_core_exact(blobs_with_noise):
    ref, got = _check_core_exact(blobs_with_noise, 0.25, 8)
    assert got.n_clusters == ref.n_clusters == 5


def test_twitter_core_exact(small_twitter):
    _check_core_exact(small_twitter, 0.1, 10)


def test_sdss_core_exact(small_sdss):
    _check_core_exact(small_sdss, 0.00015, 5)


def test_exactly_two_round_trips(blobs_with_noise):
    """The §3.2.2 claim: one h2d + one d2h, regardless of point count."""
    res = mrscan_gpu(blobs_with_noise, 0.25, 8)
    assert res.stats.sync_round_trips == 2
    small = blobs_with_noise.take(np.arange(50))
    assert mrscan_gpu(small, 0.25, 8).stats.sync_round_trips == 2


def test_fewer_round_trips_than_cuda_dclust(blobs_with_noise):
    from cuda_dclust_reference import cuda_dclust
    from repro.gpu.device import DeviceConfig

    pts = blobs_with_noise.take(np.arange(400))
    dev = SimulatedDevice(DeviceConfig(n_blocks=16))
    _, _, base_stats = cuda_dclust(pts, 0.25, 8, device=dev)
    ours = mrscan_gpu(pts, 0.25, 8)
    assert ours.stats.sync_round_trips < base_stats.sync_round_trips


def test_densebox_reduces_distance_ops():
    """Dense data: the elimination must cut pass-1+2 work."""
    dense = gaussian_blobs(4000, centers=np.array([[0.0, 0.0]]), spread=0.03, seed=0)
    with_box = mrscan_gpu(dense, 0.5, 10, use_densebox=True)
    without = mrscan_gpu(dense, 0.5, 10, use_densebox=False)
    assert with_box.stats.n_eliminated > 0
    assert with_box.stats.total_distance_ops < without.stats.total_distance_ops
    # And both agree on the clustering.
    assert np.array_equal(with_box.core_mask, without.core_mask)
    assert core_sets_equal(
        with_box.labels, without.labels, with_box.core_mask, without.core_mask
    )


def test_densebox_off_matches_reference_exactly(blobs_with_noise):
    ref = dbscan_reference(blobs_with_noise, 0.25, 8)
    got = mrscan_gpu(blobs_with_noise, 0.25, 8, use_densebox=False)
    assert np.array_equal(ref.labels == NOISE, got.labels == NOISE)
    assert np.array_equal(ref.core_mask, got.core_mask)


def test_densebox_on_matches_reference_noise_set(small_twitter):
    """Box members claim their borders, so dense box drops none."""
    ref = dbscan_reference(small_twitter, 0.1, 4)
    got = mrscan_gpu(small_twitter, 0.1, 4)
    assert got.densebox.n_boxes > 0
    assert np.array_equal(ref.labels == NOISE, got.labels == NOISE)


def test_border_assignment_is_valid(blobs_with_noise):
    got = mrscan_gpu(blobs_with_noise, 0.25, 8)
    gi = GridIndex(blobs_with_noise, 0.25)
    assert border_assignment_valid(got.labels, got.core_mask, gi.neighbors_of)


def test_stats_populated(small_twitter):
    res = mrscan_gpu(small_twitter, 0.1, 10)
    s = res.stats
    assert s.n_points == len(small_twitter)
    assert s.n_core == int(res.core_mask.sum())
    assert s.pass1_ops > 0 and s.pass2_ops > 0
    assert s.kernel_launches >= 2
    assert s.device["h2d_bytes"] > 0 and s.device["d2h_bytes"] > 0


def test_device_memory_enforced():
    from repro.gpu.device import DeviceConfig

    tiny = SimulatedDevice(DeviceConfig(memory_bytes=1024))
    pts = gaussian_blobs(10_000, centers=1, spread=0.1, seed=1)
    from repro.errors import DeviceMemoryError

    with pytest.raises(DeviceMemoryError):
        mrscan_gpu(pts, 0.5, 5, device=tiny)


def test_duplicate_points_single_cluster():
    ps = PointSet.from_coords(np.zeros((100, 2)))
    res = mrscan_gpu(ps, 0.5, 5)
    assert res.n_clusters == 1
    assert res.core_mask.all()


def test_all_noise_input():
    ps = uniform_noise(50, box=(0, 0, 1000, 1000), seed=2)
    res = mrscan_gpu(ps, 0.5, 5)
    assert res.n_clusters == 0
    assert np.all(res.labels == NOISE)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    minpts=st.integers(2, 10),
    eps=st.floats(0.1, 1.0),
)
def test_property_core_exact_random(seed, minpts, eps):
    rng = np.random.default_rng(seed)
    coords = np.concatenate(
        [
            rng.normal(scale=0.3, size=(80, 2)),
            rng.normal(loc=3.0, scale=0.3, size=(80, 2)),
            rng.uniform(-2, 5, size=(20, 2)),
        ]
    )
    ps = PointSet.from_coords(coords)
    _check_core_exact(ps, eps, minpts)
