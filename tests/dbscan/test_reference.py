"""Unit + property tests for the exact reference DBSCAN implementations.

The vectorised ``dbscan_reference`` must agree with the textbook
``dbscan_bfs`` on core points and noise exactly, and on cluster structure
up to DBSCAN's inherent border-point freedom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfs_reference import dbscan_bfs
from repro.dbscan import GridIndex, dbscan_reference
from repro.dbscan.labels import border_assignment_valid, core_sets_equal
from repro.errors import ConfigError
from repro.points import NOISE, PointSet
from repro.data import gaussian_blobs, ring_cluster, two_moons, uniform_noise


def _assert_equivalent(points, eps, minpts):
    a = dbscan_bfs(points, eps, minpts)
    b = dbscan_reference(points, eps, minpts)
    assert np.array_equal(a.core_mask, b.core_mask), "core masks differ"
    assert np.array_equal(a.labels == NOISE, b.labels == NOISE), "noise sets differ"
    assert core_sets_equal(a.labels, b.labels, a.core_mask, b.core_mask)
    gi = GridIndex(points, eps)
    assert border_assignment_valid(b.labels, b.core_mask, gi.neighbors_of)
    return a, b


def test_rejects_bad_eps():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(ConfigError):
        dbscan_reference(ps, 0.0, 3)
    with pytest.raises(ConfigError):
        dbscan_bfs(ps, -1.0, 3)


def test_rejects_bad_minpts():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(ConfigError):
        dbscan_reference(ps, 1.0, 0)


def test_empty_input():
    res = dbscan_reference(PointSet.empty(), 1.0, 3)
    assert res.n_clusters == 0
    assert len(res.labels) == 0


def test_all_noise():
    ps = PointSet.from_coords([[0, 0], [10, 10], [20, 20]])
    res = dbscan_reference(ps, 1.0, 2)
    assert res.n_clusters == 0
    assert res.n_noise == 3
    assert not res.core_mask.any()


def test_single_cluster_all_core():
    ps = PointSet.from_coords(np.random.default_rng(0).normal(scale=0.05, size=(50, 2)))
    res = dbscan_reference(ps, 1.0, 5)
    assert res.n_clusters == 1
    assert res.core_mask.all()
    assert res.n_noise == 0


def test_minpts_includes_self():
    """Two points within eps: minpts=2 makes both core, minpts=3 neither."""
    ps = PointSet.from_coords([[0, 0], [0.5, 0]])
    res2 = dbscan_reference(ps, 1.0, 2)
    assert res2.n_clusters == 1 and res2.core_mask.all()
    res3 = dbscan_reference(ps, 1.0, 3)
    assert res3.n_clusters == 0 and res3.n_noise == 2


def test_border_point_between_clusters():
    """A point within eps of cores of two clusters must join one of them."""
    left = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    right = np.array([[2.0, 0.0], [2.1, 0.0], [2.2, 0.0], [2.3, 0.0]])
    # Within eps of exactly one core from each side, but with only 3
    # eps-neighbors total (itself + 2 cores) < minpts=4: a border point.
    border = np.array([[1.15, 0.4]])
    ps = PointSet.from_coords(np.concatenate([left, right, border]))
    res = dbscan_reference(ps, 1.0, 4)
    assert res.n_clusters == 2
    assert not res.core_mask[8]
    assert res.labels[8] in (res.labels[0], res.labels[4])


def test_chain_cluster_connectivity():
    """Points in a line, each within eps of the next, form one cluster."""
    xs = np.arange(0, 10, 0.5)
    ps = PointSet.from_coords(np.column_stack([xs, np.zeros_like(xs)]))
    res = dbscan_reference(ps, 0.6, 2)
    assert res.n_clusters == 1


def test_eps_boundary_inclusive():
    ps = PointSet.from_coords([[0, 0], [1.0, 0.0]])
    res = dbscan_reference(ps, 1.0, 2)
    assert res.n_clusters == 1  # distance exactly eps counts


def test_blobs_equivalence(blobs_with_noise):
    a, b = _assert_equivalent(blobs_with_noise, 0.25, 8)
    assert b.n_clusters == 5


def test_rings_and_moons_nonconvex():
    ring = ring_cluster(600, radius=5.0, thickness=0.1, seed=0)
    moons = two_moons(600, noise=0.05, seed=1)
    r = dbscan_reference(ring, 0.5, 5)
    assert r.n_clusters == 1  # the ring is one non-convex cluster
    m = dbscan_reference(moons, 0.15, 5)
    assert m.n_clusters == 2


def test_twitter_sample_equivalence(small_twitter):
    _assert_equivalent(small_twitter, 0.1, 10)


def test_sdss_sample_equivalence(small_sdss):
    _assert_equivalent(small_sdss, 0.00015, 5)


def test_duplicate_points():
    ps = PointSet.from_coords(np.zeros((20, 2)))
    res = dbscan_reference(ps, 0.5, 5)
    assert res.n_clusters == 1
    assert res.core_mask.all()


def test_cluster_sizes_accounting(blobs_with_noise):
    res = dbscan_reference(blobs_with_noise, 0.25, 8)
    sizes = res.cluster_sizes()
    assert sum(sizes.values()) + res.n_noise == len(blobs_with_noise)


def test_labels_canonical_numbering(blobs_with_noise):
    res = dbscan_reference(blobs_with_noise, 0.25, 8)
    seen: list[int] = []
    for lab in res.labels:
        if lab != NOISE and lab not in seen:
            seen.append(int(lab))
    assert seen == sorted(seen)  # first appearances are 0,1,2,...


@settings(max_examples=25, deadline=None)
@given(
    coords=st.lists(
        st.tuples(st.floats(-5, 5, width=32), st.floats(-5, 5, width=32)),
        min_size=1,
        max_size=70,
    ),
    eps=st.floats(0.1, 2.0),
    minpts=st.integers(1, 6),
)
def test_property_reference_equals_bfs(coords, eps, minpts):
    ps = PointSet.from_coords(np.asarray(coords))
    _assert_equivalent(ps, eps, minpts)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_core_mask_matches_neighbor_counts(seed):
    rng = np.random.default_rng(seed)
    ps = PointSet.from_coords(rng.normal(scale=1.0, size=(120, 2)))
    eps, minpts = 0.4, 4
    res = dbscan_reference(ps, eps, minpts)
    d2 = np.sum((ps.coords[:, None, :] - ps.coords[None, :, :]) ** 2, axis=2)
    counts = np.count_nonzero(d2 <= eps * eps, axis=1)
    assert np.array_equal(res.core_mask, counts >= minpts)
