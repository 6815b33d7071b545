"""Unit tests for the region KD-tree."""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import RegionKDTree
from hypothesis import given, settings, strategies as st

from repro.dbscan import GridIndex
from repro.errors import ConfigError
from repro.points import PointSet


def _random_points(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return PointSet.from_coords(rng.normal(scale=scale, size=(n, 2)))


def test_rejects_bad_leaf_size():
    with pytest.raises(ConfigError):
        RegionKDTree(_random_points(10), leaf_size=0)


def test_empty_tree():
    tree = RegionKDTree(PointSet.empty())
    assert tree.root is None
    assert tree.leaves() == []
    assert len(tree.query_radius(np.zeros(2), 1.0)) == 0


def test_single_point_tree():
    ps = PointSet.from_coords([[1.0, 2.0]])
    tree = RegionKDTree(ps)
    assert tree.root is not None and tree.root.is_leaf
    assert np.array_equal(tree.query_radius(np.array([1.0, 2.0]), 0.1), [0])


def test_leaf_sizes_respected():
    tree = RegionKDTree(_random_points(1000, seed=1), leaf_size=32)
    for leaf in tree.leaves():
        assert leaf.n_points <= 32


def test_leaves_partition_all_points():
    tree = RegionKDTree(_random_points(500, seed=2), leaf_size=16)
    members = np.concatenate([tree.leaf_members(l) for l in tree.leaves()])
    assert len(members) == 500
    assert len(np.unique(members)) == 500


def test_leaf_regions_contain_their_points():
    ps = _random_points(400, seed=3)
    tree = RegionKDTree(ps, leaf_size=16)
    for leaf in tree.leaves():
        pts = ps.coords[tree.leaf_members(leaf)]
        xmin, ymin, xmax, ymax = leaf.bounds
        assert np.all(pts[:, 0] >= xmin - 1e-12) and np.all(pts[:, 0] <= xmax + 1e-12)
        assert np.all(pts[:, 1] >= ymin - 1e-12) and np.all(pts[:, 1] <= ymax + 1e-12)


def test_sibling_regions_tile_parent():
    tree = RegionKDTree(_random_points(300, seed=4), leaf_size=32)
    for node in tree.nodes:
        if node.is_leaf:
            continue
        left = tree.nodes[node.left]
        right = tree.nodes[node.right]
        # The two child regions share the split plane and cover the parent.
        if node.split_dim == 0:
            assert left.bounds[2] == right.bounds[0] == node.split_val
            assert left.bounds[0] == node.bounds[0]
            assert right.bounds[2] == node.bounds[2]
        else:
            assert left.bounds[3] == right.bounds[1] == node.split_val
    assert len(tree.leaves()) >= 2


def test_duplicate_points_terminate():
    ps = PointSet.from_coords(np.zeros((500, 2)))
    tree = RegionKDTree(ps, leaf_size=8, max_depth=12)
    members = np.concatenate([tree.leaf_members(l) for l in tree.leaves()])
    assert len(members) == 500


def test_leaf_of_point_consistent_with_membership():
    ps = _random_points(300, seed=6)
    tree = RegionKDTree(ps, leaf_size=16)
    for i in (0, 100, 299):
        leaf = tree.leaf_of_point(i)
        assert i in tree.leaf_members(leaf)


def test_query_matches_grid_index(blobs_with_noise):
    ps = blobs_with_noise
    tree = RegionKDTree(ps, leaf_size=32)
    gi = GridIndex(ps, 0.25)
    for i in (0, 500, 1500):
        got = np.sort(tree.query_radius(ps.coords[i], 0.25))
        want = np.sort(gi.neighbors_of(i))
        assert np.array_equal(got, want)


def test_count_visited_leaves_positive():
    ps = _random_points(500, seed=7)
    tree = RegionKDTree(ps, leaf_size=16)
    v = tree.count_visited_leaves(ps.coords[0], 0.5)
    assert 1 <= v <= len(tree.leaves())


@settings(max_examples=30, deadline=None)
@given(
    coords=st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=2, max_size=100
    ),
    radius=st.floats(0.05, 3.0),
    leaf_size=st.integers(1, 16),
)
def test_property_query_equals_bruteforce(coords, radius, leaf_size):
    coords = np.asarray(coords)
    ps = PointSet.from_coords(coords)
    tree = RegionKDTree(ps, leaf_size=leaf_size)
    q = coords[0]
    got = np.sort(tree.query_radius(q, radius))
    d2 = np.sum((coords - q) ** 2, axis=1)
    want = np.flatnonzero(d2 <= radius * radius)
    assert np.array_equal(got, want)
