"""Tests for d-dimensional DBSCAN (the §3.1.2 arbitrary-dimension claim)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbscan_nd import GridIndexND, dbscan_nd
from repro.dbscan import dbscan_reference
from repro.dbscan.labels import core_sets_equal
from repro.errors import ConfigError
from repro.points import NOISE, PointSet


def brute_dbscan(coords: np.ndarray, eps: float, minpts: int):
    """O(n^2) textbook DBSCAN for verification, any dimension."""
    n = len(coords)
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= minpts
    # components over cores
    from repro.dbscan import DisjointSet

    ds = DisjointSet(n)
    core_idx = np.flatnonzero(core)
    for i in core_idx:
        for j in core_idx:
            if j > i and within[i, j]:
                ds.union(int(i), int(j))
    labels = np.full(n, NOISE, dtype=np.int64)
    roots = {int(ds.find(int(i))) for i in core_idx}
    root_map = {r: k for k, r in enumerate(sorted(roots))}
    for i in core_idx:
        labels[i] = root_map[int(ds.find(int(i)))]
    for i in range(n):
        if core[i] or not within[i][core].any():
            continue
        cands = core_idx[within[i][core_idx]]
        nearest = cands[np.argmin(d2[i][cands])]
        labels[i] = labels[nearest]
    return labels, core


def _check(coords, eps, minpts):
    got = dbscan_nd(coords, eps, minpts)
    want_labels, want_core = brute_dbscan(coords, eps, minpts)
    assert core_sets_equal(got.labels, want_labels, got.core_mask, want_core)
    assert np.array_equal(got.labels == NOISE, want_labels == NOISE)
    return got


def test_validation():
    with pytest.raises(ConfigError):
        dbscan_nd(np.zeros((2, 2)), 0.0, 2)
    with pytest.raises(ConfigError):
        dbscan_nd(np.zeros((2, 2)), 1.0, 0)
    with pytest.raises(ConfigError):
        dbscan_nd(np.zeros(5), 1.0, 2)
    with pytest.raises(ConfigError):
        GridIndexND(np.zeros((3, 2)), -1.0)


def test_empty():
    res = dbscan_nd(np.empty((0, 3)), 1.0, 2)
    assert res.n_clusters == 0


def test_matches_2d_reference(blobs_with_noise):
    res2d = dbscan_reference(blobs_with_noise, 0.25, 8)
    resnd = dbscan_nd(blobs_with_noise.coords, 0.25, 8)
    assert np.array_equal(res2d.core_mask, resnd.core_mask)
    assert resnd.n_clusters == res2d.n_clusters
    assert np.array_equal(res2d.labels == NOISE, resnd.labels == NOISE)


def test_3d_two_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(scale=0.2, size=(150, 3))
    b = rng.normal(loc=5.0, scale=0.2, size=(150, 3))
    coords = np.concatenate([a, b])
    res = _check(coords, 0.8, 5)
    assert res.n_clusters == 2


def test_1d_intervals():
    coords = np.concatenate(
        [np.linspace(0, 1, 30), np.linspace(10, 11, 30)]
    ).reshape(-1, 1)
    res = _check(coords, 0.1, 3)
    assert res.n_clusters == 2


def test_4d_blob_and_noise():
    rng = np.random.default_rng(1)
    blob = rng.normal(scale=0.3, size=(120, 4))
    noise = rng.uniform(-10, 10, size=(30, 4))
    res = _check(np.concatenate([blob, noise]), 1.2, 6)
    assert res.n_clusters >= 1


def test_grid_index_nd_neighbors_bruteforce():
    rng = np.random.default_rng(2)
    coords = rng.uniform(0, 3, size=(200, 3))
    gi = GridIndexND(coords, 0.5)
    for i in (0, 77, 199):
        got = np.sort(gi.neighbors_of(i))
        d2 = np.sum((coords - coords[i]) ** 2, axis=1)
        want = np.flatnonzero(d2 <= 0.25)
        assert np.array_equal(got, want)


def test_count_neighbors_nd():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(150, 3))
    gi = GridIndexND(coords, 0.7)
    counts = gi.count_neighbors()
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    want = np.count_nonzero(d2 <= 0.49, axis=1)
    assert np.array_equal(counts, want)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 5),
    n=st.integers(5, 60),
    eps=st.floats(0.2, 2.0),
    minpts=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_property_matches_bruteforce(d, n, eps, minpts, seed):
    rng = np.random.default_rng(seed)
    coords = np.round(rng.uniform(-4, 4, size=(n, d)), 6)
    _check(coords, eps, minpts)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_duplicates_handled(seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(5, 3))
    coords = np.repeat(base, 10, axis=0)
    res = dbscan_nd(coords, 0.1, 5)
    assert res.core_mask.all()
    assert res.n_clusters == len(np.unique(base, axis=0))
