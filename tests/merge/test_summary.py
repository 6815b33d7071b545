"""Tests for per-leaf cluster summaries (read through ``as_graph``)."""

from __future__ import annotations

import numpy as np
import pytest
from merge_reference import as_graph

from repro.dbscan import dbscan_reference
from repro.data import gaussian_blobs, uniform_noise
from repro.errors import MergeError
from repro.merge.summary import cell_bounds, row_ranks, summarize_leaf
from repro.partition.grid import cell_of_coords
from repro.points import NOISE, PointSet


def _clustered(seed=0, n=600, eps=0.3, minpts=6):
    blobs = gaussian_blobs(n - n // 6, centers=3, spread=0.25, seed=seed)
    noise = uniform_noise(n // 6, seed=seed + 1)
    ps = PointSet.from_coords(np.concatenate([blobs.coords, noise.coords]))
    res = dbscan_reference(ps, eps, minpts)
    return ps, res, eps


def test_cell_bounds():
    assert cell_bounds((2, -1), 0.5) == (1.0, -0.5, 1.5, 0.0)


def test_rejects_mismatched_lengths():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(MergeError):
        summarize_leaf(0, ps, np.zeros(2), np.zeros(1, dtype=bool), 1.0, set())


def test_one_summary_per_cluster():
    ps, res, eps = _clustered()
    cells = {tuple(c) for c in cell_of_coords(ps.coords, eps)}
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, eps, cells))
    assert summary.n_clusters == res.n_clusters
    for key in summary.clusters:
        assert key[0] == 0


def test_representatives_are_core_cluster_members():
    ps, res, eps = _clustered()
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, eps, set()))
    id_to_idx = {int(pid): i for i, pid in enumerate(ps.ids)}
    for (leaf, lab), cluster in summary.clusters.items():
        for cell, cs in cluster.cells.items():
            assert cs.n_reps <= 8
            for pid in cs.rep_ids:
                i = id_to_idx[int(pid)]
                assert res.core_mask[i]
                assert res.labels[i] == lab


def test_reps_lie_in_their_cell():
    ps, res, eps = _clustered(seed=3)
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, eps, set()))
    for cluster in summary.clusters.values():
        for cell, cs in cluster.cells.items():
            xmin, ymin, xmax, ymax = cell_bounds(cell, eps)
            for x, y in cs.rep_coords:
                assert xmin <= x < xmax + 1e-12
                assert ymin <= y < ymax + 1e-12


def test_noncore_claims_are_multi_membership():
    """A border point within eps of cores of two clusters appears in both
    clusters' summaries (even though its label picks one)."""
    left = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]])
    right = np.array([[2.0, 0.0], [2.1, 0.0], [2.2, 0.0], [2.3, 0.0]])
    border = np.array([[1.15, 0.4]])
    ps = PointSet.from_coords(np.concatenate([left, right, border]))
    res = dbscan_reference(ps, 1.0, 4)
    assert res.n_clusters == 2 and not res.core_mask[8]
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, 1.0, set()))
    claiming = [
        key
        for key, cluster in summary.clusters.items()
        if any(8 in cs.noncore_ids for cs in cluster.cells.values())
    ]
    assert len(claiming) == 2


def test_owner_noncore_only_for_owned_cells():
    ps, res, eps = _clustered(seed=4)
    cells = cell_of_coords(ps.coords, eps)
    all_cells = {tuple(c) for c in cells}
    some_cell = next(iter(all_cells))
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, eps, {some_cell}))
    assert set(summary.owner_noncore_ids) <= {some_cell}
    # the recorded ids are exactly the non-core points of that cell
    mask = (cells[:, 0] == some_cell[0]) & (cells[:, 1] == some_cell[1])
    want = np.sort(ps.ids[mask & ~res.core_mask])
    got = summary.owner_noncore_ids.get(some_cell, np.empty(0, dtype=np.int64))
    assert np.array_equal(got, want)


def test_noise_points_in_no_cluster_summary():
    ps, res, eps = _clustered(seed=5)
    summary = as_graph(summarize_leaf(0, ps, res.labels, res.core_mask, eps, set()))
    noise_ids = set(ps.ids[res.labels == NOISE].tolist())
    for cluster in summary.clusters.values():
        for cs in cluster.cells.values():
            assert not (set(cs.rep_ids.tolist()) & noise_ids)
            # noise can legitimately appear in noncore claims only if it is
            # within eps of a core — but then it would not be noise.
            assert not (set(cs.noncore_ids.tolist()) & noise_ids)


def test_payload_bytes_positive_and_bounded():
    ps, res, eps = _clustered(seed=6)
    summary = summarize_leaf(0, ps, res.labels, res.core_mask, eps, set())
    nbytes = summary.payload_bytes()
    assert nbytes == as_graph(summary).payload_bytes()
    assert 0 < nbytes < ps.nbytes() * 4


def test_empty_leaf_summary():
    summary = as_graph(
        summarize_leaf(3, PointSet.empty(), np.empty(0), np.empty(0, bool), 1.0, set())
    )
    assert summary.n_clusters == 0
    assert summary.owner_noncore_ids == {}


@pytest.mark.parametrize("scale", [1, 2**40])
@pytest.mark.parametrize("width", [2, 3])
def test_row_ranks_are_dense_lexicographic(scale, width):
    """Packed into one key (small boxes) or lexsorted (boxes of ≥ 2⁶²
    cells, here 2⁴⁰-spaced values), the ranks are ``np.unique``'s."""
    rows = np.random.default_rng(width).integers(-5, 5, size=(300, width)) * scale
    want = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    assert np.array_equal(row_ranks(rows), want)
    assert row_ranks(rows[:0]).shape == (0,)
