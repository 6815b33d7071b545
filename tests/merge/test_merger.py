"""Tests for the merge filter (§3.3.2): the three overlap types.

Cluster and cell assertions read the columns through ``as_graph``."""

from __future__ import annotations

import numpy as np
import pytest
from merge_reference import as_graph, assert_columns_identical

from repro.dbscan import dbscan_reference
from repro.data import gaussian_blobs, generate_twitter, uniform_noise
from repro.errors import MergeError
from repro.gpu import mrscan_gpu
from repro.merge import assign_global_ids, merge_summaries, summarize_leaf
from repro.merge.merger import MergeFilter
from repro.merge.summary import LeafSummary
from repro.partition import DistributedPartitioner
from repro.points import NOISE, PointSet


def _leaf_summaries(points, eps, minpts, n_leaves, seed_partitions=None):
    """Partition points, cluster each leaf, and return the summaries."""
    dp = DistributedPartitioner(eps, minpts, 2)
    phase1 = dp.run(points, n_leaves)
    summaries = []
    views = []
    for pid, (own, shadow) in enumerate(phase1.partitions):
        view = own.concat(shadow)
        res = mrscan_gpu(view, eps, minpts)
        summaries.append(
            summarize_leaf(
                pid, view, res.labels, res.core_mask, eps,
                set(phase1.plan.partitions[pid].cells),
            )
        )
        views.append((view, res))
    return summaries, views, phase1


def test_merge_rejects_eps_mismatch():
    a = LeafSummary.empty(1.0)
    with pytest.raises(MergeError):
        merge_summaries([a], 2.0)


def test_merge_empty():
    merged, outcome = merge_summaries([], 1.0)
    assert merged.n_clusters == 0
    assert outcome.n_input_clusters == 0


def test_merge_single_passthrough():
    ps = gaussian_blobs(300, centers=2, spread=0.2, seed=0)
    res = dbscan_reference(ps, 0.5, 5)
    s = summarize_leaf(0, ps, res.labels, res.core_mask, 0.5, set())
    merged, outcome = merge_summaries([s], 0.5)
    assert merged.n_clusters == s.n_clusters
    assert outcome.n_output_clusters == outcome.n_input_clusters


def test_cross_partition_cluster_merges_to_reference_count():
    """A cluster spanning a partition boundary must merge back to one."""
    # A single blob wide enough to be split by any 2-way partitioning.
    ps = gaussian_blobs(1500, centers=np.array([[0.0, 0.0]]), spread=1.2, seed=1)
    eps, minpts = 0.4, 6
    ref = dbscan_reference(ps, eps, minpts)
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=4)
    merged, outcome = merge_summaries(summaries, eps)
    assert merged.n_clusters == ref.n_clusters
    assert outcome.n_core_merges + outcome.n_noncore_core_merges > 0


def test_separate_clusters_do_not_merge():
    centers = np.array([[0.0, 0.0], [40.0, 40.0], [0.0, 40.0]])
    ps = gaussian_blobs(900, centers=centers, spread=0.3, seed=2)
    eps, minpts = 0.5, 5
    ref = dbscan_reference(ps, eps, minpts)
    assert ref.n_clusters == 3
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=6)
    merged, _ = merge_summaries(summaries, eps)
    assert merged.n_clusters == 3


def test_merged_cluster_counts_match_reference_twitter():
    ps = generate_twitter(8000, seed=3)
    eps, minpts = 0.1, 10
    ref = dbscan_reference(ps, eps, minpts)
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=8)
    merged, _ = merge_summaries(summaries, eps)
    assert merged.n_clusters == ref.n_clusters


def test_hierarchical_merge_associative():
    """Merging in two stages (pairs, then pairs-of-pairs) equals one stage —
    the property that lets MRNet apply the filter level by level."""
    ps = generate_twitter(6000, seed=4)
    eps, minpts = 0.1, 8
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=4)
    flat, _ = merge_summaries(summaries, eps)
    left, _ = merge_summaries(summaries[:2], eps)
    right, _ = merge_summaries(summaries[2:], eps)
    staged, _ = merge_summaries([left, right], eps)
    flat_groups = {c.constituents for c in as_graph(flat).clusters.values()}
    staged_groups = {c.constituents for c in as_graph(staged).clusters.values()}
    assert flat_groups == staged_groups


def test_duplicate_noncore_removed():
    ps = gaussian_blobs(1200, centers=np.array([[0.0, 0.0]]), spread=1.0, seed=5)
    # Add sparse halo points that become borders seen by several leaves.
    halo = uniform_noise(150, box=(-2, -2, 2, 2), seed=6)
    ps = PointSet.from_coords(np.concatenate([ps.coords, halo.coords]))
    eps, minpts = 0.4, 8
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=4)
    merged, outcome = merge_summaries(summaries, eps)
    # cross-leaf duplicates of shared border points must be deduplicated
    for cluster in as_graph(merged).clusters.values():
        for cs in cluster.cells.values():
            assert len(cs.noncore_ids) == len(np.unique(cs.noncore_ids))
    assert outcome.n_duplicate_noncore_removed > 0


def test_merged_reps_still_at_most_eight():
    ps = gaussian_blobs(2000, centers=np.array([[0.0, 0.0]]), spread=0.8, seed=7)
    eps, minpts = 0.4, 6
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=4)
    merged, _ = merge_summaries(summaries, eps)
    assert merged.n_rep.max() <= 8


def test_merge_filter_collects_outcomes():
    ps = gaussian_blobs(800, centers=2, spread=0.3, seed=8)
    eps, minpts = 0.5, 5
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=2)
    filt = MergeFilter(eps)
    filt.combine(summaries)
    assert len(filt.outcomes) == 1
    assert filt.outcomes[0].n_input_clusters >= filt.outcomes[0].n_output_clusters


def test_duplicate_cluster_keys_rejected():
    ps = gaussian_blobs(200, centers=1, spread=0.1, seed=9)
    res = dbscan_reference(ps, 0.5, 5)
    s1 = summarize_leaf(0, ps, res.labels, res.core_mask, 0.5, set())
    s2 = summarize_leaf(0, ps, res.labels, res.core_mask, 0.5, set())
    with pytest.raises(MergeError, match="duplicate cluster keys"):
        merge_summaries([s1, s2], 0.5)


def test_global_ids_cover_all_constituents():
    ps = generate_twitter(5000, seed=10)
    eps, minpts = 0.1, 8
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=4)
    merged, _ = merge_summaries(summaries, eps)
    assignment = assign_global_ids(merged)
    assert assignment.n_clusters == merged.n_clusters
    all_constituents = set()
    for s in summaries:
        all_constituents.update(as_graph(s).clusters.keys())
    assert set(assignment.mapping) == all_constituents
    assert set(assignment.mapping.values()) == set(range(assignment.n_clusters))


def test_allcore_owned_cell_still_merges():
    """Regression (hypothesis seed 2963): a boundary cell whose owner saw
    *only core points* must still drive the type-2 merge.  An omitted
    owner entry used to read as "owner absent", skipping the check and
    splitting a ring cluster spanning the boundary."""
    from repro.data import ring_cluster, uniform_noise

    rng = np.random.default_rng(2963)
    pieces = [
        gaussian_blobs(200, centers=1, spread=0.3, seed=rng.integers(1 << 30)).coords,
        ring_cluster(
            150,
            center=tuple(rng.uniform(0, 10, 2)),
            radius=2.0,
            thickness=0.1,
            seed=int(rng.integers(1 << 30)),
        ).coords,
        uniform_noise(60, seed=int(rng.integers(1 << 30))).coords,
    ]
    ps = PointSet.from_coords(np.concatenate(pieces))
    eps, minpts = 0.4921875, 6
    ref = dbscan_reference(ps, eps, minpts)
    summaries, _, _ = _leaf_summaries(ps, eps, minpts, n_leaves=2)
    merged, _ = merge_summaries(summaries, eps)
    assert merged.n_clusters == ref.n_clusters == 2


def test_owner_entries_exist_for_all_owned_cells():
    """Every owned cell appears in owner_noncore_ids, even when empty."""
    ps = gaussian_blobs(400, centers=1, spread=0.2, seed=3)
    res = dbscan_reference(ps, 0.5, 5)
    from repro.partition.grid import cell_of_coords

    cells = {tuple(c) for c in cell_of_coords(ps.coords, 0.5)}
    s = summarize_leaf(0, ps, res.labels, res.core_mask, 0.5, cells)
    assert set(as_graph(s).owner_noncore_ids) == cells


def test_global_ids_deterministic():
    ps = generate_twitter(4000, seed=11)
    summaries, _, _ = _leaf_summaries(ps, 0.1, 8, n_leaves=4)
    m1, _ = merge_summaries(summaries, 0.1)
    m2, _ = merge_summaries(list(reversed(summaries)), 0.1)
    a1 = assign_global_ids(m1)
    a2 = assign_global_ids(m2)
    assert a1.mapping == a2.mapping


def test_merge_is_free_of_the_childrens_order():
    """Merge groups are connected components and every counter counts
    candidate pairs, not unions: permuting the children changes nothing —
    not a column, not the assignment, not a counter."""
    ps = generate_twitter(6000, seed=12)
    summaries, _, _ = _leaf_summaries(ps, 0.1, 8, n_leaves=6)
    merged, outcome = merge_summaries(summaries, 0.1)
    assert outcome.n_core_merges and outcome.n_cell_pairs_checked > outcome.n_core_merges
    rng = np.random.default_rng(0)
    for _ in range(4):
        order = rng.permutation(len(summaries))
        again, again_outcome = merge_summaries([summaries[i] for i in order], 0.1)
        assert_columns_identical(again, merged)
        assert again_outcome == outcome
        assert assign_global_ids(again) == assign_global_ids(merged)
