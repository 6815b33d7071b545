"""``merge_summaries`` (array passes) vs the per-cell loop it replaced.

The oracle is ``merge_reference.reference_merge_summaries``.  Each case is
merged flat (one filter application) and staged (pairs, then pairs of
pairs, up to the root), by both implementations; for each topology they
must agree per (root key, cell) — the four arrays in value, dtype and
order, the constituent sets, the owner lists — and on the global-id
assignment.  Only cluster, cell and owned-cell row order is canonicalised.
The root filter, which numbers its groups without building the merged
summary, yields that same assignment on a flat tree and on a fanout-2
tree.

Flat and staged merges are held to each other only on DBSCAN output
(``test_merger.py::test_hierarchical_merge_associative``): with the
arbitrary core masks drawn here, a representative one level drops is no
longer evidence the level above can use.

Tier 1 runs the pinned cases and 25 derandomized draws;
``MRSCAN_FUZZ=1 pytest -m fuzz`` runs 150.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from merge_reference import (
    assert_summaries_identical,
    random_leaves,
    reference_assign_global_ids,
    reference_merge_summaries,
    shuffled,
)

from repro.data import gaussian_blobs, ring_cluster, uniform_noise
from repro.dbscan import dbscan_reference
from repro.gpu import mrscan_gpu
from repro.merge import MergeFilter, assign_global_ids, merge_summaries, summarize_leaf
from repro.merge.summary import LeafSummary
from repro.mrnet import Network, Topology
from repro.partition import DistributedPartitioner
from repro.points import PointSet

pytestmark = pytest.mark.fuzz


def _staged(merge, summaries, eps):
    """Merge pairs, then pairs of pairs, until one summary is left."""
    level = list(summaries)
    while True:
        level = [merge(level[i : i + 2], eps)[0] for i in range(0, max(len(level), 1), 2)]
        if len(level) == 1:
            return level[0]


class _SummaryAtRoot(MergeFilter):
    """The merge filter with the root building the merged summary too."""

    def root(self, payloads):
        return self.combine(payloads)


def _check_root(summaries, eps):
    """On a flat and a fanout-2 tree, the root's assignment is the one
    the merged summary numbers."""
    for fanout in (256, 2):
        network = Network(Topology.paper_style(len(summaries), fanout))
        assignment, _ = network.reduce(summaries, MergeFilter(eps))
        merged, _ = network.reduce(summaries, _SummaryAtRoot(eps))
        assert assignment == assign_global_ids(merged)
        assert assignment.n_clusters == merged.n_clusters


def _check(summaries, eps):
    """Flat and staged, the array merge agrees with the loop; returns the
    flat merge."""
    flat, outcome = merge_summaries(summaries, eps)
    want, want_outcome = reference_merge_summaries(summaries, eps)
    for got, ref in ((flat, want), (
        _staged(merge_summaries, summaries, eps),
        _staged(reference_merge_summaries, summaries, eps),
    )):
        assert_summaries_identical(got, ref, ordered=False)
        assert assign_global_ids(got).mapping == reference_assign_global_ids(ref)
    if summaries:
        _check_root(summaries, eps)
    # Groups and repeated non-cores do not depend on order; the loop's
    # pair counters skip pairs already joined, so they can only be lower.
    assert outcome.n_input_clusters == want_outcome.n_input_clusters
    assert outcome.n_output_clusters == want_outcome.n_output_clusters
    assert outcome.n_duplicate_noncore_removed == want_outcome.n_duplicate_noncore_removed
    assert outcome.n_cell_pairs_checked >= want_outcome.n_cell_pairs_checked
    return flat


@settings(max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    eps=st.sampled_from([0.25, 0.1, 1.0, 0.00015]),
    n_leaves=st.integers(1, 6),
    core_share=st.floats(0.0, 1.0),
    span_cells=st.integers(1, 10),
    dict_orders=st.booleans(),
)
def test_multilevel_merges_match_reference(
    seed, n, eps, n_leaves, core_share, span_cells, dict_orders
):
    leaves = random_leaves(seed, n, eps, n_leaves, core_share, span_cells)
    if dict_orders:  # rows as a dict-ordered writer left them
        leaves = [shuffled(s, seed) for s in leaves]
    _check(leaves, eps)


# ------------------------- pinned cases -------------------------------- #


def _leaf(leaf_id, coords, labels, core, eps, owned, ids=None):
    coords = np.asarray(coords, dtype=np.float64)
    ids = np.arange(len(coords)) if ids is None else ids
    return summarize_leaf(
        leaf_id, PointSet(ids=ids, coords=coords), np.asarray(labels), np.asarray(core), eps, owned
    )


def test_all_core_owned_cell():
    """Hypothesis seed 2963: a boundary cell whose owner saw only core
    points still drives the type-2 merge of a ring cut in two."""
    rng = np.random.default_rng(2963)
    ps = PointSet.from_coords(np.concatenate([
        gaussian_blobs(200, centers=1, spread=0.3, seed=rng.integers(1 << 30)).coords,
        ring_cluster(
            150, center=tuple(rng.uniform(0, 10, 2)), radius=2.0, thickness=0.1,
            seed=int(rng.integers(1 << 30)),
        ).coords,
        uniform_noise(60, seed=int(rng.integers(1 << 30))).coords,
    ]))
    eps, minpts = 0.4921875, 6
    phase1 = DistributedPartitioner(eps, minpts, 2).run(ps, 2)
    leaves = []
    for pid, (own, shadow) in enumerate(phase1.partitions):
        view = own.concat(shadow)
        res = mrscan_gpu(view, eps, minpts)
        owned = set(phase1.plan.partitions[pid].cells)
        leaves.append(summarize_leaf(pid, view, res.labels, res.core_mask, eps, owned))
    assert _check(leaves, eps).n_clusters == dbscan_reference(ps, eps, minpts).n_clusters == 2


def test_border_claimed_by_two_leaves():
    """Both leaves see both clusters and the border between them; the
    border joins nothing and each merged cell keeps it once."""
    coords = [[0.0, 0.5], [0.1, 0.5], [0.2, 0.5], [1.6, 0.5], [1.7, 0.5], [1.8, 0.5], [0.9, 0.5]]
    core = [True] * 6 + [False]
    left = _leaf(0, coords, [0, 0, 0, 1, 1, 1, 0], core, 1.0, {(0, 0)})
    right = _leaf(1, coords, [1, 1, 1, 0, 0, 0, 1], core, 1.0, {(1, 0)})
    merged = _check([left, right], 1.0)
    assert merged.n_clusters == 2
    assert merge_summaries([left, right], 1.0)[1].n_duplicate_noncore_removed == 2
    # The root numbers the groups and builds no merged cell to drop from.
    root = MergeFilter(1.0)
    assert root.root([left, right]).n_clusters == 2
    assert root.outcomes[-1].n_duplicate_noncore_removed == 0


@pytest.mark.parametrize("scale", [1.0, 1 - 2.0**-52, 1 + 2.0**-52])
def test_points_exactly_eps_apart(scale):
    """A 3-4-5 triangle inside one cell of side 5: representatives (type 1)
    and a promoted non-core (type 2) at exactly Eps and one ulp either side."""
    eps = 5.0
    far = [3.0 * scale, 4.0 * scale]
    # Type 1: a core of each leaf, one cell, distance 5 * scale.
    a = _leaf(0, [[0.0, 0.0]], [0], [True], eps, {(0, 0)})
    b = _leaf(1, [far], [0], [True], eps, {(1, 1)}, ids=np.array([1]))
    _check([a, b], eps)
    # Type 2: leaf 1 sees ``far`` as a non-core claimed by its cluster,
    # leaf 0 (the owner) counts it core.
    a = _leaf(0, [[0.0, 0.0], far], [0, 0], [True, True], eps, {(0, 0)})
    b = _leaf(1, [far, [4.9, 4.9]], [0, 0], [False, True], eps, {(1, 1)}, ids=np.array([1, 2]))
    _check([a, b], eps)


@pytest.mark.parametrize("offset", [1e6, 1e7, 1e8, 1e9])
def test_far_from_the_origin(offset):
    for seed in range(4):
        _check(random_leaves(seed, 80, 0.25, 4, 0.6, 6, offset=offset), 0.25)


def test_empty_and_missing_children():
    leaves = random_leaves(3, 60, 0.25, 3, 0.6)
    _check([None, leaves[0], LeafSummary.empty(0.25), None, *leaves[1:]], 0.25)
    _check([None, LeafSummary.empty(0.25, (7,))], 0.25)
    _check([], 0.25)


def test_single_child():
    leaf = random_leaves(4, 60, 0.25, 1, 0.6)[0]
    merged = _check([leaf], 0.25)
    assert merged.n_clusters == leaf.n_clusters
    assert merged.source_leaves == leaf.source_leaves
