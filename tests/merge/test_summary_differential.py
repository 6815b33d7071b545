"""``summarize_leaf`` (segment passes) vs the per-cell loop it replaced.

The oracle is ``merge_reference.reference_summarize_leaf``; equality is
field by field through ``as_graph`` — cluster-key order, cell order, every
array's values, dtype and shape, the owner lists (empty owned cells
included; owned cells now come sorted, the loop listed them in set order)
and ``payload_bytes()``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from merge_reference import as_graph, assert_summaries_identical, reference_summarize_leaf

from repro.data import generate_sdss, generate_twitter
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.merge.summary import summarize_leaf
from repro.partition.grid import cell_of_coords
from repro.points import NOISE, PointSet


def _brute_force_claims(coords, core_mask, eps):
    """Every ``(non-core, core)`` index pair within Eps, shuffled."""
    cores = np.flatnonzero(core_mask)
    parts = [np.empty((0, 2), dtype=np.int64)]
    for rows in np.array_split(np.flatnonzero(~core_mask), max(1, len(coords) // 256)):
        dx = coords[rows, 0][:, None] - coords[cores, 0]
        dy = coords[rows, 1][:, None] - coords[cores, 1]
        r, c = np.nonzero(dx * dx + dy * dy <= eps * eps)
        parts.append(np.stack((rows[r], cores[c]), axis=1))
    claims = np.concatenate(parts)
    return claims[np.random.default_rng(len(claims)).permutation(len(claims))]


def _check(points, labels, core_mask, eps, owned, leaf_id=3):
    labels = np.asarray(labels, dtype=np.int64)
    core_mask = np.asarray(core_mask, dtype=bool)
    got = summarize_leaf(leaf_id, points, labels, core_mask, eps, owned)
    want = reference_summarize_leaf(leaf_id, points, labels, core_mask, eps, owned)
    assert_summaries_identical(got, want)
    # Handed the claims, in any order and NOISE-labelled cores included,
    # it walks nothing and says the same thing.
    claims = _brute_force_claims(points.coords, core_mask, eps)
    shared = summarize_leaf(leaf_id, points, labels, core_mask, eps, owned, claims=claims)
    assert_summaries_identical(shared, want)
    return as_graph(got)


def _cells(points, eps):
    return {(int(cx), int(cy)) for cx, cy in cell_of_coords(points.coords, eps)}


# ------------------------- random labelings ---------------------------- #


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 90),
    eps=st.sampled_from([0.25, 0.3, 1.0, 1e-3]),
    span_cells=st.integers(1, 6),
    lattice=st.booleans(),
    core_share=st.floats(0.0, 1.0),
)
def test_random_labelings_match_reference(seed, n, eps, span_cells, lattice, core_share):
    """Arbitrary core masks and labelings, not only DBSCAN outputs: the
    two must agree on whatever ``(labels, core_mask)`` they are handed.
    The lattice draws put points on multiples of eps/4, which makes exact
    ties, duplicate coordinates, pairs exactly Eps apart and points on
    cell edges common."""
    rng = np.random.default_rng(seed)
    lo = -span_cells // 2
    if lattice:
        coords = rng.integers(4 * lo, 4 * (lo + span_cells), size=(n, 2)) * (eps / 4)
    else:
        coords = rng.uniform(lo * eps, (lo + span_cells) * eps, size=(n, 2))
    ids = rng.permutation(n) * 3 + 11  # neither sorted nor dense
    points = PointSet(ids=ids, coords=coords)
    core_mask = rng.random(n) < core_share
    pool = np.array([NOISE, 0, 1, 2, 7, 40, 10**12])  # gaps, and NOISE on cores
    labels = rng.choice(pool, size=n)
    # A label exists through its core points: non-core points borrow one.
    carried = np.unique(labels[core_mask])
    borrow = np.append(carried, NOISE)
    labels[~core_mask] = rng.choice(borrow, size=int((~core_mask).sum()))
    cells = sorted(_cells(points, eps))
    owned = {c for c in cells if rng.random() < 0.6} | {(lo - 5, lo - 5)}
    _check(points, labels, core_mask, eps, owned)


@pytest.mark.parametrize(
    "make, eps, minpts",
    [(generate_twitter, 0.1, 10), (generate_sdss, 0.00015, 5)],
)
def test_clustered_leaf_matches_reference(make, eps, minpts):
    points = make(4000, seed=5)
    out = mrscan_gpu(points, eps, minpts)
    owned = set(sorted(_cells(points, eps))[::2])
    summary = _check(points, out.labels, out.core_mask, eps, owned)
    assert summary.n_clusters == out.n_clusters > 1
    # The claims the engine's border pass hands over.
    handed = summarize_leaf(3, points, out.labels, out.core_mask, eps, owned, claims=out.claims)
    assert_summaries_identical(handed, summary)


# ------------------------- pinned adversarial cases -------------------- #


def test_core_points_labelled_noise_join_no_cluster_but_stay_core():
    coords = np.array([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.25, 0.3]])
    points = PointSet.from_coords(coords)
    labels = [NOISE, 0, 0, NOISE]
    core = [True, True, True, False]
    summary = _check(points, labels, core, 1.0, {(0, 0)})
    cell = summary.clusters[(3, 0)].cells[(0, 0)]
    assert 0 not in cell.rep_ids  # the NOISE-labelled core represents nothing
    assert cell.noncore_ids.tolist() == [3]
    assert summary.owner_noncore_ids[(0, 0)].tolist() == [3]  # ...yet is core


def test_label_ids_with_gaps_keep_label_order():
    coords = np.array([[0.1, 0.1], [5.1, 0.1], [9.1, 0.1]])
    points = PointSet.from_coords(coords)
    summary = _check(points, [10**12, 4, 17], [True] * 3, 1.0, set())
    assert list(summary.clusters) == [(3, 4), (3, 17), (3, 10**12)]


def test_negative_cells_sort_numerically():
    coords = np.array([[-0.5, -1.5], [-0.5, 0.5], [-2.5, 3.5], [1.5, -3.5]])
    points = PointSet.from_coords(coords)
    summary = _check(points, [0] * 4, [True] * 4, 1.0, {(-1, -2), (-3, 3)})
    assert list(summary.clusters[(3, 0)].cells) == [(-3, 3), (-1, -2), (-1, 0), (1, -4)]


def test_duplicate_coordinates():
    coords = np.array([[0.5, 0.5]] * 5 + [[0.6, 0.5]] * 3)
    points = PointSet.from_coords(coords)
    core = [True, True, False, True, False, False, True, True]
    summary = _check(points, [0] * 8, core, 1.0, {(0, 0)})
    cell = summary.clusters[(3, 0)].cells[(0, 0)]
    assert cell.rep_ids.tolist() == [0, 6]  # first of each coincident group
    assert cell.noncore_ids.tolist() == [2, 4, 5]


def test_equidistant_cores_lowest_index_wins():
    """Two cores mirror each other about the cell's diagonal and tie, bit
    for bit, for the SW corner; seven other cores own every other target.
    Whichever of the pair comes first in the input is the representative,
    and the other is none."""
    others = [
        [0.9, 0.1], [0.1, 0.9], [0.9, 0.9],  # SE, NW, NE corners
        [0.5, 0.05], [0.5, 0.95], [0.05, 0.5], [0.95, 0.5],  # S, N, W, E
    ]
    pair = [[0.2, 0.3], [0.3, 0.2]]
    for coords, want in (
        (others + pair, [0, 1, 2, 3, 4, 5, 6, 7]),
        (others + pair[::-1], [0, 1, 2, 3, 4, 5, 6, 7]),
        (pair + others, [0, 2, 3, 4, 5, 6, 7, 8]),
    ):
        points = PointSet.from_coords(np.array(coords))
        summary = _check(points, [0] * 9, [True] * 9, 1.0, set())
        assert summary.clusters[(3, 0)].cells[(0, 0)].rep_ids.tolist() == want


def test_noncore_exactly_eps_from_core_is_claimed():
    eps = 0.5  # exactly representable, so 3*eps - 2*eps == eps with no rounding
    coords = np.array([[2 * eps, 0.25], [3 * eps, 0.25], [4.5 * eps, 0.25]])
    points = PointSet.from_coords(coords)
    summary = _check(points, [0, 0, NOISE], [True, False, False], eps, set())
    claimed = [
        cs.noncore_ids.tolist() for cs in summary.clusters[(3, 0)].cells.values()
    ]
    assert [1] in claimed  # at distance == eps: inside the closed ball
    assert not any(2 in ids for ids in claimed)  # at 2.5 eps: outside


def test_border_claimed_by_two_clusters_appears_in_both():
    left = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
    right = [[1.6, 0.0], [1.7, 0.0], [1.8, 0.0]]
    points = PointSet.from_coords(np.array(left + right + [[0.9, 0.0]]))
    labels = [0, 0, 0, 1, 1, 1, 0]  # the output label picked cluster 0
    core = [True] * 6 + [False]
    summary = _check(points, labels, core, 1.0, {(0, 0)})
    for key in ((3, 0), (3, 1)):
        assert summary.clusters[key].cells[(0, 0)].noncore_ids.tolist() == [6]
    # Cluster 1 has no core in that cell: a claim-only cell, no representatives.
    assert summary.clusters[(3, 1)].cells[(0, 0)].rep_ids.shape == (0,)
    assert summary.clusters[(3, 1)].cells[(0, 0)].rep_coords.shape == (0, 2)


def test_empty_view():
    summary = _check(PointSet.empty(), [], [], 1.0, {(0, 0), (4, 2)})
    assert summary.clusters == {} and summary.owner_noncore_ids == {}


def test_all_core_leaf_has_empty_owner_lists():
    points = PointSet.from_coords(np.random.default_rng(1).uniform(0, 2, (60, 2)))
    summary = _check(points, [0] * 60, [True] * 60, 0.5, _cells(points, 0.5) | {(9, 9)})
    assert all(ids.shape == (0,) for ids in summary.owner_noncore_ids.values())
    assert all(
        cs.noncore_ids.shape == (0,) and cs.noncore_coords.shape == (0, 2)
        for cs in summary.clusters[(3, 0)].cells.values()
    )


def test_all_noise_leaf_has_no_clusters():
    points = PointSet.from_coords(np.random.default_rng(2).uniform(0, 2, (40, 2)))
    owned = _cells(points, 0.5)
    summary = _check(points, [NOISE] * 40, [False] * 40, 0.5, owned)
    assert summary.clusters == {}
    assert sum(len(ids) for ids in summary.owner_noncore_ids.values()) == 40


def test_label_without_a_core_point_gets_no_entry():
    """The one input the loop could not take (it indexed an empty array):
    a label carried only by non-core points is not a cluster."""
    points = PointSet.from_coords(np.array([[0.1, 0.1], [0.2, 0.1], [5.0, 5.0]]))
    summary = summarize_leaf(0, points, np.array([0, 0, 9]), np.array([True, False, False]), 1.0, set())
    assert list(as_graph(summary).clusters) == [(0, 0)]


# ------------------------- the columns on the wire --------------------- #


def test_pickled_summary_round_trips_without_the_shared_base():
    """Every column is an array of its own, not a view of a leaf-wide
    one: pickling ships the summary's own bytes, and it comes back
    identical."""
    points = generate_sdss(4000, seed=9)
    out = mrscan_gpu(points, 0.00015, 5)
    summary = summarize_leaf(1, points, out.labels, out.core_mask, 0.00015, _cells(points, 0.00015))
    assert_summaries_identical(pickle.loads(pickle.dumps(summary)), summary)

    arrays = [c for c in summary.columns() if isinstance(c, np.ndarray)]
    assert all(a.base is None or a.base.nbytes <= 2 * a.nbytes for a in arrays)
    total = sum(a.nbytes for a in arrays)
    assert len(pickle.dumps(summary)) < total + 4096
    # The wire estimate counts the point arrays, not the count columns.
    assert summary.payload_bytes() <= total + 32 * len(summary.cell_xy) + 64
