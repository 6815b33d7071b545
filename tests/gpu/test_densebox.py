"""Unit + property tests for the dense-box optimization (§3.2.3).

Boxes are the cells of the global eps/√2 grid holding ≥ MinPts points, so
the box set is a function of the points and Eps alone: the second half of
this file pins what follows from that (permutation and subset behaviour,
whole-cell translation, exact scaling) and the edge cases of the count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import gaussian_blobs, generate_twitter, uniform_noise
from repro.errors import ConfigError
from repro.gpu.densebox import (
    DENSEBOX_EDGE_FACTOR,
    build_densebox_tree,
    densebox_edge,
    find_dense_boxes,
)
from repro.gpu.treeindex import FlatTree
from repro.points import PointSet


def test_edge_factor_is_paper_formula():
    # 2*Eps / (2*sqrt(2)) == eps / sqrt(2)
    assert densebox_edge(1.0) == pytest.approx(1.0 / np.sqrt(2))
    assert DENSEBOX_EDGE_FACTOR == pytest.approx(2.0 / (2.0 * 2.0**0.5))


def test_rejects_bad_params():
    ps = PointSet.from_coords([[0, 0]])
    with pytest.raises(ConfigError):
        build_densebox_tree(ps, 0.0)
    with pytest.raises(ConfigError):
        find_dense_boxes(ps, 1.0, 0)


def test_dense_blob_is_eliminated():
    """A tight blob with >> MinPts points must land in dense boxes."""
    ps = gaussian_blobs(2000, centers=np.array([[0.0, 0.0]]), spread=0.05, seed=0)
    res = find_dense_boxes(ps, eps=1.0, minpts=10)
    assert res.n_boxes >= 1
    assert res.n_eliminated > 1000


def test_sparse_data_no_boxes():
    ps = uniform_noise(500, box=(0, 0, 100, 100), seed=1)
    res = find_dense_boxes(ps, eps=0.5, minpts=10)
    assert res.n_boxes == 0
    assert res.n_eliminated == 0


def test_box_members_are_mutually_within_eps():
    """The dense-box guarantee: every pair inside one box is <= eps apart."""
    ps = generate_twitter(20000, seed=2)
    eps = 0.1
    res = find_dense_boxes(ps, eps=eps, minpts=4)
    assert res.n_boxes > 0
    for box in range(min(res.n_boxes, 20)):
        members = res.members(box)
        coords = ps.coords[members]
        d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        assert np.all(d2 <= eps * eps + 1e-12)


def test_box_members_have_at_least_minpts():
    ps = generate_twitter(20000, seed=3)
    res = find_dense_boxes(ps, eps=0.1, minpts=7)
    for box in range(res.n_boxes):
        assert len(res.members(box)) >= 7


def test_box_members_are_core_points():
    """Dense-box membership implies core status under exact DBSCAN."""
    from repro.dbscan import dbscan_reference

    ps = generate_twitter(60000, seed=4)
    eps, minpts = 0.1, 5
    res = find_dense_boxes(ps, eps, minpts)
    ref = dbscan_reference(ps, eps, minpts)
    in_box = res.box_id >= 0
    assert in_box.any()
    assert np.all(ref.core_mask[in_box])


def test_elimination_decreases_with_minpts():
    """The paper: dense box "is not as effective when MinPts is higher"."""
    ps = generate_twitter(30000, seed=5)
    fracs = [
        find_dense_boxes(ps, 0.1, m).eliminated_fraction(len(ps))
        for m in (4, 40, 400)
    ]
    assert fracs[0] > fracs[1] >= fracs[2]


def test_eliminated_fraction_zero_points():
    res = find_dense_boxes(PointSet.empty(), 1.0, 5)
    assert res.n_boxes == 0
    assert res.eliminated_fraction(0) == 0.0


def test_boxes_are_disjoint():
    ps = generate_twitter(10000, seed=6)
    res = find_dense_boxes(ps, 0.1, 4)
    # box_id assigns each point at most one box by construction; verify
    # ids are contiguous 0..n_boxes-1.
    used = np.unique(res.box_id[res.box_id >= 0])
    assert len(used) == res.n_boxes
    if res.n_boxes:
        assert used.min() == 0 and used.max() == res.n_boxes - 1


def test_subdivision_count_reported():
    ps = gaussian_blobs(1000, centers=2, spread=0.2, seed=7)
    res = find_dense_boxes(ps, 0.5, 5)
    assert res.n_subdivisions >= 1


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(50, 400),
    eps=st.floats(0.2, 2.0),
    minpts=st.integers(2, 12),
    seed=st.integers(0, 1000),
)
def test_property_box_invariants(n, eps, minpts, seed):
    """For random blobby data: members mutually within eps, count >= minpts."""
    rng = np.random.default_rng(seed)
    ps = PointSet.from_coords(rng.normal(scale=eps, size=(n, 2)))
    res = find_dense_boxes(ps, eps, minpts)
    eps2 = eps * eps + 1e-12
    for box in range(res.n_boxes):
        members = res.members(box)
        assert len(members) >= minpts
        coords = ps.coords[members]
        d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        assert np.all(d2 <= eps2)


# ---------------------------------------------------------------------- #
# The box set as a function of (points, eps)
# ---------------------------------------------------------------------- #


def _blobby(seed, n=1500, eps=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(8, 2))
    coords = centers[rng.integers(0, 8, size=n)] + rng.normal(0, eps, (n, 2))
    return PointSet.from_coords(coords)


def _boxes(points, eps, minpts):
    """The partition as a set of frozensets of point indices."""
    res = find_dense_boxes(points, eps, minpts)
    return {frozenset(res.members(b).tolist()) for b in range(res.n_boxes)}


def test_tree_is_the_global_grid():
    ps = _blobby(0)
    tree = build_densebox_tree(ps, 0.3, 5)
    assert isinstance(tree, FlatTree)
    assert tree.cell_width == densebox_edge(0.3)
    cells = np.floor(ps.coords / densebox_edge(0.3)).astype(np.int64)
    _, want = np.unique(cells, axis=0, return_inverse=True)
    # Same grouping of points into cells, whatever the numbering.
    pairs = set(zip(tree.point_leaf.tolist(), want.ravel().tolist()))
    assert len(pairs) == tree.n_leaf_boxes == int(want.max()) + 1


@pytest.mark.parametrize("seed", range(4))
def test_boxes_invariant_under_point_permutation(seed):
    ps = _blobby(seed)
    perm = np.random.default_rng(seed + 50).permutation(len(ps))
    shuffled = PointSet.from_coords(ps.coords[perm])
    want = _boxes(ps, 0.3, 6)
    got = {frozenset(perm[list(box)].tolist()) for box in _boxes(shuffled, 0.3, 6)}
    assert want and got == want


def test_boxes_numbered_in_morton_order_of_their_cells():
    ps = _blobby(3)
    tree = build_densebox_tree(ps, 0.3, 6)
    res = find_dense_boxes(ps, 0.3, 6, tree=tree)
    cell_of_box = [int(tree.point_leaf[res.members(b)[0]]) for b in range(res.n_boxes)]
    assert cell_of_box == sorted(cell_of_box)


@pytest.mark.parametrize("seed", range(4))
def test_subset_boxes_are_contained_in_whole_boxes(seed):
    """A leaf sees a subset of the input: whatever it boxes, the whole
    input boxes too (the witness oracle and incremental ingest lean on it)."""
    ps = _blobby(seed)
    rng = np.random.default_rng(seed + 90)
    keep = np.flatnonzero(rng.random(len(ps)) < 0.6)
    whole = find_dense_boxes(ps, 0.3, 6)
    part = find_dense_boxes(PointSet.from_coords(ps.coords[keep]), 0.3, 6)
    assert part.n_boxes > 0
    assert np.all(whole.box_id[keep[part.box_id >= 0]] >= 0)
    for b in range(part.n_boxes):
        inside = whole.box_id[keep[part.members(b)]]
        assert len(set(inside.tolist())) == 1  # one subset box, one whole box


def test_whole_cell_translation_and_exact_scaling_map_boxes_to_boxes():
    """Scaling points and eps by a power of two is exact in floating point,
    so every ``floor(coord / edge)`` is unchanged; so is the cell of a
    point well inside its cell when everything moves by whole cells."""
    eps, minpts = 0.25, 5
    edge = densebox_edge(eps)
    rng = np.random.default_rng(7)
    # Eighth-of-a-cell lattice, half a step off the cell edges: no rounding
    # in ``coord / edge`` can carry a point across one.
    steps = rng.integers(0, 64, size=(1200, 2)) // rng.integers(1, 5, size=(1200, 1)) + 0.5
    ps = PointSet.from_coords(steps * (edge / 8.0))
    want = _boxes(ps, eps, minpts)
    assert want
    for scale in (0.5, 4.0):
        assert _boxes(PointSet.from_coords(ps.coords * scale), eps * scale, minpts) == want
    moved = PointSet.from_coords((steps + np.array([8 * 5, -8 * 3])) * (edge / 8.0))
    assert _boxes(moved, eps, minpts) == want


def test_cell_of_exact_duplicates():
    ps = PointSet.from_coords(np.vstack([np.full((7, 2), 3.21), [[9.0, 9.0]]]))
    res = find_dense_boxes(ps, 0.5, 7)
    assert res.n_boxes == 1 and res.members(0).tolist() == list(range(7))
    assert find_dense_boxes(ps, 0.5, 8).n_boxes == 0


def test_minpts_one_boxes_every_point():
    ps = uniform_noise(300, box=(0, 0, 50, 50), seed=8)
    res = find_dense_boxes(ps, 0.5, 1)
    assert res.n_eliminated == len(ps)
    assert res.n_boxes == res.n_subdivisions == build_densebox_tree(ps, 0.5).n_leaf_boxes


def test_points_exactly_on_cell_edges_belong_to_the_upper_cell():
    """Cells are half-open, ``[k·edge, (k+1)·edge)``: a point on an edge
    counts for the cell it opens, never for both."""
    eps = 2.0 * np.sqrt(2.0)  # edge == 2 up to rounding; use the real one
    edge = densebox_edge(eps)
    inside = np.array([[0.25, 0.25], [0.5, 0.75], [0.75, 0.5]]) * edge
    on_edge = np.array([[1.0, 0.5], [1.0, 0.25]]) * edge  # x == edge exactly
    ps = PointSet.from_coords(np.vstack([inside, on_edge]))
    assert find_dense_boxes(ps, eps, 4).n_boxes == 0  # 3 + 2, not 5
    res = find_dense_boxes(ps, eps, 3)
    assert res.n_boxes == 1 and res.members(0).tolist() == [0, 1, 2]
    res = find_dense_boxes(ps, eps, 2)
    assert res.n_boxes == 2 and res.members(1).tolist() == [3, 4]


@pytest.mark.parametrize("make, eps", [(generate_twitter, 0.1), (_blobby, 0.3)])
def test_pairwise_within_eps_with_no_tolerance(make, eps):
    """The tight-extent test makes the engines' own ``d² <= eps²`` hold
    for every pair of every box, exactly."""
    ps = make(5) if make is _blobby else make(20000, seed=5)
    res = find_dense_boxes(ps, eps, 4)
    assert res.n_boxes > 50
    for box in range(res.n_boxes):
        c = ps.coords[res.members(box)]
        dx = c[:, None, 0] - c[None, :, 0]
        dy = c[:, None, 1] - c[None, :, 1]
        assert np.all(dx * dx + dy * dy <= eps * eps)


def test_box_wider_than_eps_by_rounding_is_not_dense():
    """A populous cell whose members' extent fails ``d² <= eps²`` is no
    box, whatever the cell geometry promised."""
    ps = PointSet.from_coords(np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]))
    tree = FlatTree(ps.coords, 1.0)  # one cell, as if eps/√2 were 1
    assert find_dense_boxes(ps, 0.5, 4, tree=tree).n_boxes == 1  # diagonal 0.424
    assert find_dense_boxes(ps, 0.4, 4, tree=tree).n_boxes == 0


def test_twitter_elimination_is_what_the_paper_shows():
    """§3.2.3 / Fig 9: at MinPts 4 most of the Twitter points sit in dense
    boxes, and the share falls as MinPts rises."""
    ps = generate_twitter(60_000, seed=0)
    fracs = [find_dense_boxes(ps, 0.1, m).eliminated_fraction(len(ps)) for m in (4, 40, 400)]
    assert fracs[0] >= 0.6
    assert fracs[0] >= fracs[1] >= fracs[2]
