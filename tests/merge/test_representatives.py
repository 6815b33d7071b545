"""Tests for representative-point selection, including the Fig 5 lemma."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MergeError
from merge_reference import select_representatives
from repro.merge.representatives import (
    N_REPRESENTATIVES,
    representative_targets,
    select_representatives_batch,
)


def test_targets_geometry():
    t = representative_targets((0.0, 0.0, 1.0, 1.0))
    assert t.shape == (8, 2)
    corners = {(0, 0), (1, 0), (0, 1), (1, 1)}
    mids = {(0.5, 0), (0.5, 1), (0, 0.5), (1, 0.5)}
    got = {tuple(row) for row in t}
    assert got == corners | mids


def test_selection_bounds():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1, size=(500, 2))
    idx = select_representatives(coords, (0, 0, 1, 1))
    assert 1 <= len(idx) <= N_REPRESENTATIVES
    assert np.array_equal(idx, np.unique(idx))


def test_selection_empty():
    assert len(select_representatives(np.empty((0, 2)), (0, 0, 1, 1))) == 0


def test_selection_single_point():
    idx = select_representatives(np.array([[0.5, 0.5]]), (0, 0, 1, 1))
    assert np.array_equal(idx, [0])


def test_selection_rejects_bad_shape():
    with pytest.raises(MergeError):
        select_representatives(np.zeros((3, 3)), (0, 0, 1, 1))


def test_selection_prefers_extremes():
    """Points hugging the corners beat interior points."""
    coords = np.array(
        [[0.01, 0.01], [0.99, 0.01], [0.01, 0.99], [0.99, 0.99], [0.5, 0.5]]
    )
    idx = select_representatives(coords, (0, 0, 1, 1))
    assert {0, 1, 2, 3} <= set(idx.tolist())


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    eps=st.floats(0.1, 10.0),
    n_a=st.integers(1, 40),
    n_b=st.integers(1, 40),
)
def test_property_fig5_lemma(data, eps, n_a, n_b):
    """Fig 5: if two clusters share a core point in a grid cell, then some
    representative of A is within Eps of some representative of B.

    We model cluster core-point sets A and B inside one Eps cell with a
    shared point, pick representatives for both, and check the merge rule's
    detection distance.
    """
    cell = (0.0, 0.0, eps, eps)
    draw_pt = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    a_pts = np.array(data.draw(st.lists(draw_pt, min_size=n_a, max_size=n_a))) * eps
    b_pts = np.array(data.draw(st.lists(draw_pt, min_size=n_b, max_size=n_b))) * eps
    shared = np.array(data.draw(draw_pt)) * eps
    a_all = np.vstack([a_pts, shared])
    b_all = np.vstack([b_pts, shared])
    rep_a = a_all[select_representatives(a_all, cell)]
    rep_b = b_all[select_representatives(b_all, cell)]
    d2 = (
        (rep_a[:, 0][:, None] - rep_b[:, 0][None, :]) ** 2
        + (rep_a[:, 1][:, None] - rep_b[:, 1][None, :]) ** 2
    )
    assert np.min(d2) <= eps * eps + 1e-9, "Fig 5 lemma violated"


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=12),
    eps=st.sampled_from([0.5, 0.3, 1e-3, 7.0]),
    lattice=st.booleans(),
)
def test_property_batch_equals_scalar_per_segment(seed, sizes, eps, lattice):
    """All segments in eight passes pick exactly what one call per cell
    picks — ties (common on the lattice draws) included."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(-4, 5, size=(len(sizes), 2))
    bounds = np.concatenate((cells * eps, (cells + 1) * eps), axis=1)
    unit = rng.integers(0, 5, size=(sum(sizes), 2)) / 4 if lattice else rng.random((sum(sizes), 2))
    coords = (np.repeat(cells, sizes, axis=0) + unit) * eps
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    chosen = select_representatives_batch(coords, starts, bounds)
    assert chosen.shape == (len(sizes), N_REPRESENTATIVES) and chosen.dtype == np.int64
    for row, s, size, b in zip(chosen, starts, sizes, bounds):
        want = select_representatives(coords[s : s + size], tuple(b))
        assert np.array_equal(np.unique(row) - s, want)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parts=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    n_new=st.integers(0, 10),
    eps=st.sampled_from([0.5, 1e-3, 7.0]),
    lattice=st.booleans(),
    tie_before=st.booleans(),
)
def test_property_union_representatives_come_from_the_parts(
    seed, parts, n_new, eps, lattice, tie_before
):
    """Each target's nearest point over a union is the nearest of one part,
    and the lowest row among equals is the lowest of its part: selecting
    over the parts' representatives plus the new points picks exactly what
    selecting over every point picks.  A new copy of one representative
    sits right before or right after it, so it ties that representative
    at every target."""
    rng = np.random.default_rng(seed)
    cell = rng.integers(-4, 5, size=2)
    bounds = np.concatenate((cell * eps, (cell + 1) * eps))[None]
    n = sum(parts) + n_new
    unit = rng.integers(0, 5, size=(n, 2)) / 4 if lattice else rng.random((n, 2))
    coords = (cell + unit) * eps
    # Part of every row (-1: new), shuffled into one view.
    part = np.concatenate((np.repeat(np.arange(len(parts)), parts), np.full(n_new, -1)))
    shuffle = rng.permutation(len(part))
    coords, part = coords[shuffle], part[shuffle]

    def reps_of(rows: np.ndarray) -> np.ndarray:
        return rows[select_representatives_batch(coords[rows], [0], bounds)[0]]

    reps = np.concatenate([reps_of(np.flatnonzero(part == p)) for p in range(len(parts))])
    tied = int(rng.choice(reps))
    at = tied if tie_before else tied + 1
    coords = np.insert(coords, at, coords[tied], axis=0)
    part = np.insert(part, at, -1)
    reps = reps + (reps >= at)  # the rows after the copy moved down one
    candidates = np.union1d(reps, np.flatnonzero(part == -1))
    assert np.array_equal(reps_of(candidates), reps_of(np.arange(len(part))))


def test_batch_selection_degenerate_inputs():
    none = select_representatives_batch(np.empty((0, 2)), [], np.empty((0, 4)))
    assert none.shape == (0, N_REPRESENTATIVES)
    with pytest.raises(MergeError):
        select_representatives_batch(np.zeros((3, 3)), [0], [(0, 0, 1, 1)])
    with pytest.raises(MergeError):  # an empty segment has no nearest point
        select_representatives_batch(np.zeros((3, 2)), [0, 2, 2], [(0, 0, 1, 1)] * 3)
    with pytest.raises(MergeError):
        select_representatives_batch(np.zeros((3, 2)), [0, 2], [(0, 0, 1, 1)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), eps=st.floats(0.1, 10.0))
def test_property_every_point_within_halfeps_of_anchor(data, eps):
    """The covering-radius half of the lemma: any point of an Eps cell is
    within eps/2 of one of the eight anchors."""
    pt = np.array(data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))) * eps
    targets = representative_targets((0.0, 0.0, eps, eps))
    d = np.min(np.hypot(targets[:, 0] - pt[0], targets[:, 1] - pt[1]))
    assert d <= eps / 2 + 1e-9


def _coverage_radius(pts: np.ndarray, cell) -> np.ndarray:
    """Distance from each point to its nearest selected representative."""
    idx = select_representatives(pts, cell)
    assert 1 <= len(idx) <= N_REPRESENTATIVES
    reps = pts[idx]
    d2 = (
        (pts[:, 0][:, None] - reps[:, 0][None, :]) ** 2
        + (pts[:, 1][:, None] - reps[:, 1][None, :]) ** 2
    )
    return np.sqrt(np.min(d2, axis=1))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    eps=st.floats(0.05, 20.0),
    n=st.integers(1, 80),
)
def test_property_direct_fig5_coverage(data, eps, n):
    """The Fig 5 lemma stated directly: *every* point of the cell is within
    Eps of some selected representative (the anchors' eps/2 covering radius
    plus the selection rule's eps/2 slack)."""
    cell = (0.0, 0.0, eps, eps)
    draw_pt = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    pts = np.array(data.draw(st.lists(draw_pt, min_size=n, max_size=n))) * eps
    assert np.all(_coverage_radius(pts, cell) <= eps + 1e-9)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    eps=st.floats(0.1, 5.0),
    n=st.integers(2, 50),
)
def test_property_collinear_cell(data, eps, n):
    """Degenerate cell: all points on one line segment still satisfy the
    bound and the coverage lemma."""
    t = np.sort(np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
    x0, y0 = data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    x1, y1 = data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    pts = np.column_stack(
        [(x0 + t * (x1 - x0)) * eps, (y0 + t * (y1 - y0)) * eps]
    )
    cell = (0.0, 0.0, eps, eps)
    assert np.all(_coverage_radius(pts, cell) <= eps + 1e-9)


def test_all_duplicate_points_collapse_to_one_representative():
    """Degenerate cell: n identical points need exactly one representative,
    which trivially covers them all."""
    pts = np.tile([[0.37, 0.61]], (25, 1))
    idx = select_representatives(pts, (0, 0, 1, 1))
    assert np.array_equal(idx, [0])
    assert np.all(_coverage_radius(pts, (0, 0, 1, 1)) == 0.0)


def test_single_point_covers_itself():
    pts = np.array([[0.93, 0.08]])
    assert np.all(_coverage_radius(pts, (0, 0, 1, 1)) == 0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_representative_close_to_anchor_when_point_is(data):
    """If some cluster point is within eps/2 of an anchor, the chosen
    representative for that anchor is at most as far."""
    eps = 1.0
    draw_pt = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    pts = np.array(data.draw(st.lists(draw_pt, min_size=1, max_size=30)))
    targets = representative_targets((0, 0, eps, eps))
    idx = select_representatives(pts, (0, 0, eps, eps))
    reps = pts[idx]
    for t in targets:
        d_all = np.min(np.hypot(pts[:, 0] - t[0], pts[:, 1] - t[1]))
        d_rep = np.min(np.hypot(reps[:, 0] - t[0], reps[:, 1] - t[1]))
        assert d_rep <= d_all + 1e-12
