"""Unit tests for the relabeling/tie-break-aware equivalence comparator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbscan.reference import dbscan_reference
from repro.points import NOISE, PointSet
from repro.validate import labels_equivalent


def _line(n, spacing=0.5):
    coords = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return PointSet.from_coords(coords)


@pytest.fixture
def clustered():
    """Two separated dense groups + one isolated noise point."""
    rng = np.random.default_rng(5)
    a = rng.normal((0, 0), 0.2, size=(40, 2))
    b = rng.normal((10, 10), 0.2, size=(40, 2))
    lone = np.array([[5.0, 5.0]])
    points = PointSet.from_coords(np.concatenate([a, b, lone]))
    eps = 0.25  # tight enough that each blob keeps a few border points
    ref = dbscan_reference(points, eps, 5)
    return points, eps, ref


def test_identical_labels_equivalent(clustered):
    points, eps, ref = clustered
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, ref.labels, ref.core_mask
    )
    assert rep.ok
    assert rep.summary() == "equivalent"


def test_relabeled_clusters_equivalent(clustered):
    """Cluster numbering is arbitrary: swapping ids 0 and 1 still passes."""
    points, eps, ref = clustered
    relabeled = ref.labels.copy()
    relabeled[ref.labels == 0] = 1
    relabeled[ref.labels == 1] = 0
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, relabeled, ref.core_mask
    )
    assert rep.ok


def test_core_mismatch_fails(clustered):
    points, eps, ref = clustered
    core = ref.core_mask.copy()
    core[int(np.flatnonzero(core)[0])] = False
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, ref.labels, core
    )
    assert not rep.ok
    assert rep.n_core_mismatch == 1


def test_merged_clusters_break_bijection(clustered):
    """Candidate merging both reference clusters into one must fail."""
    points, eps, ref = clustered
    merged = np.where(ref.labels >= 0, 0, NOISE)
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, merged, ref.core_mask
    )
    assert not rep.ok
    assert rep.n_partition_mismatch > 0


def test_clustered_reference_noise_fails(clustered):
    points, eps, ref = clustered
    lone = len(points) - 1
    assert ref.labels[lone] == NOISE
    cand = ref.labels.copy()
    cand[lone] = 0
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask
    )
    assert not rep.ok
    assert any("reference-noise" in f for f in rep.failures)


def test_densebox_noise_tolerated_only_when_allowed(clustered):
    """A ref-clustered border dropped to noise: fails strict, passes with
    allow_densebox_noise within the tolerance."""
    points, eps, ref = clustered
    border = int(np.flatnonzero((ref.labels >= 0) & ~ref.core_mask)[0]) if np.any(
        (ref.labels >= 0) & ~ref.core_mask
    ) else None
    if border is None:
        pytest.skip("dataset produced no border point")
    cand = ref.labels.copy()
    cand[border] = NOISE
    strict = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask
    )
    assert not strict.ok
    lenient = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask,
        allow_densebox_noise=True,
    )
    assert lenient.ok
    assert lenient.n_densebox_noise == 1
    capped = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask,
        allow_densebox_noise=True, max_densebox_noise=0,
    )
    assert not capped.ok


@pytest.fixture
def boxed_and_unboxed():
    """eps 1, MinPts 4.  Points 0-3 fill one eps/√2 cell (a dense box) and
    4-7 are borders that each see exactly one of them; 8-9 are cores in
    cells of their own and 10-11 their borders."""
    coords = np.array([
        [0.05, 0.05], [0.65, 0.05], [0.05, 0.65], [0.65, 0.65],
        [1.6, 0.05], [-0.9, 0.05], [0.05, -0.9], [0.65, 1.6],
        [4.9, 5.0], [5.7, 5.0], [5.3, 5.6], [5.3, 4.4],
    ])
    points = PointSet.from_coords(coords)
    ref = dbscan_reference(points, 1.0, 4)
    assert ref.core_mask.tolist() == [True] * 4 + [False] * 4 + [True] * 2 + [False] * 2
    assert np.all(ref.labels != NOISE)
    return points, ref


def test_box_cores_claim_their_borders(boxed_and_unboxed):
    """The real engine clusters all four borders of the box, which only box
    members reach: strictly equivalent, nothing tolerated."""
    from repro.gpu import mrscan_gpu

    points, ref = boxed_and_unboxed
    got = mrscan_gpu(points, 1.0, 4)
    assert got.densebox.n_boxes == 1
    assert np.all(got.labels[4:8] == got.labels[0])
    report = labels_equivalent(points, 1.0, ref.labels, ref.core_mask, got.labels, got.core_mask)
    assert report.ok and report.n_densebox_noise == 0


def test_legal_border_tiebreak_accepted():
    """A border point equidistant from two clusters may land in either."""
    # Two dense 4-point runs with a lone point (index 4) exactly Eps from
    # one core of each: it has 3 neighbors (< minpts) so it is a border
    # point reachable from both clusters.
    xs = [-0.4, -0.2, 0.0, 0.5, 1.5, 2.5, 3.0, 3.2, 3.4]
    points = PointSet.from_coords(np.column_stack([xs, np.zeros(len(xs))]))
    eps, minpts = 1.0, 4
    ref = dbscan_reference(points, eps, minpts)
    assert ref.labels[4] in (0, 1) and not ref.core_mask[4]
    other = 1 - ref.labels[4]
    cand = ref.labels.copy()
    cand[4] = other
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask
    )
    assert rep.ok
    assert rep.n_tiebreak == 1
    assert "tie-break" in rep.summary()


def test_illegal_border_assignment_rejected(clustered):
    """A border point moved to a cluster with no core within Eps fails."""
    points, eps, ref = clustered
    borders = np.flatnonzero((ref.labels >= 0) & ~ref.core_mask)
    if len(borders) == 0:
        pytest.skip("dataset produced no border point")
    b = int(borders[0])
    cand = ref.labels.copy()
    cand[b] = 1 - cand[b]  # the far-away cluster
    rep = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, cand, ref.core_mask
    )
    assert not rep.ok
    assert any("no core point within Eps" in f for f in rep.failures)


def test_length_mismatch_fails():
    points = _line(4)
    rep = labels_equivalent(
        points, 1.0,
        np.zeros(4, dtype=np.int64), np.ones(4, bool),
        np.zeros(3, dtype=np.int64), np.ones(3, bool),
    )
    assert not rep.ok
