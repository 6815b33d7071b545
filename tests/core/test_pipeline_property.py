"""Property-based end-to-end tests: Mr. Scan ≡ exact DBSCAN on cores.

The headline correctness invariant, fuzzed: for random mixtures of blobs,
rings and noise, at random eps/minpts/leaf-count/topology, the pipeline's
output must agree with exact single-CPU DBSCAN on (a) the core-point set,
(b) the partition of core points into clusters, and (c) border validity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.pipeline import mrscan
from repro.data import gaussian_blobs, ring_cluster, uniform_noise
from repro.dbscan import GridIndex, dbscan_reference
from repro.dbscan.labels import border_assignment_valid, clustering_signature
from repro.points import NOISE, PointSet
from repro.validate import labels_equivalent


def _core_partition(labels, core_mask):
    groups: dict[int, set[int]] = {}
    for i in np.flatnonzero(core_mask):
        groups.setdefault(int(labels[i]), set()).add(int(i))
    assert NOISE not in groups, "a core point was labelled noise"
    return {frozenset(v) for v in groups.values()}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    n_blobs=st.integers(1, 4),
    with_ring=st.booleans(),
    eps=st.floats(0.15, 0.6),
    minpts=st.integers(2, 12),
    n_leaves=st.integers(1, 12),
    fanout=st.sampled_from([2, 3, 256]),
)
def test_property_pipeline_matches_reference(
    seed, n_blobs, with_ring, eps, minpts, n_leaves, fanout
):
    rng = np.random.default_rng(seed)
    pieces = [
        gaussian_blobs(
            200, centers=n_blobs, spread=0.3, seed=rng.integers(1 << 30)
        ).coords
    ]
    if with_ring:
        pieces.append(
            ring_cluster(
                150,
                center=tuple(rng.uniform(0, 10, 2)),
                radius=2.0,
                thickness=0.1,
                seed=int(rng.integers(1 << 30)),
            ).coords
        )
    pieces.append(uniform_noise(60, seed=int(rng.integers(1 << 30))).coords)
    points = PointSet.from_coords(np.concatenate(pieces))

    ref = dbscan_reference(points, eps, minpts)
    res = mrscan(points, eps, minpts, n_leaves=n_leaves, fanout=fanout)

    assert res.n_clusters == ref.n_clusters
    assert _core_partition(ref.labels, ref.core_mask) == _core_partition(
        res.labels, ref.core_mask
    )
    gi = GridIndex(points, eps)
    assert border_assignment_valid(res.labels, ref.core_mask, gi.neighbors_of)
    # dense-box border loss only: noise flips are rare and one-directional
    # (reference-clustered -> mrscan-noise, never the reverse for cores).
    flips = np.flatnonzero((ref.labels == NOISE) != (res.labels == NOISE))
    assert len(flips) <= max(3, 0.02 * len(points))
    for i in flips:
        assert not ref.core_mask[i]


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    n_leaves_a=st.integers(1, 10),
    n_leaves_b=st.integers(1, 10),
)
@example(seed=307, n_leaves_a=1, n_leaves_b=4)
@example(seed=785, n_leaves_a=10, n_leaves_b=3)
@example(seed=87, n_leaves_a=10, n_leaves_b=5)
def test_property_leaf_count_invariance(seed, n_leaves_a, n_leaves_b):
    """The clustering must not depend on how many leaves computed it —
    except for which borders of box-only cores stay noise: a dense box is
    decided on the eps/√2 cells as each leaf sees them, so a cell cut by
    a shadow edge is a box in one partitioning and not in another (the
    three examples).  Both outputs are exact DBSCAN under the witness
    rule; without dense boxes, or with boxes claiming their borders, the
    labellings are identical."""
    rng = np.random.default_rng(seed)
    points = PointSet.from_coords(
        np.concatenate(
            [
                rng.normal(scale=0.4, size=(150, 2)),
                rng.normal(loc=4.0, scale=0.4, size=(150, 2)),
                rng.uniform(-2, 7, size=(40, 2)),
            ]
        )
    )
    a = mrscan(points, 0.4, 5, n_leaves=n_leaves_a)
    b = mrscan(points, 0.4, 5, n_leaves=n_leaves_b)
    assert np.array_equal(a.core_mask, b.core_mask)
    assert _core_partition(a.labels, a.core_mask) == _core_partition(
        b.labels, b.core_mask
    )
    # A border one run dropped and the other claimed reads "invented" in
    # one direction of a run-vs-run comparison, so both are held to the
    # exact clustering instead.
    ref = dbscan_reference(points, 0.4, 5)
    for run in (a, b):
        report = labels_equivalent(
            points, 0.4, ref.labels, ref.core_mask, run.labels, run.core_mask,
            allow_densebox_noise=True, minpts=5,
        )
        assert report.ok, report.summary()
    for strict in ({"use_densebox": False}, {"claim_box_borders": True}):
        a = mrscan(points, 0.4, 5, n_leaves=n_leaves_a, **strict)
        b = mrscan(points, 0.4, 5, n_leaves=n_leaves_b, **strict)
        # identical labellings up to cluster renumbering
        assert clustering_signature(a.labels) == clustering_signature(b.labels)
        assert np.array_equal(a.labels == NOISE, b.labels == NOISE)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1000), shadow_reps=st.booleans())
def test_property_all_points_labelled_exactly_once(seed, shadow_reps):
    """Output covers every input point with exactly one label."""
    rng = np.random.default_rng(seed)
    points = PointSet.from_coords(rng.uniform(0, 6, size=(300, 2)))
    res = mrscan(
        points, 0.5, 4, n_leaves=5, shadow_representatives=shadow_reps
    )
    assert len(res.labels) == len(points)
    assert res.n_noise + sum(res.cluster_sizes().values()) == len(points)
    assert set(np.unique(res.labels)) <= set(range(res.n_clusters)) | {NOISE}
