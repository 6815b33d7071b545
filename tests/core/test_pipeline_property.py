"""Property-based end-to-end tests: Mr. Scan ≡ exact DBSCAN, whatever the tree.

For random mixtures of blobs, rings and noise, at random eps/minpts/leaf
count/topology, the pipeline must agree with exact DBSCAN on the core set,
the core partition and border validity (the ``mixture`` slice of the
differential in ``tests/validate/test_fuzz.py``); it is also held to itself
across leaf counts and to a total labelling.
"""

from __future__ import annotations

import numpy as np
from fuzz_cases import assert_matches_reference, fuzz_cases
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.pipeline import mrscan
from repro.dbscan.labels import clustering_signature, core_sets_equal
from repro.points import NOISE, PointSet


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzz_cases(("mixture",)))
def test_property_pipeline_matches_reference(case):
    assert_matches_reference(case)


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
    """The clustering must not depend on how many leaves computed it.  A
    dense box is decided on the eps/√2 cells as each leaf sees them, so a
    cell cut by a shadow edge is a box in one partitioning and not in
    another (the three examples once dropped a border in one of them);
    box members claim their borders, so that moves no label."""
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
    assert core_sets_equal(a.labels, b.labels, a.core_mask, b.core_mask)
    # identical labellings up to cluster renumbering
    assert clustering_signature(a.labels) == clustering_signature(b.labels)
    assert np.array_equal(a.labels == NOISE, b.labels == NOISE)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1000))
def test_property_all_points_labelled_exactly_once(seed):
    """Output covers every input point with exactly one label."""
    rng = np.random.default_rng(seed)
    points = PointSet.from_coords(rng.uniform(0, 6, size=(300, 2)))
    res = mrscan(points, 0.5, 4, n_leaves=5)
    assert len(res.labels) == len(points)
    assert res.n_noise + sum(res.cluster_sizes().values()) == len(points)
    assert set(np.unique(res.labels)) <= set(range(res.n_clusters)) | {NOISE}
