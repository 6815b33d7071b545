"""``sweep_gather`` vs ``sweep_leaf`` + ``combine_leaf_outputs``, and both
vs the rule written out point by point.

Each case scatters ``n`` points over leaves (every point owned once), gives
each leaf a shadow of points other leaves own and random local labels,
and maps every local cluster to one of a few global ids, so shadow views
contest owner-noise points with different ids.  The gather (one table,
one claim pass) must give the labels, the core mask and the per-leaf
results the per-leaf path gives, and both must keep the owner's label and
otherwise adopt the smallest claimed id.

Tier 1 runs the pinned example and 25 derandomized draws;
``MRSCAN_FUZZ=1 pytest -m fuzz`` runs 150.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import MergeError
from repro.merge import GlobalIdAssignment
from repro.points import NOISE, PointSet
from repro.sweep import (
    combine_core_masks, combine_leaf_outputs, cut_leaf, sweep_gather, sweep_leaf,
)


def _case(seed, n, n_leaves, n_gids, noise_share, empty_leaf, bare_shadow):
    """Leaves as ``(leaf_id, owned_ids, shadow_ids, labels, core)``, and the
    assignment.  Leaf 0 has no cluster when ``empty_leaf``; the last leaf
    has no shadow when ``bare_shadow``."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, n_leaves, size=n)
    leaves, keys, gids = [], [], []
    for leaf in range(n_leaves):
        owned = np.flatnonzero(owner == leaf)
        others = np.flatnonzero(owner != leaf)
        shadow = rng.permutation(others)[: rng.integers(0, len(others) + 1)]
        if bare_shadow and leaf == n_leaves - 1:
            shadow = shadow[:0]
        n_view = len(owned) + len(shadow)
        n_local = 0 if empty_leaf and leaf == 0 else int(rng.integers(0, 5))
        labels = rng.integers(0, max(n_local, 1), size=n_view)
        labels[(rng.random(n_view) < noise_share) | (n_local == 0)] = NOISE
        leaves.append((leaf, owned, shadow, labels, rng.random(n_view) < 0.5))
        keys += [(leaf, local) for local in range(n_local)]
        gids += rng.integers(0, n_gids, size=n_local).tolist()
    assignment = GlobalIdAssignment(
        np.array(keys, dtype=np.int64).reshape(-1, 2), np.array(gids, dtype=np.int64), n_gids
    )
    return leaves, assignment


def _rule(leaves, assignment, n):
    """Owner label, else the smallest claim, else NOISE — point by point."""
    to_global = assignment.mapping
    owned, claims = {}, {}
    for leaf, own, shadow, labels, _ in leaves:
        for i, point in enumerate(np.concatenate((own, shadow)).tolist()):
            label = NOISE if labels[i] == NOISE else to_global[(leaf, int(labels[i]))]
            if i < len(own):
                owned[point] = label
            elif label != NOISE:
                claims.setdefault(point, []).append(label)
    return np.array([
        owned[p] if owned[p] != NOISE or p not in claims else min(claims[p]) for p in range(n)
    ])


def _check(leaves, assignment, n):
    swept = sweep_gather(
        [cut_leaf(leaf, own, shadow, labels, core) for leaf, own, shadow, labels, core in leaves],
        assignment, n,
    )
    results = [
        sweep_leaf(
            leaf, PointSet(ids=np.concatenate((own, shadow)), coords=np.zeros((len(labels), 2))),
            labels, len(own), assignment.for_leaf(leaf), core_mask=core,
        )
        for leaf, own, shadow, labels, core in leaves
    ]
    assert np.array_equal(swept.labels, combine_leaf_outputs(results, n))
    assert np.array_equal(swept.labels, _rule(leaves, assignment, n))
    assert np.array_equal(swept.core_mask, combine_core_masks(results, n))
    for got, want in zip(swept.results(), results):
        assert got.leaf_id == want.leaf_id
        for field in ("owned_ids", "owned_labels", "claimed_ids", "claimed_labels", "owned_core"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    return swept


PINNED = dict(seed=0, n=60, n_leaves=4, n_gids=2, noise_share=0.5, empty_leaf=True,
              bare_shadow=True)


@pytest.mark.fuzz
@settings(max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    n_leaves=st.integers(1, 6),
    n_gids=st.integers(1, 4),
    noise_share=st.floats(0.0, 1.0),
    empty_leaf=st.booleans(),
    bare_shadow=st.booleans(),
)
@example(**PINNED)
def test_gather_matches_the_per_leaf_sweep(
    seed, n, n_leaves, n_gids, noise_share, empty_leaf, bare_shadow
):
    leaves, assignment = _case(seed, n, n_leaves, n_gids, noise_share, empty_leaf, bare_shadow)
    _check(leaves, assignment, n)


def test_pinned_case_has_every_hard_claim():
    """The pinned example has owner-noise points claimed by two leaves
    with different ids, and ones claimed once; a leaf with no cluster;
    a leaf with no shadow."""
    leaves, assignment = _case(**PINNED)
    _check(leaves, assignment, PINNED["n"])
    to_global = assignment.mapping
    owner_noise, claims = set(), {}
    for leaf, own, shadow, labels, _ in leaves:
        owner_noise |= set(own[labels[: len(own)] == NOISE].tolist())
        for point, label in zip(shadow.tolist(), labels[len(own):].tolist()):
            if label != NOISE:
                claims.setdefault(point, set()).add(to_global[(leaf, label)])
    assert any(len(ids) > 1 for p, ids in claims.items() if p in owner_noise)
    assert any(len(ids) == 1 for p, ids in claims.items() if p in owner_noise)
    assert (leaves[0][3] == NOISE).all()
    assert len(leaves[-1][2]) == 0


def test_gather_rejects_a_local_cluster_without_a_global_id():
    leaves, assignment = _case(**PINNED)
    cuts = [cut_leaf(leaf, own, shadow, labels, core) for leaf, own, shadow, labels, core in leaves]
    with pytest.raises(MergeError, match="no global id"):
        sweep_gather(cuts, GlobalIdAssignment.empty(), PINNED["n"])
