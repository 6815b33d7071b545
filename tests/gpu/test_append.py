"""The append path equals a full leaf pass on every grown view.

:func:`repro.gpu.append.mrscan_gpu_append` brings a leaf's output up to
its view plus inserted rows; the contract is byte equality with
:func:`repro.gpu.mrscan_gpu` on the new view — labels, core mask, and the
claim set with d².  Each draw is a chain of one to five insertions at
random view positions, each step appending to the previous step's output;
each step's summary, searched for representatives among the last
summary's and the rows that became core, equals the full search's column
for column.  Tier 1 runs the pinned examples (one per adversarial shape)
and five derandomized draws; ``MRSCAN_FUZZ=1 pytest -m fuzz`` runs 150.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.gpu import mrscan_gpu
from repro.gpu.append import mrscan_gpu_append
from repro.gpu.densebox import densebox_edge
from repro.merge.summary import summarize_leaf
from repro.points import PointSet

pytestmark = pytest.mark.fuzz
fuzz_settings = settings(
    max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 5,
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
)

SHAPES = (
    "blobs", "cell_edges", "eps_apart", "duplicates", "promote", "bridge", "far",
    "merge_in_cell", "tie", "claims_only",
)


def _claim_set(claims: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((claims[:, 1], claims[:, 0]))
    return claims[order], d2[order]


def _lattice(rng, n: int, eps: float) -> np.ndarray:
    """Points on the edges of both grids (Eps-cells and dense-box cells)."""
    steps = np.concatenate((np.arange(12) * eps / 2, np.arange(12) * densebox_edge(eps)))
    return rng.choice(steps, size=(n, 2))


def _base(shape: str, rng, eps: float, minpts: int) -> np.ndarray:
    blobs = rng.normal(0, 2 * eps, size=(60, 2)) + rng.choice([0.0, 6 * eps], size=(60, 1))
    if shape == "cell_edges":
        return np.concatenate((_lattice(rng, 80, eps), blobs[:20]))
    if shape == "promote":
        # A core point at the origin (its clump half an Eps behind it) and
        # a border point at 0.9 eps that sees only that core.
        clump = [-0.5 * eps, 0.0] + rng.normal(0, 0.01 * eps, size=(max(minpts - 1, 1), 2))
        return np.concatenate((clump, [[0.0, 0.0], [0.9 * eps, 0.0]], blobs + 10 * eps))
    if shape == "bridge":
        # Two clumps 1.8 eps apart: core points between them join them.
        clump = rng.normal(0, 0.01 * eps, size=(max(minpts, 2), 2))
        return np.concatenate((clump, clump + [1.8 * eps, 0.0], blobs + 10 * eps))
    if shape == "merge_in_cell":
        # Two clumps in opposite corners of one Eps cell, 1.36 eps apart.
        clump = rng.uniform(0.01 * eps, 0.03 * eps, size=(max(minpts, 2), 2))
        return np.concatenate((clump, clump + 0.95 * eps, blobs + 10 * eps))
    if shape == "tie":
        # Every third point twice: old rows that tie each other.
        return np.concatenate((blobs, blobs[::3]))
    if shape == "claims_only":
        # A clump, a core 0.5 eps ahead of it and a border 0.9 eps ahead of
        # that, alone in the next Eps cell along x.
        clump = [0.1 * eps, 0.5 * eps] + rng.normal(0, 0.01 * eps, size=(max(minpts - 1, 1), 2))
        ahead = [[0.6 * eps, 0.5 * eps], [1.5 * eps, 0.5 * eps]]
        return np.concatenate((clump, ahead, blobs + 10 * eps))
    return blobs


def _batch(shape: str, step: int, rng, eps: float, minpts: int, view: np.ndarray) -> np.ndarray:
    k = int(rng.integers(1, 12))
    if shape == "cell_edges":
        return _lattice(rng, k, eps)
    if shape == "eps_apart":
        # Exactly Eps from resident points, along an axis or a 3-4-5 diagonal.
        at = view[rng.integers(0, len(view), size=k)]
        offsets = np.array([[eps, 0.0], [0.0, -eps], [0.6 * eps, 0.8 * eps], [-eps, 0.0]])
        return at + offsets[rng.integers(0, len(offsets), size=k)]
    if shape == "duplicates":
        return view[rng.integers(0, len(view), size=k)]
    if shape == "promote" and step == 0:
        # Just enough neighbours beside the border point to make it core.
        return [1.5 * eps, 0.0] + rng.normal(0, 0.01 * eps, size=(max(minpts - 2, 1), 2))
    if shape == "bridge" and step == 0:
        return [0.9 * eps, 0.0] + rng.normal(0, 0.01 * eps, size=(minpts, 2))
    if shape == "far" and step == 0:
        return np.array([[1000.0 * eps, -1000.0 * eps]])
    if shape == "merge_in_cell" and step == 0:
        # Cores in the middle of the cell join the two clumps.
        return 0.5 * eps + rng.uniform(-0.02 * eps, 0.02 * eps, size=(max(minpts, 2), 2))
    if shape == "tie":
        # A copy of every row at step 0, so every old representative ties.
        return view.copy() if step == 0 else view[rng.integers(0, len(view), size=k)]
    if shape == "claims_only" and step == 0:
        # A noise point beside the border: its cell still holds no core.
        return np.array([[1.9 * eps, 0.5 * eps]])
    return rng.normal(0, 2 * eps, size=(k, 2)) + rng.choice([0.0, 6 * eps], size=(k, 1))


def _insert(shape: str, rng, n_old: int, n: int) -> np.ndarray:
    """Rows of the new view that the old view's rows land on, ascending.
    A ``tie`` batch leads the view, as resident rows that adoption
    merges into a shadow can: its copies come before what they copy."""
    if shape == "tie":
        return np.arange(n - n_old, n)
    return np.sort(rng.choice(n, size=n_old, replace=False))


def _owned(points: PointSet, eps: float) -> set:
    """Every other row's Eps cell: owned cells with and without non-core rows."""
    return {tuple(c) for c in np.floor(points.coords[::2] / eps).astype(np.int64)}


def _summary(points: PointSet, result, eps: float, candidates=None):
    return summarize_leaf(
        0, points, result.labels, result.core_mask, eps, _owned(points, eps),
        claims=result.claims, candidates=candidates,
    )


def _candidates(old_summary, order: np.ndarray, old_core: np.ndarray, core: np.ndarray):
    """The last summary's representatives (ids are view rows here) and the
    rows core now but not before."""
    was_core = np.zeros(len(core), dtype=bool)
    was_core[order] = old_core
    return np.union1d(order[old_summary.rep_ids], np.flatnonzero(core & ~was_core))


def _assert_same_summary(got, want) -> None:
    for f, g, w in zip(fields(got), got.columns(), want.columns()):
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f.name
        else:
            assert g == w, f.name


def _assert_equal(got, want) -> None:
    assert got.core_mask.tobytes() == want.core_mask.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    g_claims, g_d2 = _claim_set(got.claims, got.claim_d2)
    w_claims, w_d2 = _claim_set(want.claims, want.claim_d2)
    assert g_claims.tobytes() == w_claims.tobytes()
    assert g_d2.tobytes() == w_d2.tobytes()


@fuzz_settings
@given(
    seed=st.integers(0, 2**16),
    shape=st.sampled_from(SHAPES),
    eps=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
    minpts=st.integers(1, 8),
    steps=st.integers(1, 5),
    use_densebox=st.booleans(),
)
@example(seed=1, shape="cell_edges", eps=0.1, minpts=4, steps=5, use_densebox=True)
@example(seed=2, shape="eps_apart", eps=0.3, minpts=3, steps=4, use_densebox=True)
@example(seed=3, shape="duplicates", eps=0.25, minpts=5, steps=3, use_densebox=False)
@example(seed=4, shape="promote", eps=0.25, minpts=6, steps=2, use_densebox=True)
@example(seed=5, shape="bridge", eps=0.25, minpts=4, steps=2, use_densebox=True)
@example(seed=6, shape="far", eps=1.0, minpts=2, steps=2, use_densebox=True)
@example(seed=7, shape="merge_in_cell", eps=0.25, minpts=4, steps=2, use_densebox=True)
@example(seed=8, shape="tie", eps=0.3, minpts=3, steps=3, use_densebox=False)
@example(seed=9, shape="claims_only", eps=0.25, minpts=5, steps=2, use_densebox=True)
def test_append_chain_equals_a_full_pass(seed, shape, eps, minpts, steps, use_densebox):
    rng = np.random.default_rng(seed)
    view = _base(shape, rng, eps, minpts)
    prior = mrscan_gpu(PointSet.from_coords(view), eps, minpts)
    summary = _summary(PointSet.from_coords(view), prior, eps)
    for step in range(steps):
        batch = np.asarray(_batch(shape, step, rng, eps, minpts, view), dtype=np.float64)
        # The batch's rows land at random positions of the new view.
        n = len(view) + len(batch)
        order = _insert(shape, rng, len(view), n)
        inserted = np.ones(n, dtype=bool)
        inserted[order] = False
        new_view = np.empty((n, 2))
        new_view[order] = view
        new_view[inserted] = batch
        points = PointSet.from_coords(new_view)
        got = mrscan_gpu_append(
            points, eps, minpts, old_rows=order, labels=prior.labels,
            core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
            use_densebox=use_densebox,
        )
        want = mrscan_gpu(points, eps, minpts, use_densebox=use_densebox)
        _assert_equal(got, want)
        candidates = _candidates(summary, order, prior.core_mask, got.core_mask)
        summary = _summary(points, got, eps, candidates)
        _assert_same_summary(summary, _summary(points, want, eps))
        view, prior = new_view, got


def test_the_pinned_shapes_do_what_they_say():
    """The promote draw promotes a border to a representative, the bridge
    and merge-in-cell draws join two components (the latter inside one
    Eps cell), the far draw inserts a noise point, the tie draw's leading
    copies displace every representative they tie, and the claims-only
    draw keeps a cell of the cluster with claims but no core."""
    eps, minpts = 0.25, 4
    # Row minpts is the promote draw's border point (after minpts - 1
    # clump rows and the core), and the merge draws' second clump's first.
    for shape, check in (
        ("promote", lambda old, new, old_summary, summary, at: (
            not old.core_mask[minpts] and new.core_mask[at[minpts]]
            and at[minpts] in summary.rep_ids
        )),
        ("bridge", lambda old, new, old_summary, summary, at: (
            old.labels[0] != old.labels[minpts] and new.labels[at[0]] == new.labels[at[minpts]]
        )),
        ("merge_in_cell", lambda old, new, old_summary, summary, at: (
            old.labels[0] != old.labels[minpts] and new.labels[at[0]] == new.labels[at[minpts]]
        )),
        ("far", lambda old, new, old_summary, summary, at: new.labels[-1] == -1),
        ("tie", lambda old, new, old_summary, summary, at: (
            len(summary.rep_ids) >= len(old_summary.rep_ids) > 0
            and not np.isin(summary.rep_ids, at).any()
        )),
        ("claims_only", lambda old, new, old_summary, summary, at: all(
            ((s.n_rep == 0) & (s.n_noncore > 0)).any() for s in (old_summary, summary)
        )),
    ):
        rng = np.random.default_rng(7)
        view = _base(shape, rng, eps, minpts)
        old = mrscan_gpu(PointSet.from_coords(view), eps, minpts)
        batch = np.asarray(_batch(shape, 0, rng, eps, minpts, view), dtype=np.float64)
        n = len(view) + len(batch)
        at = _insert(shape, rng, len(view), n) if shape == "tie" else np.arange(len(view))
        grown = np.empty((n, 2))
        grown[at] = view
        grown[np.setdiff1d(np.arange(n), at)] = batch
        points = PointSet.from_coords(grown)
        new = mrscan_gpu_append(
            points, eps, minpts, old_rows=at, labels=old.labels, core_mask=old.core_mask,
            claims=old.claims, claim_d2=old.claim_d2,
        )
        old_summary = _summary(PointSet.from_coords(view), old, eps)
        summary = _summary(points, new, eps)
        assert check(old, new, old_summary, summary, at), shape


def test_prior_arrays_are_only_read():
    rng = np.random.default_rng(11)
    view = rng.normal(0, 0.5, size=(300, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.2, 5)
    copies = [a.copy() for a in (prior.labels, prior.core_mask, prior.claims, prior.claim_d2)]
    grown = np.concatenate((view, rng.normal(0, 0.5, size=(40, 2))))
    mrscan_gpu_append(
        PointSet.from_coords(grown), 0.2, 5, old_rows=np.arange(300), labels=prior.labels,
        core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
    )
    for before, after in zip(copies, (prior.labels, prior.core_mask, prior.claims, prior.claim_d2)):
        assert before.tobytes() == after.tobytes()


def test_stats_count_the_sub_view_work():
    """An append's stats describe the whole view (points, cores) but charge
    only the distances it evaluated, far fewer than a full pass's model."""
    rng = np.random.default_rng(12)
    view = rng.normal(0, 1.0, size=(4000, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.1, 5)
    # One row in the dense middle (a dense box settles it), two on the
    # sparse rim (counted).
    grown = np.concatenate((view, [[0.0, 0.0], [2.5, 0.0], [2.55, 0.0]]))
    points = PointSet.from_coords(grown)
    got = mrscan_gpu_append(
        points, 0.1, 5, old_rows=np.arange(4000), labels=prior.labels,
        core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
    )
    full = mrscan_gpu(points, 0.1, 5)
    assert got.stats.n_points == full.stats.n_points == 4003
    assert got.stats.n_core == full.stats.n_core
    assert 0 < got.stats.total_distance_ops < full.stats.total_distance_ops / 20
    assert got.stats.sync_round_trips == full.stats.sync_round_trips == 2


def test_a_view_too_wide_to_key_is_refused_alike():
    """A far row that leaves the full pass's dense-box tree without Morton
    bits makes both paths raise the same error type."""
    from repro.errors import ConfigError

    view = np.random.default_rng(13).normal(0, 0.5, size=(50, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.2, 4)
    grown = PointSet.from_coords(np.concatenate((view, [[1e9, 0.0]])))
    with pytest.raises(ConfigError):
        mrscan_gpu(grown, 0.2, 4)
    with pytest.raises(ConfigError):
        mrscan_gpu_append(
            grown, 0.2, 4, old_rows=np.arange(50), labels=prior.labels,
            core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
        )
