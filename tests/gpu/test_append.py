"""The append path equals a full leaf pass on every grown view.

:func:`repro.gpu.append.mrscan_gpu_append` brings a leaf's output up to
its view plus inserted rows; the contract is byte equality with
:func:`repro.gpu.mrscan_gpu` on the new view — labels, core mask, and the
claim set with d².  Each draw is a chain of one to five insertions at
random view positions, each step appending to the previous step's output and growing its cell
index; after each step the index equals one built from scratch, and the
summary, searched for representatives among the last summary's and the
rows that became core, equals the full search's column for column.  Tier
1 runs the pinned examples (one per adversarial shape) and five
derandomized draws; ``MRSCAN_FUZZ=1 pytest -m fuzz`` runs 150.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from block_reference import assert_fresh_cell_index
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
    "merge_in_cell", "tie", "claims_only", "adopt", "densify", "straddle", "lone",
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
    if shape == "densify":
        # minpts - 1 rows inside one dense-box cell, nothing else near.
        inside = rng.uniform(0.2, 0.8, size=(max(minpts - 1, 1), 2)) * densebox_edge(eps)
        return np.concatenate((inside, blobs + 10 * eps))
    if shape == "straddle":
        # Two clumps 1.9 eps apart along x, two dense-box cells apart.
        clump = [0.1 * eps, 0.35 * eps] + rng.normal(0, 0.005 * eps, size=(max(minpts, 2), 2))
        return np.concatenate((clump, clump + [1.9 * eps, 0.0], blobs + 10 * eps))
    if shape == "lone":
        # One row alone in its cell.
        return np.concatenate(([[0.3 * eps, 0.3 * eps]], blobs + 10 * eps))
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
    if shape == "adopt" and step == 0:
        # Copies, a hair apart, of rows on both sides of the view's middle.
        return view[rng.integers(0, len(view), size=k)] + rng.normal(0, 1e-3 * eps, size=(k, 2))
    if shape == "densify" and step == 0:
        # The rows that make the cell dense.
        return rng.uniform(0.2, 0.8, size=(2, 2)) * densebox_edge(eps)
    if shape == "straddle" and step == 0:
        # A core clump between them, each end within Eps of one clump only.
        x = np.linspace(0.75, 1.35, max(minpts, 2)) * eps
        return np.stack((x, np.full(len(x), 0.35 * eps)), axis=1)
    if shape == "lone" and step == 0:
        # Neighbours in the next cell along x: the lone row becomes core.
        return [1.0 * eps, 0.3 * eps] + rng.normal(0, 0.005 * eps, size=(max(minpts - 1, 1), 2))
    return rng.normal(0, 2 * eps, size=(k, 2)) + rng.choice([0.0, 6 * eps], size=(k, 1))


def _insert(shape: str, rng, n_old: int, n: int) -> np.ndarray:
    """Rows of the new view that the old view's rows land on, ascending.
    A ``tie`` batch leads the view and an ``adopt`` batch sits in its
    middle, as resident rows that adoption merges into a shadow can: a
    copy comes before, or between, what it copies."""
    if shape == "tie":
        return np.arange(n - n_old, n)
    if shape == "adopt":
        half = n_old // 2
        return np.concatenate((np.arange(half), np.arange(n - n_old + half, n)))
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
@example(seed=10, shape="adopt", eps=0.25, minpts=4, steps=2, use_densebox=True)
@example(seed=11, shape="densify", eps=0.3, minpts=5, steps=2, use_densebox=True)
@example(seed=12, shape="straddle", eps=1.0, minpts=4, steps=2, use_densebox=True)
@example(seed=13, shape="lone", eps=0.25, minpts=4, steps=2, use_densebox=False)
def test_append_chain_equals_a_full_pass(seed, shape, eps, minpts, steps, use_densebox):
    rng = np.random.default_rng(seed)
    view = _base(shape, rng, eps, minpts)
    prior = mrscan_gpu(PointSet.from_coords(view), eps, minpts, keep_index=True)
    assert_fresh_cell_index(prior.index, view, eps, prior.core_mask)
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
            index=prior.index, use_densebox=use_densebox,
        )
        want = mrscan_gpu(points, eps, minpts, use_densebox=use_densebox)
        _assert_equal(got, want)
        assert_fresh_cell_index(got.index, new_view, eps, got.core_mask)
        candidates = _candidates(summary, order, prior.core_mask, got.core_mask)
        summary = _summary(points, got, eps, candidates)
        _assert_same_summary(summary, _summary(points, want, eps))
        view, prior = new_view, got


def _grow(shape: str, eps: float, minpts: int, seed: int = 7):
    """One append of a shape's first batch: the old view's full pass,
    the grown view's append, and where the old rows landed."""
    rng = np.random.default_rng(seed)
    view = _base(shape, rng, eps, minpts)
    old = mrscan_gpu(PointSet.from_coords(view), eps, minpts, keep_index=True)
    batch = np.asarray(_batch(shape, 0, rng, eps, minpts, view), dtype=np.float64)
    n = len(view) + len(batch)
    at = _insert(shape, rng, len(view), n) if shape in ("tie", "adopt") else np.arange(len(view))
    grown = np.empty((n, 2))
    grown[at] = view
    grown[np.setdiff1d(np.arange(n), at)] = batch
    points = PointSet.from_coords(grown)
    new = mrscan_gpu_append(
        points, eps, minpts, old_rows=at, labels=old.labels, core_mask=old.core_mask,
        claims=old.claims, claim_d2=old.claim_d2, index=old.index,
    )
    return view, old, points, new, at


def _cell_of(index, xy) -> int:
    return int(index.locate(np.asarray(xy, dtype=np.float64).reshape(1, 2))[0])


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
        view, old, points, new, at = _grow(shape, eps, minpts)
        old_summary = _summary(PointSet.from_coords(view), old, eps)
        summary = _summary(points, new, eps)
        assert check(old, new, old_summary, summary, at), shape


def test_the_index_shapes_do_what_they_say():
    """The far draw's insert leaves the key frame (the index is built
    afresh), the adopt draw puts inserted rows between old rows of one
    cell, the densify draw's cell becomes a dense box only through its
    inserts, the straddle draw's new cores join two old components
    through cell pairs that are neither wholly within Eps nor beyond it,
    and the lone draw makes a core in a cell that held none.  ~0.05 s."""
    view, old, points, new, at = _grow("far", 1.0, 2)
    inserted = np.setdiff1d(np.arange(len(points)), at)
    assert old.index.grown(at, inserted, points.coords[inserted]) is None

    view, old, points, new, at = _grow("adopt", 0.25, 4)
    is_new = np.ones(len(points), dtype=bool)
    is_new[at] = False
    runs = np.split(new.index.order, new.index.start[1:])
    assert any(
        is_new[run].any() and not is_new[run[0]] and not is_new[run[-1]] for run in runs
    )

    eps, minpts = 0.3, 5
    view, old, points, new, at = _grow("densify", eps, minpts)
    cell, was = _cell_of(new.index, view[0]), _cell_of(old.index, view[0])
    assert old.index.count[was] < minpts <= new.index.count[cell]
    assert not old.core_mask[0] and new.core_mask[at[0]] and new.densebox.box_id[at[0]] >= 0

    eps, minpts = 1.0, 4
    view, old, points, new, at = _grow("straddle", eps, minpts)
    batch = np.setdiff1d(np.arange(len(points)), at)
    for clump in (0, minpts):
        d = np.hypot(*(points.coords[batch] - view[clump]).T)
        assert d.min() <= eps < d.max()
        assert new.core_mask[batch].all()
        assert _cell_of(new.index, view[clump]) != _cell_of(new.index, points.coords[batch[0]])
    assert old.labels[0] != old.labels[minpts] and new.labels[at[0]] == new.labels[at[minpts]]

    eps, minpts = 0.25, 4
    view, old, points, new, at = _grow("lone", eps, minpts)
    was = _cell_of(old.index, view[0])
    assert old.index.count[was] == 1 and old.index.core_row[was] == -1
    assert new.core_mask[at[0]] and new.index.core_row[_cell_of(new.index, view[0])] == at[0]


def test_prior_arrays_are_only_read():
    rng = np.random.default_rng(11)
    view = rng.normal(0, 0.5, size=(300, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.2, 5, keep_index=True)
    arrays = [prior.labels, prior.core_mask, prior.claims, prior.claim_d2] + [
        getattr(prior.index, f.name) for f in fields(prior.index)
        if isinstance(getattr(prior.index, f.name), np.ndarray)
    ]
    copies = [a.copy() for a in arrays]
    grown = np.concatenate((view[:150], rng.normal(0, 0.5, size=(40, 2)), view[150:]))
    old_rows = np.concatenate((np.arange(150), np.arange(190, 340)))
    mrscan_gpu_append(
        PointSet.from_coords(grown), 0.2, 5, old_rows=old_rows, labels=prior.labels,
        core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
        index=prior.index,
    )
    for before, after in zip(copies, arrays):
        assert before.tobytes() == after.tobytes()


def test_stats_count_the_cells_read():
    """An append's stats describe the whole view (points, cores) but charge
    only the distances it evaluated, far fewer than a full pass's model,
    and it reads a few of the view's cells and rows."""
    rng = np.random.default_rng(12)
    view = rng.normal(0, 1.0, size=(4000, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.1, 5, keep_index=True)
    # One row in the dense middle (a dense box settles it), two on the
    # sparse rim (counted).
    grown = np.concatenate((view, [[0.0, 0.0], [2.5, 0.0], [2.55, 0.0]]))
    points = PointSet.from_coords(grown)
    got = mrscan_gpu_append(
        points, 0.1, 5, old_rows=np.arange(4000), labels=prior.labels,
        core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
        index=prior.index,
    )
    full = mrscan_gpu(points, 0.1, 5)
    assert got.stats.n_points == full.stats.n_points == 4003
    assert got.stats.n_core == full.stats.n_core
    assert 0 < got.stats.total_distance_ops < full.stats.total_distance_ops / 20
    assert got.stats.sync_round_trips == full.stats.sync_round_trips == 2
    assert 0 < got.densebox.n_subdivisions < len(got.index.keys) / 20
    assert 0 < got.rows_read < len(points) / 20


def test_a_view_too_wide_to_key_is_refused_alike():
    """A far row that leaves the full pass's dense-box tree without Morton
    bits makes both paths raise the same error type."""
    from repro.errors import ConfigError

    view = np.random.default_rng(13).normal(0, 0.5, size=(50, 2))
    prior = mrscan_gpu(PointSet.from_coords(view), 0.2, 4, keep_index=True)
    grown = PointSet.from_coords(np.concatenate((view, [[1e9, 0.0]])))
    with pytest.raises(ConfigError):
        mrscan_gpu(grown, 0.2, 4)
    with pytest.raises(ConfigError):
        mrscan_gpu_append(
            grown, 0.2, 4, old_rows=np.arange(50), labels=prior.labels,
            core_mask=prior.core_mask, claims=prior.claims, claim_d2=prior.claim_d2,
            index=prior.index,
        )
