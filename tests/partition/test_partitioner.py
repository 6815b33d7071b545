"""Unit + property tests for partition forming and rebalancing (§3.1.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import generate_twitter, uniform_noise
from repro.errors import PartitionError
from repro.partition import form_partitions, partition_points
from repro.partition.grid import GridHistogram
from repro.points import PointSet


def _hist_from_points(points, eps):
    return GridHistogram.from_points(points, eps)


def _assert_valid_plan(plan, hist, minpts=None):
    """Every non-empty cell owned exactly once, nothing else owned, no
    partition shadowing its own cells, and (given MinPts) every non-empty
    partition holding >= MinPts points unless it is a single cell."""
    owned = set(plan.cell_owner())  # raises on a doubly-owned cell
    assert owned == set(map(tuple, hist.cells.tolist()))
    for spec in plan.partitions:
        assert not spec.shadow_cells & spec.cell_set()
        if minpts is not None and spec.n_cells > 1:
            assert spec.point_count >= minpts


def test_rejects_bad_args():
    hist = GridHistogram.from_cells(1.0, [(0, 0)], [10])
    with pytest.raises(PartitionError):
        form_partitions(hist, 0, 5)
    with pytest.raises(PartitionError):
        form_partitions(hist, 2, 0)


def test_single_partition_takes_everything():
    ps = uniform_noise(200, box=(0, 0, 5, 5), seed=0)
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, 1, 4)
    assert len(plan) == 1
    assert plan.partitions[0].point_count == 200
    assert plan.partitions[0].shadow_cells == set()


def test_partitions_cover_all_cells_exactly_once():
    ps = generate_twitter(10000, seed=1)
    hist = _hist_from_points(ps, 0.1)
    plan = form_partitions(hist, 8, 4)
    _assert_valid_plan(plan, hist, minpts=4)


def test_point_counts_conserved():
    ps = generate_twitter(8000, seed=2)
    hist = _hist_from_points(ps, 0.1)
    plan = form_partitions(hist, 6, 4)
    assert sum(p.point_count for p in plan.partitions) == hist.total_points


def test_more_partitions_than_cells():
    ps = PointSet.from_coords([[0.05, 0.05], [1.5, 1.5]])
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, 5, 1)
    assert len(plan) == 5
    nonempty = plan.nonempty()
    assert len(nonempty) == 2
    _assert_valid_plan(plan, hist)


def test_shadow_regions_are_grid_neighbors():
    ps = uniform_noise(2000, box=(0, 0, 10, 10), seed=3)
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, 4, 4)
    for spec in plan.nonempty():
        cells = spec.cell_set()
        for sc in spec.shadow_cells:
            assert sc not in cells
            assert any(
                abs(sc[0] - c[0]) <= 1 and abs(sc[1] - c[1]) <= 1 for c in cells
            )
            assert hist.count(sc) > 0


def test_rebalance_reduces_last_partition_excess():
    """Fig 2: without rebalancing the last partition absorbs the surplus."""
    ps = generate_twitter(30000, seed=4)
    hist = _hist_from_points(ps, 0.1)
    raw = form_partitions(hist, 16, 4, rebalance=False)
    reb = form_partitions(hist, 16, 4, rebalance=True)
    raw_last = raw.nonempty()[-1].total_count
    reb_last = reb.nonempty()[-1].total_count
    assert reb_last <= raw_last
    assert reb.size_imbalance() <= raw.size_imbalance() + 1e-9


def test_rebalance_threshold_respected_where_splittable():
    ps = uniform_noise(20000, box=(0, 0, 20, 20), seed=5)
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, 8, 4)
    threshold = 1.075 * plan.final_target_size
    for spec in plan.nonempty():
        # single-cell partitions cannot shrink further; others must obey
        if spec.n_cells > 1:
            assert spec.total_count <= threshold * 1.5  # loose: moves are cell-granular


def test_minpts_floor_respected():
    ps = generate_twitter(5000, seed=6)
    hist = _hist_from_points(ps, 0.1)
    plan = form_partitions(hist, 12, 40)
    for spec in plan.nonempty():
        assert spec.point_count >= 40 or spec.n_cells == 1


def test_partition_points_materialisation():
    ps = uniform_noise(1000, box=(0, 0, 6, 6), seed=7)
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, 4, 4)
    parts = partition_points(ps, plan)
    assert len(parts) == 4
    # every point appears in exactly one partition
    all_ids = np.concatenate([own.ids for own, _ in parts])
    assert len(all_ids) == len(ps)
    assert len(np.unique(all_ids)) == len(ps)
    # shadow points belong to the partition's shadow cells
    for spec, (own, shadow) in zip(plan.partitions, parts):
        assert spec.point_count == len(own)
        assert spec.shadow_count == len(shadow)


def test_partition_points_shadow_completeness():
    """Every point within eps of a partition point is in partition+shadow —
    the §3.1.1 correctness property."""
    ps = uniform_noise(800, box=(0, 0, 5, 5), seed=8)
    eps = 1.0
    hist = _hist_from_points(ps, eps)
    plan = form_partitions(hist, 3, 4)
    parts = partition_points(ps, plan)
    for own, shadow in parts:
        if not len(own):
            continue
        view_ids = set(own.ids.tolist()) | set(shadow.ids.tolist())
        d2 = (
            (ps.coords[:, 0][:, None] - own.coords[:, 0][None, :]) ** 2
            + (ps.coords[:, 1][:, None] - own.coords[:, 1][None, :]) ** 2
        )
        near = np.unique(np.nonzero(d2 <= eps * eps)[0])
        for i in near:
            assert int(ps.ids[i]) in view_ids


def test_plan_detects_double_ownership():
    from repro.partition.plan import PartitionPlan, PartitionSpec

    plan = PartitionPlan(
        eps=1.0,
        partitions=[
            PartitionSpec(0, cells=[(0, 0)]),
            PartitionSpec(1, cells=[(0, 0)]),
        ],
        target_size=1,
    )
    with pytest.raises(PartitionError):
        plan.cell_owner()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(10, 400),
    n_parts=st.integers(1, 12),
    minpts=st.integers(1, 10),
    seed=st.integers(0, 999),
)
def test_property_plan_valid_for_random_data(n, n_parts, minpts, seed):
    rng = np.random.default_rng(seed)
    ps = PointSet.from_coords(rng.uniform(0, 8, size=(n, 2)))
    hist = _hist_from_points(ps, 1.0)
    plan = form_partitions(hist, n_parts, minpts)
    _assert_valid_plan(plan, hist)
    assert sum(p.point_count for p in plan.partitions) == n
    parts = partition_points(ps, plan)
    all_ids = np.concatenate([own.ids for own, _ in parts])
    assert len(np.unique(all_ids)) == n


# ---------------------------------------------------------------------- #
# partition_points: grouping pass == the per-cell-dict reference
# ---------------------------------------------------------------------- #


def _assert_same_materialisation(points, plan):
    from partition_reference import partition_points_reference

    got = partition_points(points, plan)
    want = partition_points_reference(points, plan)
    assert len(got) == len(want) == len(plan.partitions)
    for pair_got, pair_want in zip(got, want):
        for g, w in zip(pair_got, pair_want):
            np.testing.assert_array_equal(g.ids, w.ids)  # same points, same order
            np.testing.assert_array_equal(g.coords, w.coords)
            np.testing.assert_array_equal(g.weights, w.weights)
            assert (g.ids.dtype, g.coords.dtype, g.weights.dtype) == (
                w.ids.dtype, w.coords.dtype, w.weights.dtype,
            )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 500),
    n_parts=st.integers(1, 40),
    minpts=st.integers(1, 6),
    eps=st.sampled_from([0.25, 1.0, 3.0]),
    offset=st.sampled_from([0.0, -7.5, 1e6]),
    seed=st.integers(0, 9999),
)
def test_partition_points_matches_reference(n, n_parts, minpts, eps, offset, seed):
    """Ids, order and weights equal the old implementation, for points in
    no spatial order with non-trivial ids and weights; the sweep reaches
    empty partitions (more partitions than cells) and cells shadowed by
    several partitions (thin partitions on a coarse grid), which the fixed
    case below also pins."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 6.0, size=(n, 2)) + offset
    points = PointSet(
        ids=rng.permutation(n).astype(np.int64) + 17,
        coords=coords,
        weights=rng.uniform(0.5, 2.0, size=n),
    )
    plan = form_partitions(_hist_from_points(points, eps), n_parts, minpts)
    _assert_same_materialisation(points, plan)


def test_partition_points_multiply_shadowed_cells_and_empty_partitions():
    ps = uniform_noise(600, box=(0, 0, 4, 4), seed=21)
    plan = form_partitions(_hist_from_points(ps, 1.0), 24, 1)  # 16 cells, 24 partitions
    assert any(not spec.cells for spec in plan.partitions)
    counts: dict[tuple[int, int], int] = {}
    for spec in plan.partitions:
        for cell in spec.shadow_cells:
            counts[cell] = counts.get(cell, 0) + 1
    assert max(counts.values()) >= 3  # one cell in several shadows
    _assert_same_materialisation(ps, plan)


def test_partition_points_subset_of_the_plan():
    """The distributed partitioner materialises *slices*: most plan cells
    hold no point of the slice."""
    ps = generate_twitter(3000, seed=5)
    plan = form_partitions(_hist_from_points(ps, 0.1), 6, 10)
    _assert_same_materialisation(ps.take(np.arange(0, 3000, 7)), plan)
    _assert_same_materialisation(ps.take(np.empty(0, dtype=np.int64)), plan)


def test_partition_points_rejects_uncovered_cells():
    from partition_reference import partition_points_reference

    ps = uniform_noise(300, box=(0, 0, 5, 5), seed=3)
    plan = form_partitions(_hist_from_points(ps.take(ps.coords[:, 0] < 3.0), 1.0), 3, 2)
    with pytest.raises(PartitionError) as new:
        partition_points(ps, plan)
    with pytest.raises(PartitionError) as old:
        partition_points_reference(ps, plan)
    assert str(new.value) == str(old.value)
    assert "not covered by the plan" in str(new.value)


def test_partition_points_rejects_double_ownership():
    from repro.partition.plan import PartitionPlan, PartitionSpec

    plan = PartitionPlan(
        eps=1.0,
        partitions=[PartitionSpec(0, cells=[(0, 0)]), PartitionSpec(1, cells=[(0, 0)])],
        target_size=1,
    )
    with pytest.raises(PartitionError, match="owned by partitions 0 and 1"):
        partition_points(PointSet.from_coords(np.array([[0.5, 0.5]])), plan)
