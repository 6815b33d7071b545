"""Property tests for the incremental ingest planner (repro.partition.dirty)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import mrscan
from repro.partition.dirty import adopt_cells, dirty_partitions, touched_cells_of
from repro.partition.grid import GRID_NEIGHBOR_OFFSETS, GridHistogram, cell_of_coords
from repro.partition.partitioner import form_partitions
from repro.points import PointSet
from repro.runtime.executor import make_transport
from repro.serve.state import ServeState
from repro.validate.equivalence import labels_equivalent
from fuzz_cases import generate_case


def _random_batch(points: PointSet, size: int, rng: np.random.Generator) -> np.ndarray:
    """A spatially-local clump near one resident point, plus a few
    far-flung strays that land in previously-empty cells."""
    anchor = points.coords[int(rng.integers(0, len(points)))]
    local = anchor + rng.normal(0, 0.04, size=(size - 2, 2))
    strays = rng.uniform(-50.0, 50.0, size=(2, 2))
    return np.vstack([local, strays])


@pytest.mark.parametrize("seed", range(10))
def test_dirty_covers_every_intersecting_leaf(seed):
    """(dirty leaves) ⊇ (leaves whose cells or Eps shadow halos intersect
    the batch cells) — the planner may over-approximate, never under."""
    case = generate_case(seed, fault_fraction=0.0)
    points = case.points()
    hist = GridHistogram.from_points(points, case.eps)
    plan = form_partitions(hist, case.n_leaves, case.minpts)
    rng = np.random.default_rng(seed + 1000)
    batch = _random_batch(points, 40, rng)

    touched = touched_cells_of(cell_of_coords(batch, case.eps))
    owner = plan.cell_owner()
    adopt_cells(plan, {c for c in touched if c not in owner}, owner=owner)
    dirty = dirty_partitions(plan, touched, owner=owner)

    for spec in plan.partitions:
        owned = {(int(cx), int(cy)) for cx, cy in spec.cells}
        halo = {
            (cx + dx, cy + dy)
            for cx, cy in owned
            for dx, dy in GRID_NEIGHBOR_OFFSETS
        }
        if (owned | halo) & touched:
            assert spec.partition_id in dirty, (
                f"leaf {spec.partition_id} intersects the batch "
                f"(cells or halo) but was not marked dirty"
            )


@pytest.mark.parametrize("seed", range(6))
def test_adoption_keeps_exact_cover_and_is_deterministic(seed):
    case = generate_case(seed, fault_fraction=0.0)
    points = case.points()
    hist = GridHistogram.from_points(points, case.eps)
    rng = np.random.default_rng(seed + 2000)
    batch = _random_batch(points, 30, rng)
    touched = touched_cells_of(cell_of_coords(batch, case.eps))

    import copy

    plan_a = form_partitions(hist, case.n_leaves, case.minpts)
    plan_b = copy.deepcopy(plan_a)
    new_cells = {c for c in touched if c not in plan_a.cell_owner()}
    adopted_a = adopt_cells(plan_a, set(new_cells))
    adopted_b = adopt_cells(plan_b, set(new_cells))
    assert adopted_a == adopted_b  # deterministic under identical input
    assert set(adopted_a) == new_cells
    owner = plan_a.cell_owner()
    for cell in touched:
        assert cell in owner  # every batch cell now has exactly one owner


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_incremental_labels_match_from_scratch_on_union(seed):
    """An incremental ingest's labels are equivalence-equal to a full
    from-scratch run on the union dataset (seeded fuzz-style cases)."""
    case = generate_case(seed, fault_fraction=0.0)
    base = case.points()
    rng = np.random.default_rng(seed + 3000)
    batch = _random_batch(base, 50, rng)

    transport = make_transport("local")
    try:
        state = ServeState(
            base,
            case.config(validate="off", fault_plan=None),
            transport=transport,
        )
        state.ingest(batch)
        union = PointSet(
            ids=np.arange(len(state.points), dtype=np.int64),
            coords=state.points.coords,
        )
        ref = mrscan(
            union,
            case.eps,
            case.minpts,
            n_leaves=case.n_leaves,
            fanout=case.fanout,
            use_densebox=case.use_densebox,
        )
        snap = state._snap()
        report = labels_equivalent(
            union, case.eps, ref.labels, ref.core_mask, snap.labels, snap.core_mask
        )
        assert report.ok, report.summary()
    finally:
        transport.close()
