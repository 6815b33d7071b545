"""Touched-cell → dirty-partition mapping for incremental re-clustering.

An ingested batch lands in a set of Eps-grid cells.  Only two kinds of
partitions can see different points afterwards, and therefore need their
leaf re-clustered:

* the partition that **owns** a touched cell (its own points changed);
* any partition whose **shadow region** contains a touched cell — by
  construction (§3.1.1) exactly the partitions owning one of the cell's
  8-neighbors, since a partition's shadow is the neighbor set of its
  owned cells.

Every other partition's own *and* shadow point sets are untouched, so
its cached leaf output (labels, core mask, summary) remains valid and
the merge tree can recombine it as-is.  This is the locality the serve
subsystem (:mod:`repro.serve`) exploits: dirty leaves ≪ all leaves for
a spatially small batch.

A batch may also land in a cell that was *empty* when the plan was
formed — owned by nobody.  :func:`adopt_cells` assigns each such cell to
a deterministic existing partition (the smallest-id owner among its
non-empty 8-neighbors, falling back to the least-loaded partition), so
the plan keeps its exact-cover invariant without re-forming boundaries.
"""

from __future__ import annotations

from .grid import GRID_NEIGHBOR_OFFSETS
from .plan import PartitionPlan

__all__ = ["touched_cells_of", "dirty_partitions", "adopt_cells"]

Cell = tuple[int, int]


def touched_cells_of(batch_cells) -> set[Cell]:
    """Normalise a batch's cell array/iterable to a set of cell tuples."""
    return {(int(cx), int(cy)) for cx, cy in batch_cells}


def dirty_partitions(
    plan: PartitionPlan, touched: set[Cell], *, owner: dict[Cell, int] | None = None
) -> set[int]:
    """Partition ids whose leaf must re-cluster after ``touched`` cells
    received (or lost) points.

    The set is exactly: owners of touched cells, plus owners of any
    8-neighbor of a touched cell (the shadow-halo spillover — those
    partitions see the touched cell in their shadow region).  Touched
    cells owned by nobody are ignored here; run :func:`adopt_cells`
    first so every non-empty cell has an owner.
    """
    if owner is None:
        owner = plan.cell_owner()
    return {
        owner[(cx + dx, cy + dy)]
        for cx, cy in touched
        for dx, dy in ((0, 0), *GRID_NEIGHBOR_OFFSETS)
        if (cx + dx, cy + dy) in owner
    }


def adopt_cells(
    plan: PartitionPlan, new_cells: set[Cell], *, owner: dict[Cell, int] | None = None
) -> dict[Cell, int]:
    """Assign previously-unowned (empty-at-plan-time) cells to partitions.

    Each new cell goes to the smallest-id partition owning one of its
    8-neighbors — keeping it adjacent to its future shadow sources — or,
    for an isolated cell, to the partition with the fewest points
    (smallest id on ties).  Cells are processed in sorted order and the
    owner map is updated as cells are adopted, so a clump of new cells
    lands coherently in one partition.  Returns ``{cell: partition_id}``
    for the adopted cells; ``plan`` is updated in place (the cell is
    appended to the adopting spec's cell list).
    """
    if owner is None:
        owner = plan.cell_owner()
    adopted: dict[Cell, int] = {}
    for cell in sorted(new_cells):
        if cell in owner:
            continue
        cx, cy = cell
        neighbor_owners = [
            owner[(cx + dx, cy + dy)]
            for dx, dy in GRID_NEIGHBOR_OFFSETS
            if (cx + dx, cy + dy) in owner
        ]
        if neighbor_owners:
            pid = min(neighbor_owners)
        else:
            pool = plan.nonempty() or plan.partitions
            pid = min(pool, key=lambda s: (s.total_count, s.partition_id)).partition_id
        plan.partitions[pid].cells.append(cell)
        owner[cell] = pid
        adopted[cell] = pid
    return adopted
