"""Partition forming and rebalancing (§3.1.2, Fig 2).

The algorithm works purely on the Eps-grid histogram:

1. **Forming.**  Walk the non-empty cells in column-major order (y fastest)
   and accumulate them into the current partition until adding the next
   cell would exceed the target size (an equal share of the points).  A
   cell may exceed the target only when the partition is still empty (one
   huge cell = one partition) or when it is the final partition (which
   absorbs the remainder).  A running difference of each closed
   partition's size from the target shrinks subsequent targets
   proportionately (never below MinPts points), so early oversized cells
   do not systematically starve the tail.

2. **Shadow regions** are attached (grid neighbors not in the partition).

3. **Rebalancing** (Fig 2c-d).  Forming keeps partitions *below* target,
   so the collective deficit lands on the last partition (the populous
   Eastern US in Fig 2a).  The final target is recomputed as the mean of
   partition sizes *including shadows*; then, walking backward from the
   last partition, cells are moved from the front of each partition's run
   to the previous partition until the partition drops below
   ``1.075 × final_target`` (the paper's empirically chosen threshold).
"""

from __future__ import annotations

import numpy as np

from ..errors import PartitionError
from ..points import PointSet
from .grid import GridHistogram, cell_of_coords
from .plan import PartitionHints, PartitionPlan, PartitionSpec
from .shadow import add_shadow_regions, refresh_shadow

__all__ = [
    "form_partitions",
    "partition_points",
    "apply_partition_hints",
    "REBALANCE_THRESHOLD_FACTOR",
]

#: "The threshold is set to 1.075 × finaltargetsize because it worked well
#: in practice on our datasets."
REBALANCE_THRESHOLD_FACTOR: float = 1.075


def form_partitions(
    histogram: GridHistogram,
    n_partitions: int,
    minpts: int,
    *,
    rebalance: bool = True,
    threshold_factor: float = REBALANCE_THRESHOLD_FACTOR,
    hints: PartitionHints | None = None,
) -> PartitionPlan:
    """Form ``n_partitions`` partitions from a grid histogram.

    Returns a plan whose partitions are contiguous runs of the
    column-major cell order, each with its shadow region attached.  When
    the histogram has fewer non-empty cells than ``n_partitions``, the
    excess partitions are empty (their leaves receive no work).
    """
    if n_partitions < 1:
        raise PartitionError(f"n_partitions must be >= 1, got {n_partitions}")
    if minpts < 1:
        raise PartitionError(f"minpts must be >= 1, got {minpts}")

    cells = histogram.column_major_cells()
    total = histogram.total_points
    target = total / n_partitions if n_partitions else 0.0

    specs: list[PartitionSpec] = []
    current = PartitionSpec(partition_id=0)
    running_diff = 0.0
    effective_target = target

    for cell in cells:
        c = histogram.count(cell)
        is_final = len(specs) == n_partitions - 1
        if (
            current.cells
            and not is_final
            and current.point_count + c > effective_target
        ):
            running_diff += current.point_count - target
            specs.append(current)
            current = PartitionSpec(partition_id=len(specs))
            # Shrink the next target while we are ahead of schedule, with
            # MinPts as the floor (§3.1.2's second profitability rule).
            effective_target = max(target - max(running_diff, 0.0), float(minpts))
        current.cells.append(cell)
        current.point_count += c
    specs.append(current)
    while len(specs) < n_partitions:
        specs.append(PartitionSpec(partition_id=len(specs)))

    plan = PartitionPlan(eps=histogram.eps, partitions=specs, target_size=target)
    add_shadow_regions(plan, histogram)

    if rebalance:
        _rebalance(plan, histogram, minpts, threshold_factor)

    if hints is not None:
        apply_partition_hints(plan, histogram, minpts, hints)

    return plan


def apply_partition_hints(
    plan: PartitionPlan,
    histogram: GridHistogram,
    minpts: int,
    hints: PartitionHints,
) -> None:
    """Apply tune-planner split hints to a formed plan (in place).

    Each hinted partition's contiguous cell run is cut into chunks
    balanced by cumulative point count; the first chunk keeps the
    partition's id and the rest append to the plan (the partition count
    grows).  Infeasible splits degrade: the chunk count drops until every
    chunk holds at least MinPts points and one cell, and a partition that
    cannot split at all is left alone.  Shadows are recomputed from
    scratch afterwards — split boundaries create new partition frontiers.
    """
    split_any = False
    for pid, k in sorted(hints.split_map().items()):
        if not 0 <= pid < len(plan.partitions):
            continue
        spec = plan.partitions[pid]
        chunks = _split_spec_cells(spec, histogram, minpts, k)
        if chunks is None:
            continue
        split_any = True
        head, *rest = chunks
        spec.cells = head
        spec.point_count = sum(histogram.count(c) for c in head)
        for cells in rest:
            plan.partitions.append(
                PartitionSpec(
                    partition_id=len(plan.partitions),
                    cells=cells,
                    point_count=sum(histogram.count(c) for c in cells),
                )
            )
    if split_any:
        add_shadow_regions(plan, histogram)


def _split_spec_cells(
    spec: PartitionSpec,
    histogram: GridHistogram,
    minpts: int,
    k: int,
) -> list[list[tuple[int, int]]] | None:
    """Cut a spec's cell run into <= k point-balanced chunks, each with
    >= MinPts points; None when no split (k >= 2) is feasible."""
    counts = [histogram.count(c) for c in spec.cells]
    total = sum(counts)
    k = min(k, len(spec.cells), total // max(minpts, 1))
    while k >= 2:
        target = total / k
        chunks: list[list[tuple[int, int]]] = []
        acc: list[tuple[int, int]] = []
        acc_count = 0
        for cell, count in zip(spec.cells, counts):
            remaining_chunks = k - len(chunks)
            remaining_cells = len(spec.cells) - sum(len(c) for c in chunks) - len(acc)
            if (
                acc
                and remaining_chunks > 1
                and acc_count >= max(target, float(minpts))
                and remaining_cells >= remaining_chunks - 1
            ):
                chunks.append(acc)
                acc, acc_count = [], 0
            acc.append(cell)
            acc_count += count
        chunks.append(acc)
        if len(chunks) == k and all(
            sum(histogram.count(c) for c in chunk) >= minpts for chunk in chunks
        ):
            return chunks
        k -= 1
    return None


def _rebalance(
    plan: PartitionPlan,
    histogram: GridHistogram,
    minpts: int,
    threshold_factor: float,
) -> None:
    """Fig 2c: move cells backward-to-forward until below the threshold."""
    nonempty = plan.nonempty()
    if len(nonempty) < 2:
        plan.final_target_size = nonempty[0].total_count if nonempty else 0.0
        return
    final_target = sum(p.total_count for p in nonempty) / len(nonempty)
    threshold = threshold_factor * final_target
    plan.final_target_size = final_target

    # "Starting at the last partition formed we remove a grid cell, update
    # the shadow region, and repeat until a specified threshold size is
    # reached.  The removed grid cells are then added to the second-last
    # partition ... repeated for each partition, working sequentially
    # backward through the partitions until we reach the first."
    #
    # The shadow region is maintained *incrementally* per removal (O(1)
    # neighborhood work instead of a full recomputation), which keeps
    # rebalancing O(cells) overall — equivalent to refreshing after every
    # move, just not quadratic.
    from collections import deque

    from .grid import GRID_NEIGHBOR_OFFSETS

    for i in range(len(nonempty) - 1, 0, -1):
        spec = nonempty[i]
        prev = nonempty[i - 1]
        cells = deque(spec.cells)
        cell_set = set(cells)
        shadow = set(spec.shadow_cells)
        shadow_count = spec.shadow_count
        moved = False
        while len(cells) > 1 and spec.point_count + shadow_count > threshold:
            head = cells[0]
            head_count = histogram.count(head)
            if spec.point_count - head_count < minpts:
                break  # never shrink a partition below MinPts points
            if spec.point_count - head_count < 0.5 * threshold:
                # Shadow regions alone can exceed the threshold for thin
                # partitions abutting dense areas; draining such a
                # partition would just snowball its points backward (all
                # the way to partition 0, which has nowhere to shed).
                # Keep at least half a target of own points instead.
                break
            cells.popleft()
            cell_set.remove(head)
            spec.point_count -= head_count
            prev.cells.append(head)
            prev.point_count += head_count
            moved = True
            # Incremental shadow update around the removed cell: the cell
            # itself may become shadow, and its shadow neighbors may stop
            # being shadow if it was their only partition contact.
            hx, hy = head
            if any(
                (hx + dx, hy + dy) in cell_set for dx, dy in GRID_NEIGHBOR_OFFSETS
            ):
                if head not in shadow:
                    shadow.add(head)
                    shadow_count += head_count
            for dx, dy in GRID_NEIGHBOR_OFFSETS:
                cand = (hx + dx, hy + dy)
                if cand not in shadow:
                    continue
                if not any(
                    (cand[0] + ddx, cand[1] + ddy) in cell_set
                    for ddx, ddy in GRID_NEIGHBOR_OFFSETS
                ):
                    shadow.remove(cand)
                    shadow_count -= histogram.count(cand)
        spec.cells = list(cells)
        spec.shadow_cells = shadow
        spec.shadow_count = shadow_count
        if moved:
            refresh_shadow(prev, histogram)


def _cell_table(cell_lists: list) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-partition cell collections: one key per cell (see
    :func:`_cell_keys`) and the index of the partition that listed it."""
    cells = np.array([c for cells in cell_lists for c in cells], dtype=np.int64)
    parts = np.repeat(np.arange(len(cell_lists)), [len(c) for c in cell_lists])
    return _cell_keys(cells.reshape(-1, 2)), parts


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    """One sortable key per ``(x, y)`` cell: ``x + iy``.  Complex values
    order lexicographically, and the conversion is exact because Eps-cell
    coordinates are floors of float64 values — so no packing, no bounding
    box and nothing to overflow."""
    return cells[:, 0] + 1j * cells[:, 1]


def _ids_by_partition(
    point_cell: np.ndarray, cell_ids: np.ndarray, cell_parts: np.ndarray, n_cells: int, n_parts: int
) -> list[np.ndarray]:
    """Ascending point ids per partition, from ``(cell, partition)``
    listings and each point's cell id."""
    cell_parts = cell_parts[np.argsort(cell_ids, kind="stable")]
    listed = np.bincount(cell_ids, minlength=n_cells)
    first = np.cumsum(listed) - listed
    reps = listed[point_cell]
    ids = np.repeat(np.arange(len(point_cell), dtype=np.int64), reps)
    slot = np.repeat(first[point_cell] - (np.cumsum(reps) - reps), reps)
    slot += np.arange(len(ids), dtype=np.int64)
    # The narrowest dtype gets numpy's radix sort; stable either way, so
    # ids stay ascending inside each partition's run.
    parts = cell_parts[slot].astype(np.min_scalar_type(n_parts))
    ids = ids[np.argsort(parts, kind="stable")]
    return np.split(ids, np.cumsum(np.bincount(parts, minlength=n_parts))[:-1])


def partition_points(
    points: PointSet, plan: PartitionPlan
) -> list[tuple[PointSet, PointSet]]:
    """Materialise a plan: per-partition ``(points, shadow_points)``.

    Partition points are those whose Eps-cell the partition owns; shadow
    points are those in the partition's shadow cells (they are partition
    points of a neighboring partition — the duplication is the §3.1.1
    correctness mechanism).  Both come out in ascending input order.
    """
    n = len(points)
    cells = cell_of_coords(points.coords, plan.eps) if n else np.empty((0, 2), np.int64)
    specs = plan.partitions
    own_keys, own_parts = _cell_table([spec.cells for spec in specs])
    shadow_keys, shadow_parts = _cell_table([spec.shadow_cells for spec in specs])
    # Every cell the plan mentions gets an id, its rank among their sorted
    # keys (the infinite sentinel takes every miss): one binary search per
    # point, and everything after that is per-cell tables.
    plan_keys = np.append(np.unique(np.concatenate((own_keys, shadow_keys))), np.inf)
    own_ids = np.searchsorted(plan_keys, own_keys)
    if len(np.unique(own_ids)) != len(own_ids):
        plan.cell_owner()  # raises, naming the doubly-owned cell
    point_keys = _cell_keys(cells)
    point_cell = np.searchsorted(plan_keys, point_keys)
    owned = np.zeros(len(plan_keys), dtype=bool)
    owned[own_ids] = True
    covered = owned[point_cell] & (plan_keys[point_cell] == point_keys)
    if not np.all(covered):
        unowned = sorted(set(map(tuple, cells[~covered].tolist())))
        raise PartitionError(
            f"{len(unowned)} non-empty cells not covered by the plan, e.g. {unowned[:3]}"
        )
    shadow_ids = np.searchsorted(plan_keys, shadow_keys)
    sizes = (len(plan_keys), len(specs))
    own = _ids_by_partition(point_cell, own_ids, own_parts, *sizes)
    shadow = _ids_by_partition(point_cell, shadow_ids, shadow_parts, *sizes)
    return [(points.take(o), points.take(s)) for o, s in zip(own, shadow)]
