"""The per-cell-dict ``partition_points`` that shipped through PR 15.

Kept as the differential oracle for the grouping-pass implementation in
``repro.partition.partitioner``: same ids, same order, same weights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.partition.grid import cell_of_coords
from repro.partition.plan import PartitionPlan
from repro.points import PointSet


def partition_points_reference(
    points: PointSet, plan: PartitionPlan
) -> list[tuple[PointSet, PointSet]]:
    n = len(points)
    cells = cell_of_coords(points.coords, plan.eps) if n else np.empty((0, 2), np.int64)
    owner_of_cell = plan.cell_owner()

    # Group point indices by cell once (sparse dict of arrays).
    members: dict[tuple[int, int], np.ndarray] = {}
    if n:
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        sc = cells[order]
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = np.any(sc[1:] != sc[:-1], axis=1)
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        for (cx, cy), s, e in zip(sc[starts], starts, ends):
            members[(int(cx), int(cy))] = order[s:e]

    unowned = [c for c in members if c not in owner_of_cell]
    if unowned:
        raise PartitionError(
            f"{len(unowned)} non-empty cells not covered by the plan, e.g. {unowned[:3]}"
        )

    out: list[tuple[PointSet, PointSet]] = []
    for spec in plan.partitions:
        own_chunks = [members[c] for c in spec.cells if c in members]
        own_idx = (
            np.sort(np.concatenate(own_chunks)) if own_chunks else np.empty(0, np.int64)
        )
        shadow_chunks = [members[c] for c in sorted(spec.shadow_cells) if c in members]
        shadow_idx = (
            np.sort(np.concatenate(shadow_chunks))
            if shadow_chunks
            else np.empty(0, np.int64)
        )
        out.append((points.take(own_idx), points.take(shadow_idx)))
    return out
