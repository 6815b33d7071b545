"""The dict-and-set partition layer, kept as the differential oracle.

``partition_points_reference`` is the per-cell-dict ``partition_points``
from before its grouping pass.  Everything else is the partition phase as
it was before it became array passes: the ``GridHistogram`` that was a
``dict[(x, y), count]``, forming and rebalancing walking cell tuples,
shadows as Python set algebra, and the paper-scale workload law reading
that dict.  The arrays in ``repro.partition`` must reproduce these
plans field by field and ``repro.perf.workload`` these values exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, PartitionError
from repro.partition.grid import GRID_NEIGHBOR_OFFSETS, cell_of_coords
from repro.partition.plan import PartitionPlan, PartitionSpec
from repro.perf.workload import LeafWork, _vector_cell_work
from repro.points import PointSet

Cell = tuple[int, int]

REBALANCE_THRESHOLD_FACTOR = 1.075


# ---------------------------------------------------------------------- #
# Histogram
# ---------------------------------------------------------------------- #


@dataclass
class GridHistogramReference:
    """Sparse per-cell point counts over the Eps grid."""

    eps: float
    counts: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")

    @classmethod
    def from_points(cls, points: PointSet, eps: float) -> "GridHistogramReference":
        hist = cls(eps=eps)
        if len(points) == 0:
            return hist
        cells = cell_of_coords(points.coords, eps)
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        sc = cells[order]
        change = np.empty(len(sc), dtype=bool)
        change[0] = True
        change[1:] = np.any(sc[1:] != sc[:-1], axis=1)
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(sc))
        for (cx, cy), s, e in zip(sc[starts], starts, ends):
            hist.counts[(int(cx), int(cy))] = int(e - s)
        return hist

    def merge(self, other: "GridHistogramReference") -> "GridHistogramReference":
        if other.eps != self.eps:
            raise ConfigError(f"cannot merge histograms with eps {self.eps} and {other.eps}")
        merged = GridHistogramReference(eps=self.eps, counts=dict(self.counts))
        for cell, count in other.counts.items():
            merged.counts[cell] = merged.counts.get(cell, 0) + count
        return merged

    @property
    def total_points(self) -> int:
        return sum(self.counts.values())

    @property
    def n_cells(self) -> int:
        return len(self.counts)

    def column_major_cells(self) -> list[Cell]:
        return sorted(self.counts, key=lambda c: (c[0], c[1]))

    def count(self, cell: Cell) -> int:
        return self.counts.get(cell, 0)


# ---------------------------------------------------------------------- #
# Shadows
# ---------------------------------------------------------------------- #


def shadow_cells_of_reference(cells: set[Cell], histogram: GridHistogramReference) -> set[Cell]:
    shadow: set[Cell] = set()
    for cx, cy in cells:
        for dx, dy in GRID_NEIGHBOR_OFFSETS:
            neighbor = (cx + dx, cy + dy)
            if neighbor not in cells and neighbor in histogram.counts:
                shadow.add(neighbor)
    return shadow


def refresh_shadow_reference(spec: PartitionSpec, histogram: GridHistogramReference) -> None:
    spec.shadow_cells = shadow_cells_of_reference(spec.cell_set(), histogram)
    spec.shadow_count = sum(histogram.count(c) for c in spec.shadow_cells)


def add_shadow_regions_reference(plan: PartitionPlan, histogram: GridHistogramReference) -> None:
    for spec in plan.partitions:
        refresh_shadow_reference(spec, histogram)


# ---------------------------------------------------------------------- #
# Forming, rebalancing
# ---------------------------------------------------------------------- #


def form_partitions_reference(
    histogram: GridHistogramReference,
    n_partitions: int,
    minpts: int,
    *,
    rebalance: bool = True,
    threshold_factor: float = REBALANCE_THRESHOLD_FACTOR,
) -> PartitionPlan:
    if n_partitions < 1:
        raise PartitionError(f"n_partitions must be >= 1, got {n_partitions}")
    if minpts < 1:
        raise PartitionError(f"minpts must be >= 1, got {minpts}")

    cells = histogram.column_major_cells()
    total = histogram.total_points
    target = total / n_partitions

    specs: list[PartitionSpec] = []
    current = PartitionSpec(partition_id=0)
    running_diff = 0.0
    effective_target = target

    for cell in cells:
        c = histogram.count(cell)
        is_final = len(specs) == n_partitions - 1
        if current.cells and not is_final and current.point_count + c > effective_target:
            running_diff += current.point_count - target
            specs.append(current)
            current = PartitionSpec(partition_id=len(specs))
            effective_target = max(target - max(running_diff, 0.0), float(minpts))
        current.cells.append(cell)
        current.point_count += c
    specs.append(current)
    while len(specs) < n_partitions:
        specs.append(PartitionSpec(partition_id=len(specs)))

    plan = PartitionPlan(eps=histogram.eps, partitions=specs, target_size=target)
    add_shadow_regions_reference(plan, histogram)
    if rebalance:
        _rebalance_reference(plan, histogram, minpts, threshold_factor)
    return plan


def _rebalance_reference(
    plan: PartitionPlan,
    histogram: GridHistogramReference,
    minpts: int,
    threshold_factor: float,
) -> None:
    nonempty = plan.nonempty()
    if len(nonempty) < 2:
        plan.final_target_size = nonempty[0].total_count if nonempty else 0.0
        return
    final_target = sum(p.total_count for p in nonempty) / len(nonempty)
    threshold = threshold_factor * final_target
    plan.final_target_size = final_target

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
                break
            if spec.point_count - head_count < 0.5 * threshold:
                break
            cells.popleft()
            cell_set.remove(head)
            spec.point_count -= head_count
            prev.cells.append(head)
            prev.point_count += head_count
            moved = True
            hx, hy = head
            if any((hx + dx, hy + dy) in cell_set for dx, dy in GRID_NEIGHBOR_OFFSETS):
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
            refresh_shadow_reference(prev, histogram)


# ---------------------------------------------------------------------- #
# Materialisation
# ---------------------------------------------------------------------- #


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


# ---------------------------------------------------------------------- #
# Paper-scale workload law over the dict histogram
# ---------------------------------------------------------------------- #


def scaled_histogram_reference(
    sample: PointSet, eps: float, n_target: int
) -> GridHistogramReference:
    """``ScaledWorkload.from_sample``'s histogram, largest-remainder scaled."""
    base = GridHistogramReference.from_points(sample, eps)
    factor = n_target / len(sample)
    cells = list(base.counts)
    raw = np.array([base.counts[c] for c in cells], dtype=np.float64) * factor
    floors = np.floor(raw).astype(np.int64)
    deficit = int(n_target - floors.sum())
    if deficit > 0:
        order = np.argsort(-(raw - floors))
        floors[order[:deficit]] += 1
    return GridHistogramReference(
        eps=eps, counts={c: int(v) for c, v in zip(cells, floors) if v > 0}
    )


def stencil_counts_reference(histogram: GridHistogramReference) -> dict[Cell, int]:
    counts = histogram.counts
    out: dict[Cell, int] = {}
    for (cx, cy) in counts:
        total = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                total += counts.get((cx + dx, cy + dy), 0)
        out[(cx, cy)] = total
    return out


def leaf_gpu_work_reference(
    histogram: GridHistogramReference,
    plan: PartitionPlan,
    minpts: int,
    *,
    use_densebox: bool = True,
    n_blocks: int = 1024,
    record_bytes: int = 32,
) -> list[LeafWork]:
    stencils = stencil_counts_reference(histogram)
    counts = histogram.counts
    cells = list(counts)
    cell_index = {c: i for i, c in enumerate(cells)}
    count_v = np.array([counts[c] for c in cells], dtype=np.float64)
    stencil_v = np.array([stencils.get(c, counts[c]) for c in cells], dtype=np.float64)
    pass1_v, pass2_v, elim_v = _vector_cell_work(count_v, stencil_v, minpts, use_densebox)

    out: list[LeafWork] = []
    for spec in plan.partitions:
        idx = [
            cell_index[cell]
            for cell in list(spec.cells) + sorted(spec.shadow_cells)
            if cell in cell_index
        ]
        if idx:
            ia = np.asarray(idx, dtype=np.int64)
            pass1 = float(pass1_v[ia].sum())
            pass2 = float(pass2_v[ia].sum())
            elim = float(elim_v[ia].sum())
            n_pts = float(count_v[ia].sum())
        else:
            pass1 = pass2 = elim = n_pts = 0.0
        launches = max(1.0, 2.0 * n_pts / n_blocks) if n_pts else 0.0
        out.append(
            LeafWork(
                n_points=n_pts,
                pass1_ops=pass1,
                pass2_ops=pass2,
                eliminated=elim,
                transfer_bytes=n_pts * record_bytes + 9 * n_pts,
                launches=launches,
            )
        )
    return out
