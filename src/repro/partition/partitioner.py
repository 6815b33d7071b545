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

Every partition is a *run*: a half-open range of histogram rows, which
are already in column-major order.  Forming cuts the cumulative count at
each partition's target (one binary search per partition), rebalancing
only moves run boundaries, and the shadows of all partitions come from
one ``(cells, 8)`` table of neighbor rows.

Routing points under a plan (:class:`Router`) is one lookup of each
point's Eps-cell, then one stable sort of its (partition, role)
listings; :func:`gather` makes every partition's views from one
``np.take`` per column.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import PartitionError
from ..gpu.treeindex import runs as run_positions
from ..points import PointSet
from .grid import CellFrame, CellIndex, GridHistogram, cell_array, cell_of_coords
from .plan import PartitionPlan, PartitionSpec

__all__ = [
    "Router",
    "append_points",
    "form_partitions",
    "gather",
    "partition_points",
    "REBALANCE_THRESHOLD_FACTOR",
]

#: "The threshold is set to 1.075 × finaltargetsize because it worked well
#: in practice on our datasets."
REBALANCE_THRESHOLD_FACTOR: float = 1.075

Run = tuple[int, int]  # [start, end) histogram rows


def form_partitions(
    histogram: GridHistogram,
    n_partitions: int,
    minpts: int,
    *,
    rebalance: bool = True,
    threshold_factor: float = REBALANCE_THRESHOLD_FACTOR,
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

    cum = np.concatenate(([0], np.cumsum(histogram.counts)))
    target = int(cum[-1]) / n_partitions
    runs = _form_runs(cum, n_partitions, minpts, target)
    cum = cum.tolist()
    neighbors = histogram.neighbor_rows()
    final_target = 0.0
    if rebalance:
        final_target = _rebalance(runs, cum, histogram.counts, neighbors, minpts, threshold_factor)

    part, rows, shadow_sums = _shadows(runs, neighbors, histogram.counts)
    shadow_rows = np.split(rows, np.cumsum(np.bincount(part, minlength=len(runs)))[:-1])
    cells = list(zip(*histogram.cells.T.tolist()))
    specs = [
        PartitionSpec(
            partition_id=pid,
            cells=cells[start:end],
            point_count=cum[end] - cum[start],
            shadow_cells={cells[r] for r in srows.tolist()},
            shadow_count=int(ssum),
        )
        for pid, ((start, end), srows, ssum) in enumerate(zip(runs, shadow_rows, shadow_sums))
    ]
    return PartitionPlan(histogram.eps, specs, target_size=target, final_target_size=final_target)


def _form_runs(cum: np.ndarray, n_partitions: int, minpts: int, target: float) -> list[Run]:
    """§3.1.2's forming pass as cuts of the cumulative count ``cum``.

    A partition closes before the first cell that would carry it past its
    effective target; a binary search over ``cum`` finds that cell, and
    the exact integer-vs-float test settles the last step (``base +
    effective`` may round).  Empty partitions pad the tail.
    """
    n = len(cum) - 1
    cum_f = cum.astype(np.float64)
    runs: list[Run] = []
    start, running_diff, effective = 0, 0.0, target
    while start < n:
        end = n  # the final partition absorbs the remainder
        if len(runs) < n_partitions - 1:
            base = int(cum[start])
            end = max(int(np.searchsorted(cum_f, base + effective, side="right")) - 1, start + 1)
            while end > start + 1 and int(cum[end]) - base > effective:
                end -= 1
            while end < n and int(cum[end + 1]) - base <= effective:
                end += 1
            running_diff += int(cum[end]) - base - target
            # Shrink the next target while we are ahead of schedule, with
            # MinPts as the floor (§3.1.2's second profitability rule).
            effective = max(target - max(running_diff, 0.0), float(minpts))
        runs.append((start, end))
        start = end
    return runs + [(n, n)] * (n_partitions - len(runs))


def _shadows(runs: list[Run], neighbors: np.ndarray, counts: np.ndarray) -> tuple:
    """Every ``(partition, row)`` shadow pair, sorted by partition then
    row — ``row`` neighbors a cell the partition owns, and another
    partition owns it — and each partition's shadow point count."""
    n = len(neighbors)
    owner = np.empty(n, dtype=np.int64)
    for pid, (start, end) in enumerate(runs):
        owner[start:end] = pid
    part = np.repeat(owner, neighbors.shape[1])
    rows = neighbors.ravel()
    hit = rows >= 0
    part, rows = part[hit], rows[hit]
    hit = owner[rows] != part
    part, rows = np.divmod(np.unique(part[hit] * n + rows[hit]), max(n, 1))
    return part, rows, np.bincount(part, weights=counts[rows], minlength=len(runs))


def _rebalance(
    runs: list[Run], cum: list[int], counts: np.ndarray, neighbors: np.ndarray,
    minpts: int, threshold_factor: float,
) -> float:
    """Fig 2c: move cells backward-to-forward until below the threshold.

    Moves run boundaries in place and returns the final target size.
    """
    m = sum(1 for start, end in runs if end > start)  # non-empty runs lead
    shadow = _shadows(runs, neighbors, counts)[2]
    totals = [cum[e] - cum[s] + int(shadow[pid]) for pid, (s, e) in enumerate(runs[:m])]
    if m < 2:
        return totals[0] if m else 0.0
    final_target = sum(totals) / m
    threshold = threshold_factor * final_target

    # "Starting at the last partition formed we remove a grid cell, update
    # the shadow region, and repeat until a specified threshold size is
    # reached.  The removed grid cells are then added to the second-last
    # partition ... repeated for each partition, working sequentially
    # backward through the partitions until we reach the first."
    #
    # The shadow count is maintained *incrementally* per removal (O(1)
    # neighborhood work instead of a full recomputation), which keeps
    # rebalancing O(cells) overall.  A partition that received cells from
    # its successor starts from its recomputed shadow.
    received = False
    for pid in range(m - 1, 0, -1):
        start, end = runs[pid]
        first = start
        size = cum[end] - cum[start]
        shadow_count = _run_shadow(start, end, counts, neighbors) if received else int(shadow[pid])
        deltas: list[int] = []  # deltas[i]: shedding head ``first + i``
        while end - start > 1 and size + shadow_count > threshold:
            head = int(counts[start])
            if size - head < minpts:
                break  # never shrink a partition below MinPts points
            if size - head < 0.5 * threshold:
                # Shadow regions alone can exceed the threshold for thin
                # partitions abutting dense areas; draining such a
                # partition would just snowball its points backward (all
                # the way to partition 0, which has nowhere to shed).
                # Keep at least half a target of own points instead.
                break
            if start - first == len(deltas):
                hi = min(start + max(len(deltas), 64), end - 1)
                deltas += _shed_deltas(start, hi, end, counts, neighbors)
            size -= head
            shadow_count += deltas[start - first]
            start += 1
        received = start > first
        runs[pid] = (start, end)
        runs[pid - 1] = (runs[pid - 1][0], start)
    return final_target


def _run_shadow(start: int, end: int, counts: np.ndarray, neighbors: np.ndarray) -> int:
    """Point count of the shadow of the run ``[start, end)``."""
    rows = neighbors[start:end].ravel()
    rows = np.unique(rows[(rows >= 0) & ((rows < start) | (rows >= end))])
    return int(counts[rows].sum())


def _shed_deltas(
    lo: int, hi: int, end: int, counts: np.ndarray, neighbors: np.ndarray
) -> list[int]:
    """For each head ``h`` in ``[lo, hi)``, the change of the shadow count
    of the run ``[h, end)`` when ``h`` leaves it: the head becomes shadow
    if it touches ``[h + 1, end)``, and each of its neighbors outside that
    run stops being shadow unless something in the run still touches it.
    A neighbor listed twice counts twice."""
    first = np.arange(lo + 1, hi + 1)[:, None]
    around = neighbors[lo:hi]
    exists = around >= 0
    inside = (around >= first) & (around < end)
    # Absent neighbors (-1) never touch a run: every run starts past 0.
    second = neighbors[np.where(exists, around, 0)]
    touches = ((second >= first[:, :, None]) & (second < end)).any(axis=2)
    leaving = exists & ~inside & ~touches
    delta = np.where(inside.any(axis=1), counts[lo:hi], 0)
    delta -= np.where(leaving, counts[around], 0).sum(axis=1)
    return delta.tolist()


class Router:
    """A plan as a routing table, built once and used for every slice of
    points routed under it.

    A point's Eps-cell finds the owned cell's row in one lookup
    (:class:`~repro.partition.grid.CellIndex`: a dense table over the
    owned cells' frame when ``n_points``, the points the plan will route,
    bound it; a binary search otherwise).  The row gives the owner, and a
    CSR over the rows gives the partitions whose shadow holds the cell.
    """

    def __init__(self, plan: PartitionPlan, n_points: int) -> None:
        specs = plan.partitions
        self.eps = plan.eps
        self.n_partitions = len(specs)
        own = cell_array(chain.from_iterable(spec.cells for spec in specs))
        self.index = CellIndex(own, n_points)
        if not self.index.unique:
            plan.cell_owner()  # raises, naming the doubly-owned cell
        # Block ``2p`` holds partition p's own rows, ``2p + 1`` its shadow
        # rows.  The narrowest dtype gets numpy's radix sort.
        dtype = np.min_scalar_type(max(2 * len(specs) - 1, 0))
        blocks = 2 * np.arange(len(specs))
        self.own_block = np.repeat(blocks, [spec.n_cells for spec in specs]).astype(dtype)
        # A shadow cell nobody owns holds no point (routing would raise).
        rows = self.index.rows(cell_array(chain.from_iterable(spec.shadow_cells for spec in specs)))
        shadow_blocks = np.repeat(blocks + 1, [len(spec.shadow_cells) for spec in specs])
        listed = rows >= 0
        rows, shadow_blocks = rows[listed], shadow_blocks[listed]
        # CSR: owned row r lists its shadow blocks at
        # ``shadow_block[shadow_start[r]:][:shadow_count[r]]``.
        count = np.bincount(rows, minlength=len(own))
        self.shadow_start = np.cumsum(count) - count
        self.shadow_count = count.astype(np.min_scalar_type(count.max(initial=0)))
        self.shadow_block = shadow_blocks[np.argsort(rows, kind="stable")].astype(dtype)

    def route(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``coords`` in ``2 * n_partitions`` blocks, each
        ascending: partition 0's own rows, its shadow rows, partition 1's
        own rows, and so on.  Returns the rows and the block sizes."""
        n = len(coords)
        cells = cell_of_coords(coords, self.eps) if n else np.empty((0, 2), np.int64)
        row = self.index.rows(cells)
        covered = row >= 0
        if not np.all(covered):
            unowned = sorted(set(map(tuple, cells[~covered].tolist())))
            raise PartitionError(
                f"{len(unowned)} non-empty cells not covered by the plan, e.g. {unowned[:3]}"
            )
        # One (block, point) listing per membership: the owner's for
        # every point, then the shadow listings of the points with any.
        reps = self.shadow_count[row]
        shadowed = np.flatnonzero(reps > 0)  # ~6x faster than on the counts
        reps = reps[shadowed]
        block = np.concatenate((
            self.own_block[row],
            self.shadow_block[run_positions(self.shadow_start[row[shadowed]], reps)],
        ))
        point = np.concatenate((np.arange(n), np.repeat(shadowed, reps)))
        # Stable: points ascend inside each block.
        order = np.argsort(block, kind="stable")
        return point[order], np.bincount(block, minlength=2 * self.n_partitions)


def gather(
    points: PointSet, rows: np.ndarray, sizes: np.ndarray
) -> list[tuple[PointSet, PointSet]]:
    """Every partition's ``(points, shadow_points)`` from rows in
    :meth:`Router.route`'s blocks: one ``np.take`` per column, then each
    view a slice of the result."""
    ids = np.take(points.ids, rows)
    coords = np.take(points.coords, rows, axis=0)
    weights = np.take(points.weights, rows)
    ends = np.cumsum(sizes).tolist()
    views = [
        PointSet(ids[a:b], coords[a:b], weights[a:b]) for a, b in zip([0] + ends, ends)
    ]
    return list(zip(views[0::2], views[1::2]))


def partition_points(
    points: PointSet, plan: PartitionPlan
) -> list[tuple[PointSet, PointSet]]:
    """Materialise a plan: per-partition ``(points, shadow_points)``.

    Partition points are those whose Eps-cell the partition owns; shadow
    points are those in the partition's shadow cells (they are partition
    points of a neighboring partition — the duplication is the §3.1.1
    correctness mechanism).  Both come out in ascending input order.
    """
    return gather(points, *Router(plan, len(points)).route(points.coords))


def append_points(
    partitions: list[tuple[PointSet, PointSet]],
    batch: PointSet,
    before: PartitionPlan,
    after: PartitionPlan,
) -> list[tuple[PointSet, PointSet]]:
    """Materialise ``after`` over the resident points plus ``batch`` by
    appending the batch to ``partitions = partition_points(resident,
    before)`` instead of re-routing the resident points.

    ``after`` is ``before`` with cells adopted for the batch (appended to
    the adopters' cell lists) and refreshed shadows.  Precondition: ids
    ascend in input order and every batch id exceeds every resident id,
    as the daemon's row-position ids do.  Then the result equals
    ``partition_points(resident.concat(batch), after)`` byte for byte:

    - own rows are the old own rows, then the batch rows in owned cells
      (adoption only takes cells empty in ``before``, so the old own rows
      are still every resident point of the partition's cells);
    - shadow rows are the old shadow rows merged by id with the resident
      rows of cells newly in the shadow (shadows only grow; such a cell
      sits beside an adopted one, and its rows come from its owner's own
      rows), then the batch rows in shadow cells.

    A partition that gains no rows comes back as the same object.
    """
    eps = after.eps
    pairs = list(zip(before.partitions, after.partitions))
    adopted = set(chain.from_iterable(new.cells[len(old.cells):] for old, new in pairs))
    owner = after.cell_owner() if adopted else {}
    routed = partition_points(batch, after)
    result = []
    for partition, (batch_own, batch_shadow), (old, new) in zip(partitions, routed, pairs):
        moved = new.shadow_cells - old.shadow_cells - adopted
        if not (moved or len(batch_own) or len(batch_shadow)):
            result.append(partition)
            continue
        own, shadow = partition
        for pid in sorted({owner[cell] for cell in moved}):
            donor = partitions[pid][0]
            cells = cell_of_coords(donor.coords, eps)
            frame = CellFrame(cells)
            rows = np.isin(frame.keys(cells), frame.keys(cell_array(moved)))
            shadow = shadow.concat(donor.take(rows))
        if moved:
            shadow = shadow.take(np.argsort(shadow.ids))
        result.append((own.concat(batch_own), shadow.concat(batch_shadow)))
    return result
