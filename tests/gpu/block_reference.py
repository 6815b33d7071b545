"""The per-cell ``block`` engine and the whole-leaf pair builders — the
cluster-phase oracle.

``repro.gpu.mrscan_gpu`` runs both passes as batched whole-leaf kernels.
This module keeps what they replaced: ``block_mrscan_gpu`` is the
``engine="block"`` branch of ``mrscan_gpu`` as it was — a ``GridIndex``
count, ``core_components``' per-cell loop and ``assign_border_points``'
per-cell argmin — with its bulk-launch accounting (``candidate_counts``,
``bulk_launches``, ``charge_pass``), plus one more per-cell loop for the
claims the whole-leaf border pass hands to ``summarize_leaf``.  The
conformance tests hold the kernels to it: labels, core masks, claims and
modelled pass-1/pass-2 operation counts byte-identical.

``neighbor_pairs`` / ``csr_neighborhoods`` materialise every eps-neighbor
pair of a leaf from a ``FlatTree``; the tree's property tests check them
against brute force.  ``assert_fresh_cell_index`` holds a leaf's carried
``CellIndex`` to its definition, built from scratch with ``np.unique``.
It is not a test module, and nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dbscan.grid_index import GridIndex
from repro.dbscan.reference import assign_border_points, core_components
from repro.gpu.densebox import (
    CELL_REACH,
    DenseBoxResult,
    build_densebox_tree,
    densebox_edge,
    find_dense_boxes,
)
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernels import DEFAULT_BATCH_PAIRS, expected_scan_ops, iter_position_batches
from repro.gpu.mrscan_gpu import GPUClusterResult, MrScanGPUStats, _canonical_remap, _chunk_sizes
from repro.gpu.treeindex import FlatTree
from repro.points import NOISE, PointSet

# ---------------------------------------------------------------------- #
# Bulk-launch accounting
# ---------------------------------------------------------------------- #


def candidate_counts(index: GridIndex) -> np.ndarray:
    """Per-point candidate-set size: points in the 3×3 Eps-cell stencil.

    This is the number of distance evaluations a *full* neighbor scan of
    each point performs with the grid index (the KD-tree visits a similar
    candidate set; the grid stencil is the cleaner closed form).
    """
    n = len(index.points)
    counts = np.zeros(n, dtype=np.int64)
    cell_counts = index.cell_counts()
    stencil: dict[tuple[int, int], int] = {}
    for (cx, cy) in cell_counts:
        total = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                total += cell_counts.get((cx + dx, cy + dy), 0)
        stencil[(cx, cy)] = total
    for cell in cell_counts:
        members = index.cell_members(cell)
        counts[members] = stencil[cell]
    return counts


def bulk_launches(n_seeds: int, n_blocks: int) -> int:
    """Number of kernel launches to cover ``n_seeds`` one-per-block.

    "The next input seed point for DBSCAN is determined by the parameters
    of the CUDA kernel call", so seeds are covered in waves of
    ``n_blocks`` launches issued in bulk with no intervening copies.
    """
    if n_seeds <= 0:
        return 0
    return -(-n_seeds // n_blocks)  # ceil division


def charge_pass(
    device: SimulatedDevice, *, n_seeds: int, distance_ops: int
) -> None:
    """Record one bulk clustering pass on the device."""
    launches = bulk_launches(n_seeds, device.config.n_blocks)
    for _ in range(min(launches, 1)):
        # A single aggregated launch record keeps stats cheap; the launch
        # *count* still reflects the wave structure.
        device.launch(blocks=max(n_seeds, 1), distance_ops=int(distance_ops))
    if launches > 1:
        device.stats.kernel_launches += launches - 1


# ---------------------------------------------------------------------- #
# The block engine
# ---------------------------------------------------------------------- #


def block_claims(index: GridIndex, core_mask: np.ndarray) -> np.ndarray:
    """``(non-core point, core point)`` index pairs within Eps, one
    ``GridIndex`` cell at a time (``assign_border_points``' loop, keeping
    every pair and not only the nearest)."""
    eps2 = index.eps * index.eps
    coords = index.points.coords
    parts = [np.empty((0, 2), dtype=np.int64)]
    for cell in index.cell_counts():
        members = index.cell_members(cell)
        members = members[~core_mask[members]]
        cand = index.candidate_indices(cell)
        cand = cand[core_mask[cand]]
        d2 = (
            (coords[members, 0][:, None] - coords[cand, 0][None, :]) ** 2
            + (coords[members, 1][:, None] - coords[cand, 1][None, :]) ** 2
        )
        rows, cols = np.nonzero(d2 <= eps2)
        parts.append(np.stack((members[rows], cand[cols]), axis=1))
    return np.concatenate(parts)


def block_mrscan_gpu(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    device: SimulatedDevice | None = None,
    use_densebox: bool = True,
    memory_chunks: int = 1,
) -> GPUClusterResult:
    """``mrscan_gpu`` with the per-cell python passes: same staging,
    transfers and dense boxes, no pair-batch scratch."""
    device = device or SimulatedDevice()
    n = len(points)
    stats = MrScanGPUStats(n_points=n, memory_chunks=int(memory_chunks), engine="block")
    if n == 0:
        empty = DenseBoxResult(box_id=np.empty(0, dtype=np.int64), n_boxes=0, n_subdivisions=0)
        return GPUClusterResult(
            labels=np.empty(0, dtype=np.int64),
            core_mask=np.empty(0, dtype=bool),
            densebox=empty,
            stats=stats,
        )

    tree = build_densebox_tree(points, eps, minpts)
    tree_bytes = 32 * sum(len(keys) for keys in tree.level_keys)
    k = int(memory_chunks)
    device.alloc("boxtree", tree_bytes)
    points_slices = _chunk_sizes(points.coords.nbytes, k)
    state_slices = _chunk_sizes(17 * n, k)
    for c in range(k):
        device.alloc("points", points_slices[c])
        device.alloc("state", state_slices[c])
        device.h2d(points_slices[c] + (tree_bytes if c == 0 else 0))
        if c < k - 1:
            device.free("points")
            device.free("state")

    if use_densebox:
        densebox = find_dense_boxes(points, eps, minpts, tree=tree)
    else:
        densebox = DenseBoxResult(
            box_id=np.full(n, -1, dtype=np.int64), n_boxes=0, n_subdivisions=tree.n_leaf_boxes
        )
    in_box = densebox.box_id >= 0
    stats.n_boxes = densebox.n_boxes
    stats.n_eliminated = densebox.n_eliminated

    # --- pass 1: core classification with MinPts-capped scans ------------
    index = GridIndex(points, eps)
    counts = index.count_neighbors()
    core_mask = counts >= minpts
    # Dense-box members are provably core (>= MinPts mutual neighbors).
    assert not np.any(in_box & ~core_mask), "dense box produced a non-core member"

    cand = candidate_counts(index)
    nonbox = ~in_box
    ops1 = int(expected_scan_ops(cand[nonbox], core_mask[nonbox], minpts).sum())
    stats.pass1_ops = ops1
    charge_pass(device, n_seeds=int(nonbox.sum()), distance_ops=ops1)

    # --- pass 2: expand core points, collisions rectified on the CPU -----
    labels = np.full(n, NOISE, dtype=np.int64)
    claims = np.empty((0, 2), dtype=np.int64)
    core_idx = np.flatnonzero(core_mask)
    if len(core_idx):
        labels[core_idx] = core_components(points.coords[core_idx], eps)
        # Expansion cost: full candidate scan per expanded (non-box) core,
        # plus one box-adjacency probe per dense box.
        expand_mask = core_mask & nonbox
        ops2 = int(cand[expand_mask].sum()) + densebox.n_boxes * max(minpts, 8)
        stats.pass2_ops = ops2
        charge_pass(device, n_seeds=int(expand_mask.sum()), distance_ops=ops2)
        assign_border_points(index, labels, core_mask)
        claims = block_claims(index, core_mask)

    for nbytes in _chunk_sizes(9 * n, k):
        device.d2h(nbytes)
    device.free_all()
    _canonical_remap(labels)

    stats.n_core = int(core_mask.sum())
    stats.kernel_launches = device.stats.kernel_launches
    stats.sync_round_trips = device.stats.sync_points
    stats.device = device.stats.as_dict()
    return GPUClusterResult(
        labels=labels, core_mask=core_mask, densebox=densebox, stats=stats, claims=claims
    )


# ---------------------------------------------------------------------- #
# Whole-leaf neighbor pairs
# ---------------------------------------------------------------------- #


@dataclass
class NeighborPairs:
    """All ordered eps-neighbor pairs of a point set, batch-accounted.

    ``(rows[i], cols[i])`` means ``cols[i]`` is within Eps of ``rows[i]``
    (closed ball, self included once as ``(i, i)``).  ``batch_candidates``
    records how many candidate pairs each simulated kernel batch
    evaluated — the per-batch occupancy the device accounting charges.
    """

    n_points: int
    rows: np.ndarray
    cols: np.ndarray
    batch_candidates: list[int] = field(default_factory=list)

    @property
    def n_batches(self) -> int:
        return len(self.batch_candidates)

    @property
    def n_candidates(self) -> int:
        return int(sum(self.batch_candidates))

    def neighbor_counts(self) -> np.ndarray:
        """Per-point neighbor count (self included), like GridIndex."""
        return np.bincount(self.rows, minlength=self.n_points)


def neighbor_pairs(
    coords: np.ndarray,
    eps: float,
    *,
    tree: FlatTree | None = None,
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
) -> NeighborPairs:
    """Compute every eps-neighbor pair in a handful of vectorised passes.

    The tree's dual traversal yields interacting leaf-box pairs; each
    unordered box pair is expanded once (diagonal boxes upper-triangle
    only) and the surviving pairs are mirrored, so every candidate
    distance is evaluated exactly once — half the work of the per-cell
    3×3 stencil scan, with no python loop over cells.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return NeighborPairs(0, empty, empty, [])
    if tree is None:
        tree = FlatTree(coords, eps)
    a, b = tree.leaf_pairs()
    start, count = tree.level_start[-1], tree.level_count[-1]
    order = tree.order
    eps2 = float(eps) * float(eps)
    x, y = coords[:, 0], coords[:, 1]
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    batch_candidates: list[int] = []
    for u, v in iter_position_batches(
        start[a], count[a], start[b], count[b], a == b, batch_pairs=batch_pairs
    ):
        batch_candidates.append(len(u))
        r, c = order[u], order[v]
        dx = x[r] - x[c]
        dy = y[r] - y[c]
        within = dx * dx + dy * dy <= eps2
        r, c = r[within], c[within]
        mirror = r != c
        rows_parts.append(np.concatenate((r, c[mirror])))
        cols_parts.append(np.concatenate((c, r[mirror])))
    rows = np.concatenate(rows_parts) if rows_parts else empty
    cols = np.concatenate(cols_parts) if cols_parts else empty
    return NeighborPairs(n, rows, cols, batch_candidates)


@dataclass
class CSRNeighborhoods:
    """Whole-leaf eps-neighbor lists in CSR layout.

    Row ``i``'s neighbors (self included) are
    ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending — the layout a
    real GPU kernel would hand to the expansion pass.
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_batches: int = 0
    n_candidates: int = 0

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def csr_neighborhoods(
    coords: np.ndarray,
    eps: float,
    *,
    tree: FlatTree | None = None,
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
) -> CSRNeighborhoods:
    """Materialised CSR eps-neighborhoods (row-sorted), built batch-wise
    from :func:`neighbor_pairs`."""
    pairs = neighbor_pairs(coords, eps, tree=tree, batch_pairs=batch_pairs)
    n = pairs.n_points
    counts = pairs.neighbor_counts()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pack = pairs.rows * np.int64(max(n, 1)) + pairs.cols
    pack.sort()
    indices = pack % np.int64(max(n, 1))
    return CSRNeighborhoods(
        indptr=indptr,
        indices=indices,
        n_batches=pairs.n_batches,
        n_candidates=pairs.n_candidates,
    )


# ---------------------------------------------------------------------- #
# Cell index
# ---------------------------------------------------------------------- #


def assert_fresh_cell_index(index, coords: np.ndarray, eps: float, core_mask: np.ndarray) -> None:
    """``index`` (a ``CellIndex``) is what its definition gives for the
    view ``coords`` with core flags ``core_mask``: the dense-box cells in
    row-major order, each one's rows ascending, row and core counts and
    lowest core row — and its frame keeps every cell a stencil's reach
    inside, and its row order takes 4 B a row."""
    cells = np.floor(coords / densebox_edge(eps)).astype(np.int64)
    want_cells, cell = np.unique(cells, axis=0, return_inverse=True)
    cell = cell.ravel()
    n_cells = len(want_cells)
    count = np.bincount(cell, minlength=n_cells)
    core_row = np.full(n_cells, len(coords))
    np.minimum.at(core_row, cell[core_mask], np.flatnonzero(core_mask))
    core_row[core_row == len(coords)] = -1

    (x0, y0), (w, h) = index.origin, index.shape
    ux, uy = index.keys // h, index.keys % h
    assert np.all(np.diff(index.keys) > 0)
    assert np.all((ux >= CELL_REACH) & (ux < w - CELL_REACH))
    assert np.all((uy >= CELL_REACH) & (uy < h - CELL_REACH))
    assert np.array_equal(np.stack((ux + x0, uy + y0), axis=1), want_cells.reshape(-1, 2))
    assert index.order.dtype == np.int32
    assert np.array_equal(index.order, np.argsort(cell, kind="stable"))
    assert np.array_equal(index.count, count)
    assert np.array_equal(index.start, np.cumsum(count) - count)
    assert np.array_equal(index.n_core, np.bincount(cell[core_mask], minlength=n_cells))
    assert np.array_equal(index.core_row, core_row)
