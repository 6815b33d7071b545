"""Shared kernel primitives and cost accounting for the simulated GPU.

The numerical work of the clustering algorithms is vectorised numpy (the
"lanes"), but each primitive here also *accounts* for what the equivalent
CUDA kernel would do: how many candidate distances each thread evaluates,
how many blocks a bulk launch covers.  The accounting is what makes the
reproduced GPU-time figures (Fig 9c, Fig 10) derive from real operation
counts instead of Python wall-clock.  Pass 1 is charged from each point's
candidate count and core flag alone (:func:`expected_scan_ops`): the csr
engine stops counting at MinPts, so nothing here asks for a core point's
exact neighbour count.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..dbscan.grid_index import GridIndex
from ..sorting import stable_order
from .device import SimulatedDevice
from .treeindex import FlatTree

__all__ = [
    "candidate_counts",
    "DISK_STENCIL_RATIO",
    "expected_scan_ops",
    "bulk_launches",
    "charge_pass",
    "DEFAULT_BATCH_PAIRS",
    "MIN_BATCH_PAIRS",
    "iter_position_batches",
    "iter_class_pairs",
    "NeighborPairs",
    "neighbor_pairs",
    "CSRNeighborhoods",
    "csr_neighborhoods",
]

#: Candidate point-pairs evaluated per batched kernel "launch".  4M pairs
#: is a few hundred MB of transient arrays — the same scratch budget the
#: block engine's GridIndex scan uses.
DEFAULT_BATCH_PAIRS = 4_194_304

#: Floor for the batch size when ``memory_chunks`` shrinks it (the OOM
#: degradation path divides the default by the chunk count).
MIN_BATCH_PAIRS = 65_536


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


#: Ratio of the Eps-disk area to the 3×3 stencil area: the expected share
#: of a point's candidates that are true neighbors.
DISK_STENCIL_RATIO: float = np.pi / 9.0


def expected_scan_ops(
    candidates: np.ndarray, is_core: np.ndarray | bool, minpts: int
) -> np.ndarray:
    """Expected distance evaluations with MinPts-capped early termination.

    Mr. Scan's pass 1 stops a point's neighbor scan "as soon as MinPts is
    reached" (§3.2.2).  Scanning candidates in arbitrary order, the
    expected number examined before seeing ``minpts`` of the point's
    ``k`` true neighbors among ``c`` candidates is ``c * minpts / (k + 1)``
    (negative-hypergeometric mean); non-core points scan everything.
    ``k`` is modelled as the disk share of the stencil, ``max(π/9·c, 1)``,
    rather than taken from the run: a pass 1 that really stops at MinPts
    never learns a core point's exact count, and the paper-scale work law
    (``repro.perf.workload``) has only the histogram to go on.
    """
    c = np.asarray(candidates, dtype=np.float64)
    k = np.maximum(DISK_STENCIL_RATIO * c, 1.0)
    return np.where(is_core, np.minimum(c * minpts / (k + 1.0), c), c)


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


def iter_position_batches(
    a_start: np.ndarray,
    a_count: np.ndarray,
    b_start: np.ndarray,
    b_count: np.ndarray,
    diag: np.ndarray | None = None,
    *,
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Expand slice-cross-product quads into bounded position-pair batches.

    Each quad ``i`` is the cross product of two contiguous position
    ranges ``[a_start[i], a_start[i] + a_count[i])`` ×
    ``[b_start[i], b_start[i] + b_count[i])`` — the csr engine's unit of
    work: "all points of box A against all points of box B".  Quads
    larger than ``batch_pairs`` are split along the A side, then
    contiguous quads are grouped so every yielded batch evaluates on the
    order of ``batch_pairs`` candidate pairs — the simulated analogue of
    one grid-stride kernel launch over a bounded scratch buffer.

    Quads flagged in ``diag`` are self-interactions of one slice: only
    the upper triangle ``u <= v`` is yielded (the symmetric half is the
    caller's to mirror), and the ``u == v`` self-pair appears exactly
    once.  The flag survives A-side splitting because the filter uses
    absolute positions.
    """
    a_start = np.asarray(a_start, dtype=np.int64)
    a_count = np.asarray(a_count, dtype=np.int64)
    b_start = np.asarray(b_start, dtype=np.int64)
    b_count = np.asarray(b_count, dtype=np.int64)
    if diag is None:
        diag = np.zeros(len(a_start), dtype=bool)
    else:
        diag = np.asarray(diag, dtype=bool)
    batch_pairs = max(int(batch_pairs), 1)

    live = (a_count > 0) & (b_count > 0)
    if not np.all(live):
        a_start, a_count = a_start[live], a_count[live]
        b_start, b_count = b_start[live], b_count[live]
        diag = diag[live]
    if not len(a_start):
        return
    # Positions fit int32 for any realistic leaf; halving index width
    # halves the memory traffic of the expansion, which is bandwidth-bound.
    max_pos = max(int((a_start + a_count).max()), int((b_start + b_count).max()))
    pos_dtype = np.int32 if max_pos < np.iinfo(np.int32).max else np.int64

    prod = a_count * b_count
    if int(prod.max()) > batch_pairs:
        # Split oversized quads along the A side into chunks whose
        # product fits one batch.
        rows_per = np.maximum(1, batch_pairs // b_count)
        n_chunks = -(-a_count // rows_per)
        rep = np.repeat(np.arange(len(a_count), dtype=np.int64), n_chunks)
        offs = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        chunk = np.arange(int(n_chunks.sum()), dtype=np.int64) - offs[rep]
        starts = a_start[rep] + chunk * rows_per[rep]
        a_count = np.minimum(rows_per[rep], a_start[rep] + a_count[rep] - starts)
        a_start = starts
        b_start, b_count, diag = b_start[rep], b_count[rep], diag[rep]
        prod = a_count * b_count

    # Greedy contiguous grouping: a batch ends where the running total
    # crosses a batch_pairs boundary, so batches stay near the target.
    cum = np.cumsum(prod)
    batch_id = (cum - 1) // batch_pairs
    cuts = np.flatnonzero(batch_id[1:] != batch_id[:-1]) + 1
    edges = np.concatenate(([0], cuts, [len(prod)]))
    totals = cum[edges[1:] - 1] - np.concatenate(([0], cum[edges[1:-1] - 1]))
    a_start = a_start.astype(pos_dtype)
    a_count = a_count.astype(pos_dtype)
    b_start = b_start.astype(pos_dtype)
    b_count = b_count.astype(pos_dtype)
    # One shared index ramp sized to the largest batch; every per-batch
    # sequence is a slice of it.
    ramp = np.arange(int(totals.max()), dtype=pos_dtype)
    for s, e, total in zip(edges[:-1], edges[1:], totals):
        total = int(total)
        if not total:
            continue
        na, nb = a_count[s:e], b_count[s:e]
        # Two-stage repeat expansion (rows, then candidates per row): no
        # integer division in the hot path, and the position arrays come
        # out as runs of consecutive values, so downstream coordinate
        # gathers stay cache-friendly.  The per-quad and per-row base
        # arrays fold the cumulative offsets in *before* expansion, so
        # the candidate-length stage is just gather + add.
        n_rows = int(na.sum())
        row_quad = np.repeat(np.arange(e - s, dtype=pos_dtype), na)
        row_first = np.zeros(e - s, dtype=pos_dtype)
        np.cumsum(na[:-1], out=row_first[1:])
        row_u = (a_start[s:e] - row_first)[row_quad]
        row_u += ramp[:n_rows]
        per_row = nb[row_quad]
        cand_first = np.zeros(n_rows, dtype=pos_dtype)
        np.cumsum(per_row[:-1], out=cand_first[1:])
        row_vb = b_start[s:e][row_quad] - cand_first
        cand_row = np.repeat(ramp[:n_rows], per_row)
        u = row_u[cand_row]
        v = row_vb[cand_row]
        v += ramp[:total]
        if diag[s:e].any():
            dm = diag[s:e][row_quad][cand_row]
            keep = ~dm | (u <= v)
            u, v = u[keep], v[keep]
        yield u, v


def iter_class_pairs(
    tree: FlatTree,
    row_mask: np.ndarray,
    col_mask: np.ndarray,
    *,
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Candidate ``(row point, column point)`` index pairs, in batches.

    Rows are the points of ``row_mask``, columns those of ``col_mask``
    (where a point is in both, it is a column); a pair is a candidate when
    the two points' leaf boxes interact, i.e. the 3×3 Eps-cell stencil for
    a tree built with the default radius.  Within each leaf box the two
    classes are grouped contiguously, so every interacting box pair is one
    rows×columns quad for :func:`iter_position_batches`; points of neither
    class are never expanded.  Yields original point indices.
    """
    n_boxes = tree.n_leaf_boxes
    order = tree.order
    # Three classes per box: 0 rows, 1 columns, 2 everything else.
    cls = np.full(tree.n_points, 2, dtype=np.int64)
    cls[row_mask] = 0
    cls[col_mask] = 1
    key = tree.point_leaf[order] * 3 + cls[order]
    ord3 = order[stable_order(key, (3 * n_boxes - 1).bit_length())]
    cnt3 = np.bincount(key, minlength=3 * n_boxes)
    st3 = np.zeros(3 * n_boxes, dtype=np.int64)
    np.cumsum(cnt3[:-1], out=st3[1:])
    r_start, r_count = st3[0::3], cnt3[0::3]
    c_start, c_count = st3[1::3], cnt3[1::3]

    a, b = tree.leaf_pairs()
    off = a != b
    qa = np.concatenate((a, b[off]))
    qb = np.concatenate((b, a[off]))
    for u, v in iter_position_batches(
        r_start[qa], r_count[qa], c_start[qb], c_count[qb], batch_pairs=batch_pairs
    ):
        yield ord3[u], ord3[v]


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
    """Materialised CSR eps-neighborhoods (row-sorted), built batch-wise.

    This is the conformance-facing form of :func:`neighbor_pairs`; the
    cluster engine itself consumes the pair batches in a streaming
    fashion and never materialises the full adjacency for large leaves.
    """
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
