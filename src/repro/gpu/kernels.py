"""Shared kernel primitives and cost accounting for the simulated GPU.

The numerical work of the clustering algorithms is vectorised numpy (the
"lanes"), but each primitive here also *accounts* for what the equivalent
CUDA kernel would do: how many candidate distances each thread evaluates,
how many candidate pairs each batched launch covers.  The accounting is
what makes the reproduced GPU-time figures (Fig 9c, Fig 10) derive from
real operation counts instead of Python wall-clock.  Pass 1 is charged
from each point's candidate count and core flag alone
(:func:`expected_scan_ops`): the csr engine stops counting at MinPts, so
nothing here asks for a core point's exact neighbour count.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .treeindex import FlatTree, runs

__all__ = [
    "DISK_STENCIL_RATIO",
    "expected_scan_ops",
    "DEFAULT_BATCH_PAIRS",
    "MIN_BATCH_PAIRS",
    "iter_position_batches",
    "iter_class_pairs",
    "walk_claims",
]

#: Candidate point-pairs evaluated per batched kernel "launch".  A batch
#: of 4M pairs holds its index pairs, gathered coordinates and d² — a few
#: hundred MB of transient arrays, the fixed scratch buffer one
#: grid-stride launch works over.
DEFAULT_BATCH_PAIRS = 4_194_304

#: Floor for the batch size when ``memory_chunks`` shrinks it (the OOM
#: degradation path divides the default by the chunk count).
MIN_BATCH_PAIRS = 65_536

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
    a tree built with the default radius.  Each class is the tree's
    ``order`` filtered, so every interacting box pair is one rows×columns
    quad for :func:`iter_position_batches`; columns come only from boxes
    that meet a row box.  Yields original point indices.
    """
    n_boxes = tree.n_leaf_boxes
    order = tree.order
    rows = order[row_mask[order] & ~col_mask[order]]
    r_count = np.bincount(tree.point_leaf[rows], minlength=n_boxes)

    a, b = tree.leaf_pairs()
    off = a != b
    qa = np.concatenate((a, b[off]))
    qb = np.concatenate((b, a[off]))
    boxes = np.flatnonzero(np.bincount(qb[r_count[qa] > 0], minlength=n_boxes))
    size = tree.level_count[-1][boxes]
    cols = order[runs(tree.level_start[-1][boxes], size)]
    held = col_mask[cols]
    cols = cols[held]
    c_count = np.bincount(np.repeat(boxes, size)[held], minlength=n_boxes)
    r_start = np.cumsum(r_count) - r_count
    c_start = np.cumsum(c_count) - c_count
    for u, v in iter_position_batches(
        r_start[qa], r_count[qa], c_start[qb], c_count[qb], batch_pairs=batch_pairs
    ):
        yield rows[u], cols[v]


def walk_claims(
    tree: FlatTree,
    coords: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    *,
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every ``(non-core point, core point)`` pair within Eps: a leaf's
    one walk of non-core rows × core columns.

    The pairs are §3.2.2's claims ("all of that point's neighbors are
    marked as being members of the cluster"): the border pass labels each
    claimed point from its nearest claimer, and
    :func:`repro.merge.summarize_leaf` keeps them all.  ``tree`` is any
    tree whose leaf boxes are the Eps-cells of ``coords``; the test is
    ``dx*dx + dy*dy <= eps*eps`` in float64 on the original coordinates.

    Returns ``(claims, d2, batch_candidates)``: the ``(m, 2)`` index
    pairs, their d², and the candidate count of every evaluated batch.
    """
    x, y = coords[:, 0], coords[:, 1]
    eps2 = float(eps) * float(eps)
    noncore = ~core_mask
    pairs, dists, batches = [np.empty((0, 2), dtype=np.int64)], [np.empty(0)], []
    if noncore.any() and core_mask.any():
        for r, c in iter_class_pairs(tree, noncore, core_mask, batch_pairs=batch_pairs):
            batches.append(len(r))
            dx = x[r] - x[c]
            dy = y[r] - y[c]
            d2 = dx * dx + dy * dy
            within = d2 <= eps2
            pairs.append(np.stack((r[within], c[within]), axis=1))
            dists.append(d2[within])
    return np.concatenate(pairs), np.concatenate(dists), batches
