"""The append path: one leaf's output brought up to a view that only grew.

The serve daemon's dirty leaf sees its previous view plus *inserted* rows
(the batch's, and resident rows that adoption merges into its shadow).
Points only arrive, so an old core stays core and components only merge.
:func:`mrscan_gpu_append` takes the leaf's previous output and returns what
:func:`~repro.gpu.mrscan_gpu.mrscan_gpu` over the new view returns — core
mask, labels, and claim set with d², byte for byte — doing work only around
the inserted rows:

1. **Rows whose core flag can change** are the inserted rows and the old
   non-core rows within two dense-box cells (edge eps/√2) of one: a
   float64 pair within Eps lies at most two cells apart.  The
   **sub-view** is every row within two cells of those, so it holds
   each one's whole Eps-neighbourhood.  Its rows are grouped by cell
   (:class:`_CellIndex`), the same global cells the full pass's dense-box
   tree has.
2. **Core flags.**  A candidate in a dense box (``find_dense_boxes``'
   test on its cell) is core without a count; the rest are counted
   exactly over their two-cell stencil with the engines' float64 test.
3. **Components.**  Old cores keep their component.  The union-find runs
   over the sub-view's cells plus the old components, each cell joined
   to its old cores' component, so a new core joins the cores of its
   cell with no distance test; only the cell pairs of
   :meth:`FlatTree.leaf_pairs`' stencil that hold a new core are judged,
   by the full pass's own :func:`~repro.gpu.mrscan_gpu._join_cells`.
4. **Claims** are the old claims whose row stayed non-core, plus every
   pair the full pass's Eps-cell walk would find that holds a new core or
   an inserted row.  Borders and the numbering then come from
   :func:`~repro.gpu.mrscan_gpu._assign_borders` and
   :func:`~repro.gpu.mrscan_gpu._canonical_remap` over the whole view, the
   two calls the full pass ends with, so d²/index ties and numbering come
   out the same.

The result's ``stats`` count the work the append did: ``pass1_ops`` and
``pass2_ops`` are the distances it evaluated (counting; components and
claims), launches, batches and transfers are those of its sub-view, and
``n_points`` and ``n_core`` describe the whole view.  ``densebox`` holds
the dense boxes of the sub-view, indexed over the whole view.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..dbscan.disjoint_set import union_edges
from ..errors import ConfigError
from ..points import NOISE, PointSet
from ..sorting import stable_order
from .densebox import DenseBoxResult, densebox_edge
from .device import SimulatedDevice
from .kernels import iter_position_batches
from .mrscan_gpu import (
    GPUClusterResult,
    MrScanGPUStats,
    _assign_borders,
    _batch_blocks,
    _canonical_remap,
    _charge_batches,
    _finish_stats,
    _join_cells,
    _stage,
    _unstage,
)
from .treeindex import _MAX_AXIS_BITS, box_extents

__all__ = ["mrscan_gpu_append"]

#: Dense-box cells (edge eps/√2) between the two points of a float64 pair
#: within Eps, at most: ``floor(coord / edge)`` keeps a gap of up to √2
#: edges within two cells.
_REACH = 2


def _near(cx: np.ndarray, cy: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Mask of the cells ``(cx, cy)`` within :data:`_REACH` cells (per
    axis) of a cell ``(ax, ay)``: the latter's stencils packed as keys
    over their bounding box, and one key lookup per cell."""
    lo_x, lo_y = int(ax.min()) - _REACH, int(ay.min()) - _REACH
    w, h = int(ax.max()) + _REACH - lo_x + 1, int(ay.max()) + _REACH - lo_y + 1
    rx, ry = cx - lo_x, cy - lo_y
    # One unsigned test per axis: a negative offset wraps past the box.
    inside = np.flatnonzero((rx.view(np.uint64) < w) & (ry.view(np.uint64) < h))
    stencils = ((ax - lo_x) * h + (ay - lo_y))[:, None] + _stencil(h)
    mask = np.zeros(len(cx), dtype=bool)
    mask[inside] = np.isin(rx[inside] * h + ry[inside], stencils.ravel())
    return mask


def _stencil(h: int) -> np.ndarray:
    """Key offsets of the cells within :data:`_REACH` cells (per axis) of
    a cell, for keys packed as ``x * h + y``."""
    span = np.arange(-_REACH, _REACH + 1)
    return (span[:, None] * h + span[None, :]).ravel()


class _CellIndex:
    """Rows grouped by their cell ``(cx, cy)``: ``order`` sorts them by
    cell, and cell ``i`` (of sorted packed ``keys``) is the run
    ``order[start[i]:start[i] + count[i]]``; ``cell`` is each row's."""

    def __init__(self, cx: np.ndarray, cy: np.ndarray) -> None:
        x0, y0 = int(cx.min(initial=0)) - _REACH, int(cy.min(initial=0)) - _REACH
        self.h = int(cy.max(initial=0)) - y0 + _REACH + 1  # stencil offsets never wrap
        self.key = key = (cx - x0) * self.h + (cy - y0)
        self.order = stable_order(key, int(key.max(initial=0)).bit_length())
        ranked = key[self.order]
        head = np.flatnonzero(np.diff(ranked, prepend=-1))
        self.keys, self.start = ranked[head], head
        self.count = np.diff(head, append=len(ranked))
        self.cell = np.empty(len(key), dtype=np.int64)
        self.cell[self.order] = np.repeat(np.arange(len(head)), self.count)

    def _find(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell index of each probed key, and whether it exists."""
        at = np.minimum(np.searchsorted(self.keys, probe), len(self.keys) - 1)
        return at, self.keys[at] == probe

    def near_pairs(
        self, coords: np.ndarray, rows: np.ndarray, batch_pairs: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every row within :data:`_REACH` cells of each of ``rows``, in
        batches of ``(u, col, d2)``: ``u`` indexes ``rows``, and ``d2`` is
        the float64 ``dx*dx + dy*dy`` of row minus column, the engines'
        expression.  A direct stencil: the handful of rows an append asks
        about would not repay building a tree."""
        offsets = _stencil(self.h)
        at, hit = self._find((self.key[rows][:, None] + offsets).ravel())
        for u, v in iter_position_batches(
            np.repeat(np.arange(len(rows)), len(offsets)), np.ones(len(at), dtype=np.int64),
            self.start[at], np.where(hit, self.count[at], 0), batch_pairs=batch_pairs,
        ):
            a, b = rows[u], self.order[v]
            dx = coords[a, 0] - coords[b, 0]
            dy = coords[a, 1] - coords[b, 1]
            yield u, b, dx * dx + dy * dy

    def pairs(self, cells: np.ndarray, edge: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``cells`` against every cell within its interaction
        stencil: :meth:`FlatTree.leaf_pairs`' test — the gap between the
        two cells, ``(|Δ| - 1)`` edges per axis, under ``radius`` — over
        cells of ``edge``, within :data:`_REACH` cells."""
        span = np.arange(-_REACH, _REACH + 1)
        gap = (np.abs(span) - 1).clip(min=0) * edge
        dx, dy = np.meshgrid(span, span, indexing="ij")
        gx, gy = np.meshgrid(gap, gap, indexing="ij")
        near = (gx * gx + gy * gy < radius * radius) & ((dx != 0) | (dy != 0))
        offsets = (dx * self.h + dy)[near]
        at, hit = self._find((self.keys[cells][:, None] + offsets).ravel())
        return np.repeat(cells, len(offsets))[hit], at[hit]


def mrscan_gpu_append(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    old_rows: np.ndarray,
    labels: np.ndarray,
    core_mask: np.ndarray,
    claims: np.ndarray,
    claim_d2: np.ndarray,
    device: SimulatedDevice | None = None,
    use_densebox: bool = True,
    memory_chunks: int = 1,
) -> GPUClusterResult:
    """Update a leaf's output for its grown view ``points``.

    ``labels``, ``core_mask``, ``claims`` and ``claim_d2`` are a previous
    result over the old view (:func:`~repro.gpu.mrscan_gpu.mrscan_gpu` or
    this function); ``old_rows[i]`` is the position in ``points`` of the old
    view's row ``i``.  Every other row is inserted.  The previous arrays are
    only read.  ``use_densebox`` and ``memory_chunks`` act as in
    ``mrscan_gpu``; neither changes the result.
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")
    if memory_chunks < 1:
        raise ConfigError(f"memory_chunks must be >= 1, got {memory_chunks}")
    device = device or SimulatedDevice()
    n = len(points)
    coords = points.coords
    stats = MrScanGPUStats(n_points=n, memory_chunks=int(memory_chunks))
    old_rows = np.asarray(old_rows, dtype=np.int64)
    core_mask = np.asarray(core_mask, dtype=bool)
    inserted = np.ones(n, dtype=bool)
    inserted[old_rows] = False
    core = np.zeros(n, dtype=bool)
    core[old_rows] = core_mask
    # Old components, by their old labels: the union-find's seeds.
    n_comp = int(labels.max(initial=NOISE)) + 1
    seed = np.full(n, -1, dtype=np.int64)
    seed[old_rows[core_mask]] = labels[core_mask]
    claims = old_rows[claims]

    # Rows whose core flag can change, and the sub-view around them.
    cand, rows = inserted, np.empty(0, dtype=np.int64)
    edge = densebox_edge(eps)
    cx = np.floor(coords[:, 0] / edge).astype(np.int64)
    cy = np.floor(coords[:, 1] / edge).astype(np.int64)
    # A view the full pass's dense-box tree cannot key, refused alike.
    span = max(int(np.ptp(cx)), int(np.ptp(cy))) if n else 0
    if span.bit_length() > _MAX_AXIS_BITS:
        raise ConfigError(f"cell width {edge} is too small for the coordinate span")
    if inserted.any():
        ins, was_border = np.flatnonzero(inserted), old_rows[~core_mask]
        cand = inserted.copy()
        cand[was_border[_near(cx[was_border], cy[was_border], cx[ins], cy[ins])]] = True
        rows = np.flatnonzero(_near(cx, cy, cx[cand], cy[cand]))
    sc, s_cx, s_cy = coords[rows], cx[rows], cy[rows]
    s_cand, s_core = cand[rows], core[rows]

    # The sub-view's dense-box cells: its rows sorted by cell, one run each.
    cells = _CellIndex(s_cx, s_cy)
    n_cells = len(cells.keys)
    batch_pairs = _stage(device, sc, 16 * n_cells, memory_chunks)
    in_box = np.zeros(len(rows), dtype=bool)
    box_id = np.full(n, -1, dtype=np.int64)
    if use_densebox and len(rows):
        # find_dense_boxes' test: MinPts members whose extent is within Eps.
        x, y = sc[cells.order, 0], sc[cells.order, 1]
        x0, x1, y0, y1 = box_extents((x, x, y, y), cells.start)
        dx, dy = x1 - x0, y1 - y0
        dense = (cells.count >= minpts) & (dx * dx + dy * dy <= eps * eps)
        box_of_cell = np.cumsum(dense) - 1
        box_of_cell[~dense] = -1
        in_box = dense[cells.cell]
        box_id[rows] = box_of_cell[cells.cell]
    new = s_cand & in_box
    stats.n_boxes = len(np.unique(box_id[rows[new]]))
    stats.n_eliminated = int(new.sum())

    # --- core flags: the candidates no dense box settles, counted -------
    eps2 = float(eps) * float(eps)
    recount = np.flatnonzero(s_cand & ~in_box)
    if len(recount):
        counts = np.zeros(len(recount), dtype=np.int64)
        count_batches = []
        for u, _, d2 in cells.near_pairs(sc, recount, batch_pairs):
            count_batches.append(len(u))
            counts += np.bincount(u[d2 <= eps2], minlength=len(recount))
        new[recount[counts >= minpts]] = True
        stats.pass1_ops = sum(count_batches)
        stats.csr_batches += len(count_batches)
        _charge_batches(device, count_batches, stats.pass1_ops)
    s_core = s_core | new

    # --- components: new cores unioned into the old ones ----------------
    # Union-find nodes: the sub-view's cells, then the old components.  A
    # cell starts joined to its old cores' component (one per cell: a cell
    # is a clique), so only cell pairs holding a new core are judged.
    parent = np.arange(n_cells + n_comp)
    new_root = np.empty(0, dtype=np.int64)
    if new.any():
        s_seed = seed[rows]
        cores = cells.order[s_core[cells.order]]  # grouped by cell
        ccell, cseed = cells.cell[cores], s_seed[cores]
        old = cseed >= 0
        run = np.flatnonzero(np.diff(ccell[old] * n_comp + cseed[old], prepend=-1))
        parent, uf_rounds = union_edges(parent, ccell[old][run], n_cells + cseed[old][run])
        a, b = cells.pairs(np.unique(cells.cell[new]), edge, eps)
        parent, rounds, uf_batches = _join_cells(sc[cores], ccell, parent, a, b, eps, batch_pairs)
        uf_rounds += rounds
        new_root = parent[cells.cell[new]]
        stats.pass2_ops = sum(uf_batches)
        stats.csr_batches += len(uf_batches)
        _charge_batches(device, uf_batches, stats.pass2_ops)
        for _ in range(uf_rounds):
            device.launch(blocks=_batch_blocks(device, len(cores)))
    out_core = core.copy()
    out_core[rows[new]] = True
    out = np.full(n, NOISE, dtype=np.int64)
    out[old_rows[core_mask]] = parent[n_cells + labels[core_mask]]
    out[rows[new]] = new_root

    # --- claims: the old ones still standing, and the fresh ones --------
    # A fresh claim has an inserted row or a new core.  The full pass
    # walks its Eps-cell tree, whose stencil is the 3×3 Eps-cells, so a
    # fresh pair is one within Eps and one Eps-cell apart at most.
    claim_rows = ~s_core & inserted[rows]
    if new.any():
        nc = np.flatnonzero(~s_core)
        claim_rows[nc[_near(s_cx[nc], s_cy[nc], s_cx[new], s_cy[new])]] = True
    keep = ~out_core[claims[:, 0]]
    claims, claim_d2 = [claims[keep]], [claim_d2[keep]]
    claim_rows = np.flatnonzero(claim_rows)
    if len(claim_rows) and s_core.any():
        ex, ey = np.floor(sc[:, 0] / eps), np.floor(sc[:, 1] / eps)
        for u, b, d2 in cells.near_pairs(sc, claim_rows, batch_pairs):
            a = claim_rows[u]
            r, c = rows[a], rows[b]
            fresh = (
                (d2 <= eps2) & s_core[b] & (inserted[r] | ~core[c])
                & (np.abs(ex[a] - ex[b]) <= 1) & (np.abs(ey[a] - ey[b]) <= 1)
            )
            claims.append(np.stack((r[fresh], c[fresh]), axis=1))
            claim_d2.append(d2[fresh])
            stats.pass2_ops += len(u)
            stats.csr_batches += 1
            device.launch(blocks=_batch_blocks(device, len(u)))
    claims, claim_d2 = np.concatenate(claims), np.concatenate(claim_d2)
    _assign_borders(out, claims, claim_d2)
    _unstage(device, len(rows), memory_chunks)

    _canonical_remap(out)
    _finish_stats(stats, device, out_core)
    densebox = DenseBoxResult(box_id=box_id, n_boxes=stats.n_boxes, n_subdivisions=n_cells)
    return GPUClusterResult(
        labels=out, core_mask=out_core, densebox=densebox, stats=stats,
        claims=claims, claim_d2=claim_d2,
    )
