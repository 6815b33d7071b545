"""The append path: one leaf's output brought up to a view that only grew.

The serve daemon's dirty leaf sees its previous view plus *inserted* rows
(the batch's, and resident rows that adoption merges into its shadow).
Points only arrive, so an old core stays core and components only merge.
:func:`mrscan_gpu_append` takes the leaf's previous output and returns what
:func:`~repro.gpu.mrscan_gpu.mrscan_gpu` over the new view returns — core
mask, labels, and claim set with d², byte for byte — reading only the
dense-box cells (edge eps/√2) around the inserted rows.  The leaf keeps
its :class:`~repro.gpu.densebox.CellIndex` beside its output: the view's
rows grouped by cell, each cell's core count and lowest core row.  The
append grows that index by the inserted rows (no row of the view is
sorted, unless an insert leaves the index's key frame and it is built
afresh) and looks cells up by key:

1. **Rows whose core flag can change** are the inserted rows and the old
   non-core rows within two cells of one (a float64 pair within Eps lies
   at most two cells apart); only cells that hold a non-core row are read.
2. **Core flags.**  A candidate in a dense box (``find_dense_boxes``'
   test, on the candidates' cells only) is core without a count; the rest
   are counted exactly over their two-cell stencil with the engines'
   float64 test.
3. **Components.**  Old cores keep their component.  The union-find runs
   over the cells that hold a new core and the core-holding cells of
   their :meth:`FlatTree.leaf_pairs` stencil, plus the old components
   those cells hold, each such cell joined to its old component through
   its lowest core row (a cell is a clique).  Cell pairs whose cells
   already share a root are dropped, and only the rest are judged, over
   their cells' cores, by the full pass's own
   :func:`~repro.gpu.mrscan_gpu._join_cells`.
4. **Claims** are the old claims whose row stayed non-core, plus every
   pair the full pass's Eps-cell walk would find that holds a new core or
   an inserted row.  Borders and the numbering then come from
   :func:`~repro.gpu.mrscan_gpu._assign_borders` and
   :func:`~repro.gpu.mrscan_gpu._canonical_remap` over the whole view, the
   two calls the full pass ends with, so d²/index ties and numbering come
   out the same.

The result's ``stats`` count the work the append did: ``pass1_ops`` and
``pass2_ops`` are the distances it evaluated (counting; components and
claims), a launch per batch and per union-find round, one host→device copy
of the inserted rows and the index's cell table, one device→host copy of
the rows it read; ``n_points`` and ``n_core`` describe the whole view.
``densebox`` holds the dense boxes among the candidates' cells, indexed
over the whole view, and its ``n_subdivisions`` counts the cells read;
``rows_read`` counts their rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigError
from ..points import NOISE, PointSet
from .densebox import CELL_REACH, CellIndex, DenseBoxResult, densebox_edge
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
    _run_extents,
    _stage,
    _unstage,
)

__all__ = ["mrscan_gpu_append"]

_SPAN = np.arange(-CELL_REACH, CELL_REACH + 1)
_DX, _DY = (d.ravel() for d in np.meshgrid(_SPAN, _SPAN, indexing="ij"))


@lru_cache(maxsize=64)
def _pair_offsets(edge: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell offsets of :meth:`FlatTree.leaf_pairs`' stencil, the cell
    itself left out: the gap between two cells, ``(|Δ| - 1)`` edges per
    axis, under ``radius``."""
    gx = (np.abs(_DX) - 1).clip(min=0) * edge
    gy = (np.abs(_DY) - 1).clip(min=0) * edge
    near = (gx * gx + gy * gy < radius * radius) & ((_DX != 0) | (_DY != 0))
    return _DX[near], _DY[near]


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
    index: CellIndex,
    device: SimulatedDevice | None = None,
    use_densebox: bool = True,
    memory_chunks: int = 1,
) -> GPUClusterResult:
    """Update a leaf's output for its grown view ``points``.

    ``labels``, ``core_mask``, ``claims`` and ``claim_d2`` are a previous
    result over the old view (:func:`~repro.gpu.mrscan_gpu.mrscan_gpu` or
    this function), and ``index`` that result's cell index;
    ``old_rows[i]`` is the position in ``points`` of the old
    view's row ``i``, ascending.  Every other row is inserted.  The
    previous arrays and index are only read; the result carries the new
    view's index.  ``use_densebox`` and ``memory_chunks`` act as in
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
    ins = np.flatnonzero(inserted)
    cells = index.grown(old_rows, ins, coords[ins])
    if cells is None:  # an insert beyond the index's key frame
        cells = CellIndex.build(coords, densebox_edge(eps), core)
    batch_pairs = _stage(device, coords[ins], 16 * len(cells.keys), memory_chunks)
    start, count = cells.start, cells.count
    block = cells.offsets(_DX, _DY)
    read = np.zeros(len(cells.keys), dtype=bool)

    def gather(which: np.ndarray) -> np.ndarray:
        read[which] = True
        return cells.gather(which)

    def near_pairs(rows: np.ndarray):
        """Every row within two cells of each of ``rows``, in batches of
        ``(u, col, d2)``: ``u`` indexes ``rows``, and ``d2`` is the float64
        ``dx*dx + dy*dy`` of row minus column, the engines' expression."""
        i, at = cells.stencil(cells.locate(coords[rows]), block)
        read[at] = True
        for u, v in iter_position_batches(
            i, np.ones(len(i), dtype=np.int64), start[at], count[at], batch_pairs=batch_pairs
        ):
            a, b = rows[u], cells.order[v]
            dx = coords[a, 0] - coords[b, 0]
            dy = coords[a, 1] - coords[b, 1]
            yield u, b, dx * dx + dy * dy

    def noncore_near(which: np.ndarray, is_core: np.ndarray, n_core: np.ndarray) -> np.ndarray:
        """The non-core rows within two cells of the cells ``which``."""
        near = np.unique(cells.stencil(np.unique(which), block)[1])
        rows = gather(near[n_core[near] < count[near]])
        return rows[~is_core[rows]]

    # --- candidates: inserted rows, and old non-core rows beside one ----
    cand = np.union1d(ins, noncore_near(cells.locate(coords[ins]), core, cells.n_core))
    cand_cell = cells.locate(coords[cand])
    box_id = np.full(n, -1, dtype=np.int64)
    in_box = np.zeros(len(cand), dtype=bool)
    if use_densebox and len(cand):
        # find_dense_boxes' test on the candidates' cells: MinPts members
        # whose extent is within Eps.
        populous = np.unique(cand_cell)
        populous = populous[count[populous] >= minpts]
        if len(populous):
            x0, x1, y0, y1 = _run_extents(coords, gather(populous), count[populous])
            dx, dy = x1 - x0, y1 - y0
            dense = populous[dx * dx + dy * dy <= eps * eps]
            in_box = np.isin(cand_cell, dense)
            box_id[gather(dense)] = np.repeat(np.arange(len(dense)), count[dense])
            stats.n_boxes = len(dense)
    new = in_box.copy()
    stats.n_eliminated = int(in_box.sum())

    # --- core flags: the candidates no dense box settles, counted -------
    eps2 = float(eps) * float(eps)
    recount = np.flatnonzero(~in_box)
    if len(recount):
        counts = np.zeros(len(recount), dtype=np.int64)
        count_batches = []
        for u, _, d2 in near_pairs(cand[recount]):
            count_batches.append(len(u))
            counts += np.bincount(u[d2 <= eps2], minlength=len(recount))
        new[recount[counts >= minpts]] = True
        stats.pass1_ops = sum(count_batches)
        stats.csr_batches += len(count_batches)
        _charge_batches(device, count_batches, stats.pass1_ops)
    new_rows, new_cell = cand[new], cand_cell[new]
    is_core = core.copy()
    is_core[new_rows] = True
    n_core = cells.n_core + np.bincount(new_cell, minlength=len(cells.keys))

    # --- components: new cores unioned into the old ones ----------------
    # Union-find nodes: the cells holding a new core and the core-holding
    # cells of their pair stencil, then the old components those hold.
    # Each cell starts joined to its old cores' component, so only cell
    # pairs still apart after that are judged.
    n_comp = int(labels.max(initial=NOISE)) + 1
    comp = np.arange(n_comp + 1)
    comp[-1] = NOISE  # so that comp[NOISE] is NOISE
    out = np.full(n, NOISE, dtype=np.int64)
    if len(new_rows):
        grown_cells = np.unique(new_cell)
        i, b = cells.stencil(grown_cells, cells.offsets(*_pair_offsets(cells.edge, eps)))
        held = n_core[b] > 0
        a, b = grown_cells[i[held]], b[held]
        nodes = np.union1d(grown_cells, b)
        seeded = nodes[cells.core_row[nodes] >= 0]
        old_core = np.searchsorted(old_rows, cells.core_row[seeded])
        touched, seed = np.unique(labels[old_core], return_inverse=True)
        m = len(nodes)
        # A seeded cell hangs off its component's node: a compressed forest.
        parent = np.arange(m + len(touched))
        parent[np.searchsorted(nodes, seeded)] = m + seed
        a, b = np.searchsorted(nodes, a), np.searchsorted(nodes, b)
        live = parent[a] != parent[b]
        a, b = a[live], b[live]
        judged = np.union1d(a, b)
        rows = gather(nodes[judged])
        held = is_core[rows]
        rows = rows[held]
        n_held = np.bincount(np.repeat(judged, count[nodes[judged]])[held], minlength=m)
        parent, uf_rounds, uf_batches = _join_cells(
            coords, rows, np.cumsum(n_held) - n_held, n_held,
            _run_extents(coords, rows, n_held), parent, a, b, eps, batch_pairs,
        )
        stats.pass2_ops = sum(uf_batches)
        stats.csr_batches += len(uf_batches)
        _charge_batches(device, uf_batches, stats.pass2_ops)
        for _ in range(uf_rounds):
            device.launch(blocks=_batch_blocks(device, int(held.sum())))
        comp[touched] = n_comp + parent[m:]
    # An old border takes its cluster's new label too, but it keeps its
    # claims, so the border step below gives it its label again.
    out[old_rows] = comp[labels]
    if len(new_rows):
        out[new_rows] = n_comp + parent[np.searchsorted(nodes, new_cell)]

    # --- claims: the old ones still standing, and the fresh ones --------
    # A fresh claim has an inserted row or a new core.  The full pass
    # walks its Eps-cell tree, whose stencil is the 3×3 Eps-cells, so a
    # fresh pair is one within Eps and one Eps-cell apart at most.
    claims = old_rows[claims]
    keep = ~is_core[claims[:, 0]]
    claims, claim_d2 = [claims[keep]], [claim_d2[keep]]
    claim_rows = ins[~is_core[ins]]
    if len(new_rows):
        claim_rows = np.union1d(claim_rows, noncore_near(new_cell, is_core, n_core))
    if len(claim_rows) and is_core.any():
        for u, c, d2 in near_pairs(claim_rows):
            r = claim_rows[u]
            fresh = np.flatnonzero((d2 <= eps2) & is_core[c] & (inserted[r] | ~core[c]))
            r, c, d2 = r[fresh], c[fresh], d2[fresh]
            ex = np.floor(coords[r] / eps) - np.floor(coords[c] / eps)
            adjacent = (np.abs(ex) <= 1).all(axis=1)
            claims.append(np.stack((r[adjacent], c[adjacent]), axis=1))
            claim_d2.append(d2[adjacent])
            stats.pass2_ops += len(u)
            stats.csr_batches += 1
            device.launch(blocks=_batch_blocks(device, len(u)))
    claims, claim_d2 = np.concatenate(claims), np.concatenate(claim_d2)
    _assign_borders(out, claims, claim_d2)
    rows_read = int(count[read].sum())
    _unstage(device, rows_read, memory_chunks)

    _canonical_remap(out)
    _finish_stats(stats, device, is_core)
    densebox = DenseBoxResult(
        box_id=box_id, n_boxes=stats.n_boxes, n_subdivisions=int(read.sum())
    )
    return GPUClusterResult(
        labels=out, core_mask=is_core, densebox=densebox, stats=stats,
        claims=claims, claim_d2=claim_d2, index=cells.with_cores(new_rows, new_cell),
        rows_read=rows_read,
    )
