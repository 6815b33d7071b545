"""Dense-box detection (§3.2.3).

"All points in a sub-division with dimension size less than or equal to
``2·Eps / (2·√2)`` [= ``eps/√2``] and point count ≥ MinPts will be marked as
members of a cluster" — a box of edge ``eps/√2`` has diagonal exactly
``eps``, so its points are pairwise within Eps of each other; with at least
MinPts of them, every one is a core point and they all belong to one
cluster, *without expanding any of them individually*.

The sub-divisions are the leaf boxes of a :class:`FlatTree` with cells of
edge ``eps/√2`` in the global frame (``floor(coord / (eps/√2))``, anchored
like every other index of the leaf): a box is dense when its point count
reaches MinPts, which is one comparison on the tree's ``level_count``.  The
box set is therefore a function of the points and Eps alone — the boxes of
a subset of the points are a subset of the boxes of the whole.

The same cells, keyed row-major instead of in Morton order, are the
:class:`CellIndex` a daemon's leaf keeps beside its output: each cell's
rows, row count, core count and lowest core row.  An append
(:func:`repro.gpu.append.mrscan_gpu_append`) grows it by its inserted rows
(:meth:`CellIndex.grown`) and reads only the cells its batch reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from ..points import PointSet
from ..sorting import stable_order
from .treeindex import _MAX_AXIS_BITS, FlatTree, _exclusive_cumsum, runs

__all__ = [
    "CELL_REACH",
    "CellIndex",
    "DENSEBOX_DETECTOR",
    "DENSEBOX_EDGE_FACTOR",
    "DenseBoxResult",
    "densebox_edge",
    "find_dense_boxes",
    "build_densebox_tree",
]

#: Names the rules that decide box membership and what box members claim.
#: Run directories record it: checkpoints labelled under another rule must
#: not be resumed into this one.  Change it whenever a leaf's output under
#: dense box can change.  ``global-grid`` leaves left borders of box-only
#: cores as noise; ``+claims`` has box members claim them.
DENSEBOX_DETECTOR: str = "global-grid+claims"

#: Maximum box edge as a multiple of eps: 2eps/(2*sqrt(2)) = eps/sqrt(2).
DENSEBOX_EDGE_FACTOR: float = 1.0 / np.sqrt(2.0)


def densebox_edge(eps: float) -> float:
    """The paper's dense-box dimension threshold for a given eps."""
    return eps * DENSEBOX_EDGE_FACTOR


@dataclass
class DenseBoxResult:
    """Outcome of the dense-box pass over one partition.

    ``box_id[i]`` is the dense box containing point ``i`` (-1 when the
    point is not in any dense box).  ``n_boxes`` boxes were found,
    eliminating ``n_eliminated`` points from individual expansion.
    """

    box_id: np.ndarray
    n_boxes: int
    n_subdivisions: int

    @property
    def n_eliminated(self) -> int:
        return int(np.count_nonzero(self.box_id >= 0))

    def eliminated_fraction(self, n_points: int) -> float:
        """Share of the partition's points removed from expansion."""
        return self.n_eliminated / n_points if n_points else 0.0

    def members(self, box: int) -> np.ndarray:
        """Point indices of one dense box."""
        return np.flatnonzero(self.box_id == box)


def build_densebox_tree(points: PointSet, eps: float, minpts: int = 16) -> FlatTree:
    """Build the tree whose leaf boxes the dense-box pass scans (the same
    for every ``minpts``; a non-positive ``eps`` is a ``ConfigError``).

    Its interaction radius is Eps, so the csr engine's core components
    walk the same tree: every eps/√2 cell is a clique, and its leaf pairs
    are the cells that can hold a core edge."""
    return FlatTree(points.coords, densebox_edge(eps), radius=eps)


def find_dense_boxes(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    tree: FlatTree | None = None,
) -> DenseBoxResult:
    """Mark every leaf box holding at least MinPts points as a dense box.

    "Every pair in a box is within Eps" is checked, not inferred from the
    cell geometry: a populous box qualifies only if the tight extent of its
    members passes the engines' own ``dx*dx + dy*dy <= eps*eps`` in float64
    (``floor(coord / edge)`` rounds, so a cell can be an ulp wider than
    ``eps/√2``).  Boxes are numbered in Morton order.  Pass ``tree`` to
    reuse one :func:`build_densebox_tree` already built.
    """
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")
    if tree is None:
        tree = build_densebox_tree(points, eps, minpts)
    n_cells = tree.n_leaf_boxes
    box_of_cell = np.full(n_cells, -1, dtype=np.int64)
    dense = np.empty(0, dtype=np.int64)
    if n_cells and (populous := tree.level_count[-1] >= minpts).any():
        x0, x1, y0, y1 = tree.leaf_extents(points.coords)
        dx, dy = x1 - x0, y1 - y0
        dense = np.flatnonzero(populous & (dx * dx + dy * dy <= eps * eps))
        box_of_cell[dense] = np.arange(len(dense))
    return DenseBoxResult(
        box_id=box_of_cell[tree.point_leaf], n_boxes=len(dense), n_subdivisions=n_cells
    )


#: Dense-box cells (edge eps/√2) between the two points of a float64 pair
#: within Eps, at most: ``floor(coord / edge)`` keeps a gap of up to √2
#: edges within two cells.
CELL_REACH = 2


def _frame(lo: int, hi: int) -> tuple[int, int]:
    """First cell and width of one axis of a key frame over cells
    ``lo..hi``: a margin of up to the span on each side, so a view that
    grows near its cells keeps its keys, but at least :data:`CELL_REACH`
    cells and, beyond that, no wider than the Morton trees' axis budget —
    so a cell inside it spans no more than a tree may."""
    span = hi - lo
    margin = max(CELL_REACH, min(span + 1, ((1 << _MAX_AXIS_BITS) - span - 1) // 2))
    return lo - margin, span + 1 + 2 * margin


@dataclass
class CellIndex:
    """A view's rows grouped by dense-box cell, as a fresh build groups them.

    Cell ``(cx, cy)`` (``floor(coord / edge)``) has the row-major key
    ``(cx - x0) * h + (cy - y0)`` in a frame of ``w × h`` cells cornered at
    ``origin = (x0, y0)``; every cell lies :data:`CELL_REACH` cells or more
    inside it, so a stencil offset of up to that many cells per axis is a
    plain addition to a key.  ``keys`` ascend, and cell ``i`` holds the
    rows ``order[start[i]:start[i] + count[i]]``, ascending; ``n_core[i]``
    of them are core, the lowest being ``core_row[i]`` (-1: none).  A cell
    is a clique, so that row's label is every core's of the cell.  Rows
    take 4 B each (``order``); the rest is per cell.
    """

    edge: float
    origin: tuple[int, int]
    shape: tuple[int, int]
    keys: np.ndarray
    start: np.ndarray
    count: np.ndarray
    n_core: np.ndarray
    core_row: np.ndarray
    order: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.keys, self.start, self.count, self.n_core, self.core_row, self.order,
        ))

    @classmethod
    def _from_runs(cls, edge, origin, shape, keys, count, order, core) -> CellIndex:
        """The index of cells ``keys`` holding ``count`` rows each, whose
        runs of ``order`` are those rows, ascending; ``core`` flags the
        view's core rows."""
        n_cells = len(keys)
        is_core = core[order]
        cell = np.repeat(np.arange(n_cells), count)
        n_core = np.bincount(cell[is_core], minlength=n_cells)
        core_row = np.full(n_cells, -1, dtype=np.int32)
        at = np.flatnonzero(is_core)
        first = at[np.flatnonzero(np.diff(cell[at], prepend=-1))]
        core_row[cell[first]] = order[first]
        return cls(
            edge=float(edge), origin=origin, shape=shape, keys=keys,
            start=_exclusive_cumsum(count).astype(np.int32), count=count.astype(np.int32),
            n_core=n_core.astype(np.int32), core_row=core_row, order=order.astype(np.int32),
        )

    @classmethod
    def build(cls, coords: np.ndarray, edge: float, core: np.ndarray) -> CellIndex:
        """A fresh index over ``coords``: one sort of the view's rows.  A
        view wider than the Morton trees can key is refused as they refuse
        it (:class:`ConfigError`)."""
        cells = np.floor(np.asarray(coords, dtype=np.float64) / edge).astype(np.int64)
        empty = np.empty(0, dtype=np.int64)
        if not len(cells):
            return cls._from_runs(edge, (0, 0), (0, 0), empty, empty, empty, core)
        lo = int(cells[:, 0].min()), int(cells[:, 1].min())
        hi = int(cells[:, 0].max()), int(cells[:, 1].max())
        if max(hi[0] - lo[0], hi[1] - lo[1]).bit_length() > _MAX_AXIS_BITS:
            raise ConfigError(f"cell width {edge} is too small for the coordinate span")
        (x0, w), (y0, h) = _frame(lo[0], hi[0]), _frame(lo[1], hi[1])
        key = (cells[:, 0] - x0) * h + (cells[:, 1] - y0)
        order = stable_order(key, (w * h - 1).bit_length())
        ranked = key[order]
        head = np.flatnonzero(np.diff(ranked, prepend=-1))
        return cls._from_runs(
            edge, (x0, y0), (w, h), ranked[head], np.diff(head, append=len(ranked)), order, core,
        )

    @classmethod
    def from_tree(cls, tree: FlatTree, core: np.ndarray) -> CellIndex:
        """The index of a :func:`build_densebox_tree` tree's points, equal
        to :meth:`build`'s: the tree's leaf boxes are the cells, so they
        are re-keyed and their runs of the tree's order moved to key
        order, with no sort of the rows."""
        if not tree.n_points:
            return cls.build(np.empty((0, 2)), tree.cell_width, core)
        bx, by = tree.box_cells(tree.n_levels - 1)
        cx, cy = bx + tree.cell_origin[0], by + tree.cell_origin[1]
        (x0, w), (y0, h) = _frame(int(cx.min()), int(cx.max())), _frame(int(cy.min()), int(cy.max()))
        key = (cx - x0) * h + (cy - y0)
        by_key = np.argsort(key)  # the cells, not the rows
        count = tree.level_count[-1][by_key]
        at = runs(tree.level_start[-1][by_key], count)
        return cls._from_runs(
            tree.cell_width, (x0, y0), (w, h), key[by_key], count, tree.order[at], core,
        )

    def locate(self, xy: np.ndarray) -> np.ndarray:
        """The cell of each of the view's points ``xy``."""
        cells = np.floor(xy / self.edge).astype(np.int64)
        key = (cells[:, 0] - self.origin[0]) * self.shape[1] + (cells[:, 1] - self.origin[1])
        return np.searchsorted(self.keys, key)

    def offsets(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Key offsets of the cell offsets ``(dx, dy)``."""
        return dx * self.shape[1] + dy

    def stencil(self, cells: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each indexed cell at a key offset of one of ``cells``, as
        ``(i, cell)``: ``cells[i]`` plus an offset is ``cell``."""
        probe = (self.keys[cells][:, None] + offsets).ravel()
        at = np.minimum(np.searchsorted(self.keys, probe), max(len(self.keys) - 1, 0))
        hit = np.flatnonzero(self.keys[at] == probe)
        return hit // len(offsets), at[hit]

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """The rows of ``cells``, cell by cell."""
        return self.order[runs(self.start[cells], self.count[cells])]

    def grown(self, old_rows: np.ndarray, rows: np.ndarray, xy: np.ndarray) -> CellIndex | None:
        """This index over a grown view, where old row ``i`` became
        ``old_rows[i]`` (ascending) and ``rows`` (ascending, at ``xy``)
        are inserted; ``None`` when an inserted row's cell leaves the
        frame.  No row of the view is sorted: the old runs keep their
        order, each inserted row goes into its cell's run (a new cell's
        run starts where the next cell's did), and new cells into the key
        table.  The inserted rows are not core; this index is only read."""
        (x0, y0), (w, h) = self.origin, self.shape
        cells = np.floor(xy / self.edge).astype(np.int64)
        ux, uy = cells[:, 0] - x0, cells[:, 1] - y0
        lo, hi = CELL_REACH, np.array([w, h]) - CELL_REACH
        if ((ux < lo) | (ux >= hi[0]) | (uy < lo) | (uy >= hi[1])).any():
            return None
        key = ux * h + uy
        by_key = np.argsort(key, kind="stable")  # the inserted rows only
        key, rows = key[by_key], np.asarray(rows, dtype=np.int64)[by_key]
        n_cells = len(self.keys)
        at = np.searchsorted(self.keys, key)
        hit = at < n_cells
        hit[hit] = self.keys[at[hit]] == key[hit]
        order = old_rows[self.order]
        # Rows ascend within a cell and cells by key: one sorted sequence.
        n = len(order) + len(rows)
        ranked = np.repeat(np.arange(n_cells, dtype=np.int64) * n, self.count) + order
        order = np.insert(order, np.searchsorted(ranked, at * n + np.where(hit, rows, 0)), rows)

        fresh = np.unique(key[~hit])
        slot = np.searchsorted(self.keys, fresh)
        keys = np.insert(self.keys, slot, fresh)
        count = np.insert(self.count, slot, 0).astype(np.int64)
        count += np.bincount(np.searchsorted(keys, key), minlength=len(keys))
        core_row = np.where(self.core_row >= 0, old_rows[self.core_row], -1)
        return CellIndex(
            edge=self.edge, origin=self.origin, shape=self.shape, keys=keys,
            start=_exclusive_cumsum(count).astype(np.int32), count=count.astype(np.int32),
            n_core=np.insert(self.n_core, slot, 0),
            core_row=np.insert(core_row, slot, -1).astype(np.int32),
            order=order.astype(np.int32),
        )

    def with_cores(self, rows: np.ndarray, cells: np.ndarray) -> CellIndex:
        """This index after ``rows`` (in ``cells``) became core."""
        n_core = self.n_core + np.bincount(cells, minlength=len(self.keys)).astype(np.int32)
        lowest = np.where(self.core_row >= 0, self.core_row, np.iinfo(np.int32).max)
        np.minimum.at(lowest, cells, rows)
        core_row = np.where(n_core > 0, lowest, -1).astype(np.int32)
        return replace(self, n_core=n_core, core_row=core_row)
