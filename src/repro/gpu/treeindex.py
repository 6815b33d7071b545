"""Level-ordered flattened spatial tree over one leaf's points.

The cluster engine (``repro.gpu.mrscan_gpu``) needs the whole
Eps-neighbor structure of a partition in a handful of vectorised passes
instead of a per-cell python loop.  The index that makes that possible
is a *flattened quadtree* in the array-of-levels layout GPU tree codes
use (sumpy's level-ordered tree construction is the idiom; Prokopenko et
al.'s tree-based DBSCAN is the algorithm): every level is a sorted array
of Morton-coded boxes, each box a contiguous slice of one globally sorted
point permutation, and parent→child links are plain ``searchsorted``
ranges — no pointers, no recursion, nothing per-node.

Geometry is anchored to the same global Eps-grid as the reference
DBSCAN's grid index (``floor(coord / eps)``), so the *leaf* level of this
tree is exactly the set of non-empty Eps-cells.  A dual traversal from
the root expands only box pairs whose regions can hold a point pair
within Eps (``mindist < eps``); at leaf level that reproduces the classic
3×3 cell stencil, the per-cell oracle's (``tests/gpu/block_reference.py``).
The counting walk judges box pairs by their points' tight extents instead
(Prokopenko et al.'s bounding boxes), which settle "all within Eps" and
"none within Eps" exactly against the float64 pair test.

A tree over cells ``2**k`` times finer than Eps, with its cell origin on a
multiple of ``2**k``, *contains* the Eps-cell tree: ``x / (eps / 2**k)`` is
``2**k · (x / eps)`` exactly in binary floating point, so its level ``-k-1``
boxes are the Eps-cells bit for bit, and :meth:`FlatTree.coarsened` reads
them off without sorting again.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..sorting import stable_order

__all__ = ["FlatTree", "box_extents", "extent_verdicts", "runs"]

#: Morton coding uses 2 bits per level; 28 per axis keeps the interleaved
#: key comfortably inside int64 and is far beyond any real Eps/span ratio.
_MAX_AXIS_BITS = 28


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Insert a zero bit between the low 32 bits of each value."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread_bits`: drop every other bit."""
    v = v & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


#: Every 16-bit value with its bits spread to the even positions, and the
#: same shifted to the odd ones: a Morton key is two gathers per 16 bits.
_SPREAD_X = _spread_bits(np.arange(1 << 16, dtype=np.uint64))
_SPREAD_Y = _SPREAD_X << np.uint64(1)


def morton_encode(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Interleave two non-negative integer arrays (below ``2**32``) into
    uint64 Morton keys, 16 bits of each axis per table lookup."""
    ux, uy = np.asarray(ux, dtype=np.int64), np.asarray(uy, dtype=np.int64)
    if not ux.size or max(int(ux.max()), int(uy.max())) < 1 << 16:
        keys = _SPREAD_X[ux]
        keys |= _SPREAD_Y[uy]
        return keys
    keys = _SPREAD_X[ux & 0xFFFF]
    keys |= _SPREAD_Y[uy & 0xFFFF]
    high = _SPREAD_X[ux >> 16]
    high |= _SPREAD_Y[uy >> 16]
    high <<= np.uint64(32)
    keys |= high
    return keys


def morton_decode(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(ux, uy)`` from Morton keys."""
    return (
        _compact_bits(keys).astype(np.int64),
        _compact_bits(keys >> np.uint64(1)).astype(np.int64),
    )


def _exclusive_cumsum(v: np.ndarray) -> np.ndarray:
    return np.cumsum(v, dtype=np.int64) - v


def runs(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The positions ``start[i]..start[i] + count[i] - 1``, run after run."""
    at = np.repeat(start - _exclusive_cumsum(count), count)
    at += np.arange(len(at), dtype=at.dtype)
    return at


def box_extents(ext: tuple[np.ndarray, ...], starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tight ``(x0, x1, y0, y1)`` of each run ``starts[i]:starts[i+1]`` of
    boxes with extents ``ext`` — or of points, passed as ``(x, x, y, y)``."""
    x0, x1, y0, y1 = ext
    return (
        np.minimum.reduceat(x0, starts),
        np.maximum.reduceat(x1, starts),
        np.minimum.reduceat(y0, starts),
        np.maximum.reduceat(y1, starts),
    )


def extent_verdicts(
    ext: tuple[np.ndarray, ...], a: np.ndarray, b: np.ndarray, r2: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(full, far)`` of box pairs ``(a, b)`` from their point extents.

    *full*: every member pair passes the float64 ``dx*dx + dy*dy <= r2``;
    *far*: none does.  Exact, since rounding is monotone: each member
    pair's float ``|dx|`` lies between the extents' float gap and span.
    """
    x0, x1, y0, y1 = ext
    span2 = gap2 = 0.0
    for lo, hi in ((x0, x1), (y0, y1)):  # in place: this is the walk's hot loop
        la, lb, ha, hb = lo[a], lo[b], hi[a], hi[b]
        span = np.maximum(ha, hb)
        span -= np.minimum(la, lb)
        gap = np.maximum(la, lb, out=la)
        gap -= np.minimum(ha, hb, out=ha)
        np.maximum(gap, 0.0, out=gap)  # negative where the extents overlap
        span *= span
        gap *= gap
        span2, gap2 = span2 + span, gap2 + gap
    return span2 <= r2, gap2 > r2


class FlatTree:
    """Flattened Morton quadtree over 2-D coordinates with Eps-cell leaves.

    Arrays (all levels are sorted by Morton key; level 0 is the root)
    -----------------------------------------------------------------
    ``order``
        Permutation of ``0..n-1`` sorting points by leaf Morton key, then
        by input order.  A :meth:`coarsened` view shares it, so within one
        of *its* cells the order is the Morton order of the finer cells,
        then input order.
    ``level_keys[l]``
        Sorted unique Morton keys of the non-empty boxes at level ``l``.
    ``level_start[l]`` / ``level_count[l]``
        Each box's contiguous slice of ``order``.
    ``child_start[l]`` / ``child_end[l]``
        For each box at level ``l``, the half-open range of its children
        in level ``l+1`` (Morton prefix ordering makes children
        contiguous).
    ``point_leaf``
        Leaf-box index of every point, in original point order.

    ``align_levels`` floors the cell origin to a multiple of
    ``2**align_levels`` and keeps at least ``align_levels + 1`` levels below
    the root, so that :meth:`coarsened` can drop that many levels.
    """

    def __init__(
        self,
        coords: np.ndarray,
        cell: float,
        *,
        radius: float | None = None,
        align_levels: int = 0,
    ) -> None:
        if cell <= 0:
            raise ConfigError(f"cell width must be positive, got {cell}")
        if radius is not None and radius <= 0:
            raise ConfigError(f"interaction radius must be positive, got {radius}")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or (len(coords) and coords.shape[1] != 2):
            raise ConfigError(f"coords must be (n, 2), got {coords.shape}")
        self.cell_width = float(cell)
        self.radius = float(cell if radius is None else radius)
        n = len(coords)
        self.n_points = n
        self.level_keys: list[np.ndarray] = []
        self.level_start: list[np.ndarray] = []
        self.level_count: list[np.ndarray] = []
        self.child_start: list[np.ndarray] = []
        self.child_end: list[np.ndarray] = []
        self._leaf_pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._leaf_extents: tuple[np.ndarray, ...] | None = None
        if n == 0:  # no levels at all, but every attribute a caller may read
            self.order = self.point_leaf = np.empty(0, dtype=np.int64)
            self.cell_origin = np.zeros(2, dtype=np.int64)
            self.leaf_bits = self.n_levels = 0
            self._level_cells: list[tuple[np.ndarray, np.ndarray]] = []
            return

        # Same global cell frame as the grid index: floor(coord / eps).  The
        # Morton domain is offset to the dataset minimum (keys are local to
        # this tree; geometry stays global through ``cell_origin``).  The
        # cells are worked on as one contiguous row per axis: a column of
        # an (n, 2) array is a strided pass, and numpy's axis-0 reduction
        # of one is ~20x slower still.
        u = np.divide(coords.T, self.cell_width, order="C")
        np.floor(u, out=u)
        low, high = u.min(axis=1), u.max(axis=1)
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise ConfigError("FlatTree requires finite coordinates")
        self.cell_origin = low.astype(np.int64) >> align_levels << align_levels
        span = int((high.astype(np.int64) - self.cell_origin).max())
        bits = max(1 + align_levels, span.bit_length())
        if bits > _MAX_AXIS_BITS:
            raise ConfigError(
                f"cell width {cell} is too small for the coordinate span: "
                f"{span + 1} cells need {bits} bits/axis (max {_MAX_AXIS_BITS})"
            )
        self.leaf_bits = bits  # tree depth: leaf boxes are one cell wide
        # Non-negative per-axis cell offsets: the integral origin comes off
        # in float64 (exactly), then one cast.
        u -= self.cell_origin[:, None]
        ux, uy = u.astype(np.int64)
        leaf_keys = morton_encode(ux, uy)

        # Each leaf box is a contiguous run of ``order``, in input order.
        self.order = stable_order(leaf_keys, 2 * bits)
        sorted_keys = leaf_keys[self.order]

        # Leaf level from the sorted keys, coarser levels by shifting out
        # 2 bits per step — a Morton prefix is the parent's key, so each
        # level stays sorted and child runs stay contiguous: a parent's
        # children are the run of its key in the level below.
        keys, start, count = self._unique_runs(sorted_keys)
        self.level_keys.append(keys)
        self.level_start.append(start)
        self.level_count.append(count)
        # Integer box coordinates per level, decoded once for the leaves; a
        # parent's are its first child's with the low bit dropped.
        self._level_cells = [morton_decode(keys)]
        for _ in range(self.leaf_bits):
            parent = self.level_keys[-1] >> np.uint64(2)
            keys, box_start, _ = self._unique_runs(parent)
            # Aggregate child point slices into the parent's slice.
            p_start = self.level_start[-1][box_start]
            p_count = np.add.reduceat(self.level_count[-1], box_start)
            self.child_start.append(box_start)
            self.child_end.append(np.append(box_start[1:], len(parent)))
            self.level_keys.append(keys)
            self.level_start.append(p_start)
            self.level_count.append(p_count)
            bx, by = self._level_cells[-1]
            self._level_cells.append((bx[box_start] >> 1, by[box_start] >> 1))
        for levels in (
            self.level_keys, self.level_start, self.level_count, self._level_cells,
            self.child_start, self.child_end,
        ):
            levels.reverse()
        self.n_levels = len(self.level_keys)

        # Leaf-box id per point, back in original point order.
        leaf_count = self.level_count[-1]
        point_leaf_sorted = np.repeat(
            np.arange(len(leaf_count), dtype=np.int64), leaf_count
        )
        self.point_leaf = np.empty(n, dtype=np.int64)
        self.point_leaf[self.order] = point_leaf_sorted

    @staticmethod
    def _unique_runs(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique values + run starts + run lengths of a sorted array."""
        m = len(sorted_vals)
        change = np.empty(m, dtype=bool)
        change[0] = True
        np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=change[1:])
        start = np.flatnonzero(change)
        count = np.diff(np.append(start, m))
        return sorted_vals[start], start, count

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def n_leaf_boxes(self) -> int:
        return len(self.level_keys[-1]) if self.n_levels else 0

    def box_edge(self, level: int) -> float:
        """Edge length of the boxes at ``level`` (leaf boxes are one cell)."""
        return self.cell_width * float(2 ** (self.n_levels - 1 - level))

    def box_cells(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-box ``(bx, by)`` integer box coordinates at ``level``."""
        if not self.n_levels:  # the empty tree has no boxes at any level
            return self.order, self.order
        return self._level_cells[level]

    def leaf_members(self, box: int) -> np.ndarray:
        """Original point indices of one leaf box (input order)."""
        s = int(self.level_start[-1][box])
        return self.order[s : s + int(self.level_count[-1][box])]

    def coarsened(self, levels: int) -> FlatTree:
        """The same points over cells ``2**levels`` times wider, as a view.

        The view is this tree's top ``n_levels - levels`` levels and its
        ``order``; only ``point_leaf`` is derived anew.  It equals a tree
        built at the wider cell from scratch (same cells in the global
        frame, same per-cell members) when this one was built with
        ``align_levels >= levels`` and a cell width whose ``2**levels``
        multiple is the wider width exactly.
        """
        keep = self.n_levels - levels
        if keep < 2 or (self.cell_origin % 2**levels).any():
            raise ConfigError(f"tree was not built to drop {levels} levels")
        view = object.__new__(FlatTree)
        view.cell_width = self.cell_width * 2**levels
        view.radius = self.radius
        view.n_points = self.n_points
        view.order = self.order
        view.cell_origin = self.cell_origin >> levels
        view.leaf_bits = self.leaf_bits - levels
        view.n_levels = keep
        view.level_keys = self.level_keys[:keep]
        view.level_start = self.level_start[:keep]
        view.level_count = self.level_count[:keep]
        view.child_start = self.child_start[: keep - 1]
        view.child_end = self.child_end[: keep - 1]
        view._level_cells = self._level_cells[:keep]
        view._leaf_pairs = view._leaf_extents = None
        # Fine leaf -> the coarse leaf whose slice of ``order`` holds it.
        fine_to_coarse = np.searchsorted(view.level_start[-1], self.level_start[-1], side="right")
        view.point_leaf = (fine_to_coarse - 1)[self.point_leaf]
        return view

    # ------------------------------------------------------------------ #
    # Dual traversal
    # ------------------------------------------------------------------ #

    def _child_pairs(
        self, lvl: int, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every child pair (level ``lvl + 1``, ``a <= b``) of box pairs at
        ``lvl``; the caller prunes them."""
        cs = self.child_start[lvl]
        n_children = self.child_end[lvl] - cs
        # Two-stage run expansion (one row per child of ``a``, then that
        # row against every child of ``b``): no integer division.
        na = n_children[a]
        row_pair = np.repeat(np.arange(len(a), dtype=np.int64), na)
        per_row = n_children[b][row_pair]
        ca = np.repeat(runs(cs[a], na), per_row)
        cb = runs(cs[b][row_pair], per_row)
        keep = ca <= cb  # diagonal parents expand to an unordered triangle
        return ca[keep], cb[keep]

    def leaf_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All interacting leaf-box pairs ``(a, b)`` with ``a <= b``.

        Two boxes interact when their regions could hold a point pair
        within the interaction radius, i.e. ``mindist(box_a, box_b) <
        radius`` (strict: cells are half-open, so a gap of exactly
        ``radius`` between box regions can never yield a pair at distance
        <= radius).  With the default ``radius == cell_width`` this is
        exactly the 3×3 Eps-cell stencil at leaf level; with a finer cell
        (e.g. ``eps/sqrt(2)`` for the union stage) it reproduces the 5×5
        stencil minus the four corner cells.  The traversal starts from the root pair and
        refines level by level, pruning with the box mindist — the
        vectorised form of a dual-tree walk.
        """
        if self._leaf_pairs is None:
            a = b = np.zeros(1 if self.n_levels else 0, dtype=np.int64)  # root pair
            for lvl in range(self.n_levels - 1):
                a, b = self._child_pairs(lvl, a, b)
                bx, by = self.box_cells(lvl + 1)
                edge = self.box_edge(lvl + 1)
                gapx = (np.abs(bx[a] - bx[b]) - 1).clip(min=0) * edge
                gapy = (np.abs(by[a] - by[b]) - 1).clip(min=0) * edge
                keep = gapx * gapx + gapy * gapy < self.radius * self.radius
                a, b = a[keep], b[keep]
            self._leaf_pairs = (a, b)
        return self._leaf_pairs

    def leaf_extents(self, coords: np.ndarray) -> tuple[np.ndarray, ...]:
        """Tight ``(x0, x1, y0, y1)`` of each leaf box of the tree's ``coords``; computed once."""
        if self._leaf_extents is None:
            x, y = coords[:, 0][self.order], coords[:, 1][self.order]
            self._leaf_extents = box_extents((x, x, y, y), self.level_start[-1])
        return self._leaf_extents

    def saturating_pairs(
        self, x: np.ndarray, y: np.ndarray, active: np.ndarray, need: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dual traversal for range *counting* that stops at ``need``.

        ``x``, ``y`` are the coordinates in tree order and ``active`` flags
        the leaf boxes holding rows whose neighbours are being counted.
        Box pairs are judged by their points' extents
        (:func:`extent_verdicts`): a *full* pair is *credited* — each side
        gains the other's population — at the coarsest level that proves
        it and is never descended (children inherit credit); a *far* pair
        is dropped.  A box is *done* once it has no active leaf below it or
        its credit reaches ``need``, and a straddling pair is kept only
        while either side is not done.

        Returns ``(credit, rows, cols)``: per-leaf-box credit, and the
        directed straddling leaf pairs whose row box is not done.  For
        those boxes ``credit`` plus the in-radius points of their column
        boxes is the exact neighbour count; for a done active box
        ``credit`` alone is a lower bound that already reaches ``need``.
        """
        empty = np.empty(0, dtype=np.int64)
        if self.n_levels == 0:
            return empty, empty, empty
        # Extents of the leaves, then of each parent from its child range;
        # and the boxes with an active leaf below them, per level.
        ext = [box_extents((x, x, y, y), self.level_start[-1])]
        live = [np.asarray(active, dtype=bool)]
        for cs in reversed(self.child_start):
            ext.append(box_extents(ext[-1], cs))
            live.append(np.logical_or.reduceat(live[-1], cs))
        ext.reverse()
        live.reverse()
        r2 = self.radius * self.radius
        a = b = np.zeros(1, dtype=np.int64)
        credit = np.zeros(1, dtype=np.int64)
        for lvl in range(self.n_levels):
            cnt = self.level_count[lvl]
            full, far = extent_verdicts(ext[lvl], a, b, r2)
            # Both directions, a diagonal pair once (float weights are
            # exact at these magnitudes).
            fa, fb = a[full], b[full]
            off = fa != fb
            credit += np.bincount(
                np.concatenate((fa, fb[off])),
                weights=cnt[np.concatenate((fb, fa[off]))],
                minlength=len(cnt),
            ).astype(np.int64)
            done = ~live[lvl] | (credit >= need)
            keep = ~(full | far | (done[a] & done[b]))
            a, b = a[keep], b[keep]
            if lvl < self.n_levels - 1:
                credit = np.repeat(credit, self.child_end[lvl] - self.child_start[lvl])
                a, b = self._child_pairs(lvl, a, b)
        fwd, rev = ~done[a], ~done[b] & (a != b)
        return credit, np.concatenate((a[fwd], b[rev])), np.concatenate((b[fwd], a[rev]))

    def interaction_counts(self) -> np.ndarray:
        """Per-point candidate-set size under the leaf interaction lists.

        With the default ``radius == cell_width == eps`` this is the
        number of points in each point's 3×3 Eps-cell stencil, because
        leaf boxes are Eps-cells and the mindist prune keeps exactly the
        Chebyshev-adjacent pairs — the closed form the SIMT cost
        accounting charges per thread.
        """
        if self.n_levels == 0:
            return np.empty(0, dtype=np.int64)
        a, b = self.leaf_pairs()
        cnt = self.level_count[-1]
        off = a != b
        # Each box sees its partner's population; a diagonal pair (a == b)
        # is the box's own, counted once.  Float weights are exact here.
        n_boxes = self.n_leaf_boxes
        stencil = np.bincount(a, weights=cnt[b], minlength=n_boxes)
        stencil += np.bincount(b[off], weights=cnt[a[off]], minlength=n_boxes)
        return stencil.astype(np.int64)[self.point_leaf]
