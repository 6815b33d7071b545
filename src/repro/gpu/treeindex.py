"""Level-ordered flattened spatial tree over one leaf's points.

The csr cluster engine (``repro.gpu.mrscan_gpu`` with
``engine="csr"``) needs the whole Eps-neighbor structure of a partition in
a handful of vectorised passes instead of a per-cell python loop.  The
index that makes that possible is a *flattened quadtree* in the
array-of-levels layout GPU tree codes use (sumpy's level-ordered tree
construction is the idiom; Prokopenko et al.'s tree-based DBSCAN is the
algorithm): every level is a sorted array of Morton-coded boxes, each box
a contiguous slice of one globally sorted point permutation, and
parent→child links are plain ``searchsorted`` ranges — no pointers, no
recursion, nothing per-node.

Geometry is anchored to the same global Eps-grid as
:class:`repro.dbscan.GridIndex` (``floor(coord / eps)``), so the *leaf*
level of this tree is exactly the set of non-empty Eps-cells.  A dual
traversal from the root expands only box pairs whose regions can hold a
point pair within Eps (``mindist < eps``); at leaf level that reproduces
the classic 3×3 cell stencil exactly, which is what keeps the csr engine
byte-identical to the block engine.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

__all__ = ["FlatTree"]

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


def morton_encode(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Interleave two non-negative integer arrays into Morton keys."""
    return _spread_bits(ux) | (_spread_bits(uy) << np.uint64(1))


def morton_decode(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(ux, uy)`` from Morton keys."""
    return (
        _compact_bits(keys).astype(np.int64),
        _compact_bits(keys >> np.uint64(1)).astype(np.int64),
    )


class FlatTree:
    """Flattened Morton quadtree over 2-D coordinates with Eps-cell leaves.

    Arrays (all levels are sorted by Morton key; level 0 is the root)
    -----------------------------------------------------------------
    ``order``
        Permutation of ``0..n-1`` sorting points by leaf Morton key
        (stable, so within-cell order is input order).
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
    """

    def __init__(self, coords: np.ndarray, cell: float, *, radius: float | None = None) -> None:
        if cell <= 0:
            raise ConfigError(f"cell width must be positive, got {cell}")
        if radius is not None and radius <= 0:
            raise ConfigError(f"interaction radius must be positive, got {radius}")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or (len(coords) and coords.shape[1] != 2):
            raise ConfigError(f"coords must be (n, 2), got {coords.shape}")
        if len(coords) and not np.all(np.isfinite(coords)):
            raise ConfigError("FlatTree requires finite coordinates")
        self.cell_width = float(cell)
        self.radius = float(cell if radius is None else radius)
        n = len(coords)
        self.n_points = n
        if n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.point_leaf = np.empty(0, dtype=np.int64)
            self.n_levels = 0
            self.level_keys: list[np.ndarray] = []
            self.level_start: list[np.ndarray] = []
            self.level_count: list[np.ndarray] = []
            self.child_start: list[np.ndarray] = []
            self.child_end: list[np.ndarray] = []
            self._level_cells: list[tuple[np.ndarray, np.ndarray]] = []
            self._leaf_pairs: tuple[np.ndarray, np.ndarray] | None = None
            return

        # Same global cell frame as GridIndex: floor(coord / eps).  The
        # Morton domain is offset to the dataset minimum (keys are local to
        # this tree; geometry stays global through ``cell_origin``).
        cells = np.floor(coords / self.cell_width).astype(np.int64)
        self.cell_origin = cells.min(axis=0)
        u = cells - self.cell_origin  # non-negative per-axis cell offsets
        span = int(u.max()) if n else 0
        bits = max(1, int(span).bit_length())
        if bits > _MAX_AXIS_BITS:
            raise ConfigError(
                f"cell width {cell} is too small for the coordinate span: "
                f"{span + 1} cells need {bits} bits/axis (max {_MAX_AXIS_BITS})"
            )
        self.leaf_bits = bits  # tree depth: leaf boxes are one cell wide
        leaf_keys = morton_encode(u[:, 0].astype(np.uint64), u[:, 1].astype(np.uint64))

        # Stable sort: each leaf box is a contiguous run of ``order`` and
        # within-box point order is original input order.
        self.order = np.argsort(leaf_keys, kind="stable").astype(np.int64)
        sorted_keys = leaf_keys[self.order]

        # Leaf level from the sorted keys, coarser levels by shifting out
        # 2 bits per step — a Morton prefix is the parent's key, so each
        # level stays sorted and child runs stay contiguous.
        self.level_keys = []
        self.level_start = []
        self.level_count = []
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
            self.level_keys.append(keys)
            self.level_start.append(p_start)
            self.level_count.append(p_count)
            bx, by = self._level_cells[-1]
            self._level_cells.append((bx[box_start] >> 1, by[box_start] >> 1))
        self.level_keys.reverse()
        self.level_start.reverse()
        self.level_count.reverse()
        self._level_cells.reverse()
        self.n_levels = len(self.level_keys)

        # Parent→child ranges: children of box k at level l are the boxes
        # at level l+1 whose key >> 2 equals k — one searchsorted pair.
        self.child_start = []
        self.child_end = []
        for lvl in range(self.n_levels - 1):
            child_parent = self.level_keys[lvl + 1] >> np.uint64(2)
            self.child_start.append(
                np.searchsorted(child_parent, self.level_keys[lvl], side="left")
            )
            self.child_end.append(
                np.searchsorted(child_parent, self.level_keys[lvl], side="right")
            )

        # Leaf-box id per point, back in original point order.
        leaf_count = self.level_count[-1]
        point_leaf_sorted = np.repeat(
            np.arange(len(leaf_count), dtype=np.int64), leaf_count
        )
        self.point_leaf = np.empty(n, dtype=np.int64)
        self.point_leaf[self.order] = point_leaf_sorted
        self._leaf_pairs = None

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
        return self._level_cells[level]

    def leaf_members(self, box: int) -> np.ndarray:
        """Original point indices of one leaf box (input order)."""
        s = int(self.level_start[-1][box])
        return self.order[s : s + int(self.level_count[-1][box])]

    # ------------------------------------------------------------------ #
    # Dual traversal
    # ------------------------------------------------------------------ #

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
        if self._leaf_pairs is not None:
            return self._leaf_pairs
        if self.n_levels == 0:
            empty = np.empty(0, dtype=np.int64)
            self._leaf_pairs = (empty, empty)
            return self._leaf_pairs
        r2 = self.radius * self.radius
        a = np.zeros(1, dtype=np.int64)
        b = np.zeros(1, dtype=np.int64)
        for lvl in range(self.n_levels - 1):
            cs, ce = self.child_start[lvl], self.child_end[lvl]
            na = (ce - cs)[a]
            nb = (ce - cs)[b]
            tot = na * nb
            offsets = np.concatenate(([0], np.cumsum(tot)[:-1]))
            pair_id = np.repeat(np.arange(len(tot)), tot)
            within = np.arange(int(tot.sum()), dtype=np.int64) - offsets[pair_id]
            ca = cs[a][pair_id] + within // nb[pair_id]
            cb = cs[b][pair_id] + within % nb[pair_id]
            # Diagonal parents expand to an unordered triangle.
            keep = ca <= cb
            a, b = ca[keep], cb[keep]
            bx, by = self.box_cells(lvl + 1)
            edge = self.box_edge(lvl + 1)
            gapx = (np.abs(bx[a] - bx[b]) - 1).clip(min=0) * edge
            gapy = (np.abs(by[a] - by[b]) - 1).clip(min=0) * edge
            keep = gapx * gapx + gapy * gapy < r2
            a, b = a[keep], b[keep]
        self._leaf_pairs = (a, b)
        return self._leaf_pairs

    def interaction_counts(self) -> np.ndarray:
        """Per-point candidate-set size under the leaf interaction lists.

        With the default ``radius == cell_width == eps`` this equals
        :func:`repro.gpu.kernels.candidate_counts` (points in the 3×3
        Eps-cell stencil) because leaf boxes are Eps-cells and the mindist
        prune keeps exactly the Chebyshev-adjacent pairs — the closed form
        the SIMT cost accounting charges per thread.
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
