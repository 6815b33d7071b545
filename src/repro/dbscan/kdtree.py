"""Region KD-tree in the CUDA-DClust style.

The paper's GPU algorithm uses "a modified KD-tree [where] a leaf
represents a region of points instead of a single point" (§3.2.1): neighbor
search only has to test the points of the leaves intersecting the query
disk.  It serves the CUDA-DClust baseline (:mod:`repro.gpu.cuda_dclust`);
Mr. Scan's own leaf path, dense box included, runs on
:class:`repro.gpu.treeindex.FlatTree`.

The tree recursively halves the wider dimension at the median until a node
holds at most ``leaf_size`` points (or ``max_depth`` is hit, which guards
against pathological duplicate-heavy inputs).  Node *regions* are the
axis-aligned boxes induced by the splitting planes, so sibling regions tile
their parent exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..points import PointSet

__all__ = ["KDNode", "RegionKDTree"]


@dataclass(frozen=True)
class KDNode:
    """One node of the region KD-tree.

    ``start``/``end`` index into the tree's permutation array; ``bounds``
    is the splitting-plane region ``(xmin, ymin, xmax, ymax)``.  Internal
    nodes carry ``split_dim``/``split_val`` and child ids; leaves have
    ``left == right == -1``.
    """

    node_id: int
    start: int
    end: int
    bounds: tuple[float, float, float, float]
    depth: int
    split_dim: int = -1
    split_val: float = 0.0
    left: int = -1
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left < 0

    @property
    def n_points(self) -> int:
        return self.end - self.start


class RegionKDTree:
    """Region KD-tree over a :class:`PointSet`.

    Parameters
    ----------
    leaf_size:
        Split nodes holding more points than this.
    max_depth:
        Hard depth cap (duplicate-point safety valve).
    """

    def __init__(
        self,
        points: PointSet,
        *,
        leaf_size: int = 64,
        max_depth: int = 40,
    ) -> None:
        if leaf_size < 1:
            raise ConfigError("leaf_size must be >= 1")
        if max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        self.points = points
        self.leaf_size = int(leaf_size)
        self.max_depth = int(max_depth)
        n = len(points)
        self.perm = np.arange(n, dtype=np.int64)
        self.nodes: list[KDNode] = []
        if n == 0:
            return
        xmin, ymin, xmax, ymax = points.bounds()
        # Grow the root box a hair so max-coordinate points are interior.
        pad = 1e-12 + 1e-9 * max(xmax - xmin, ymax - ymin)
        self._build(0, n, (xmin, ymin, xmax + pad, ymax + pad), 0)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build(
        self, start: int, end: int, bounds: tuple[float, float, float, float], depth: int
    ) -> int:
        node_id = len(self.nodes)
        xmin, ymin, xmax, ymax = bounds
        count = end - start
        if count <= self.leaf_size or depth >= self.max_depth:
            self.nodes.append(
                KDNode(node_id=node_id, start=start, end=end, bounds=bounds, depth=depth)
            )
            return node_id

        dim = 0 if (xmax - xmin) >= (ymax - ymin) else 1
        seg = self.perm[start:end]
        vals = self.points.coords[seg, dim]
        mid = count // 2
        # argpartition gives a median split in O(n); we then split the
        # region at the actual median value so the two child regions tile
        # the parent along the splitting plane.
        part = np.argpartition(vals, mid)
        self.perm[start:end] = seg[part]
        split_val = float(self.points.coords[self.perm[start + mid], dim])
        lo = xmin if dim == 0 else ymin
        hi = xmax if dim == 0 else ymax
        if not (lo < split_val < hi):
            # Degenerate split (the median sits on the region's edge):
            # fall back to bisecting the region.
            split_val = 0.5 * (lo + hi)
            side = self.points.coords[self.perm[start:end], dim] < split_val
            order = np.argsort(~side, kind="stable")
            self.perm[start:end] = self.perm[start:end][order]
            mid = int(np.count_nonzero(side))
            if mid == 0 or mid == count:
                self.nodes.append(
                    KDNode(node_id=node_id, start=start, end=end, bounds=bounds, depth=depth)
                )
                return node_id

        if dim == 0:
            lbounds = (xmin, ymin, split_val, ymax)
            rbounds = (split_val, ymin, xmax, ymax)
        else:
            lbounds = (xmin, ymin, xmax, split_val)
            rbounds = (xmin, split_val, xmax, ymax)

        # Re-partition strictly by the split plane so region membership is
        # exact (argpartition only guarantees the median element position).
        seg = self.perm[start:end]
        side = self.points.coords[seg, dim] < split_val
        order = np.argsort(~side, kind="stable")
        self.perm[start:end] = seg[order]
        mid = int(np.count_nonzero(side))
        if mid == 0 or mid == count:
            self.nodes.append(
                KDNode(node_id=node_id, start=start, end=end, bounds=bounds, depth=depth)
            )
            return node_id

        # Placeholder; children ids patched after recursion.
        self.nodes.append(
            KDNode(
                node_id=node_id,
                start=start,
                end=end,
                bounds=bounds,
                depth=depth,
                split_dim=dim,
                split_val=split_val,
            )
        )
        left = self._build(start, start + mid, lbounds, depth + 1)
        right = self._build(start + mid, end, rbounds, depth + 1)
        node = self.nodes[node_id]
        self.nodes[node_id] = KDNode(
            node_id=node_id,
            start=node.start,
            end=node.end,
            bounds=node.bounds,
            depth=node.depth,
            split_dim=node.split_dim,
            split_val=node.split_val,
            left=left,
            right=right,
        )
        return node_id

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> KDNode | None:
        return self.nodes[0] if self.nodes else None

    def leaves(self) -> list[KDNode]:
        """All leaf nodes (the space subdivisions dense box scans)."""
        return [n for n in self.nodes if n.is_leaf]

    def leaf_members(self, node: KDNode) -> np.ndarray:
        """Original point indices stored in a leaf."""
        return self.perm[node.start : node.end]

    def leaf_of_point(self, i: int) -> KDNode:
        """The leaf whose region contains point ``i``."""
        if not self.nodes:
            raise ConfigError("leaf_of_point on an empty tree")
        x, y = self.points.coords[i]
        node = self.nodes[0]
        while not node.is_leaf:
            v = x if node.split_dim == 0 else y
            node = self.nodes[node.left if v < node.split_val else node.right]
        return node

    def query_radius(self, coord: np.ndarray, radius: float) -> np.ndarray:
        """Original indices of points within ``radius`` of ``coord``.

        Traverses only subtrees whose region intersects the query disk —
        the access pattern the GPU kernels emulate (and whose visited-leaf
        count the simulated device charges for).
        """
        coord = np.asarray(coord, dtype=np.float64)
        if not self.nodes:
            return np.empty(0, dtype=np.int64)
        r2 = float(radius) * float(radius)
        out: list[np.ndarray] = []
        stack = [0]
        while stack:
            node = self.nodes[stack.pop()]
            xmin, ymin, xmax, ymax = node.bounds
            # Squared distance from coord to the node region.
            dx = max(xmin - coord[0], 0.0, coord[0] - xmax)
            dy = max(ymin - coord[1], 0.0, coord[1] - ymax)
            if dx * dx + dy * dy > r2:
                continue
            if node.is_leaf:
                members = self.perm[node.start : node.end]
                d2 = np.sum((self.points.coords[members] - coord) ** 2, axis=1)
                hit = members[d2 <= r2]
                if len(hit):
                    out.append(hit)
            else:
                stack.append(node.left)
                stack.append(node.right)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def count_visited_leaves(self, coord: np.ndarray, radius: float) -> int:
        """Number of leaf regions intersecting the query disk (cost probe)."""
        coord = np.asarray(coord, dtype=np.float64)
        if not self.nodes:
            return 0
        r2 = float(radius) * float(radius)
        visited = 0
        stack = [0]
        while stack:
            node = self.nodes[stack.pop()]
            xmin, ymin, xmax, ymax = node.bounds
            dx = max(xmin - coord[0], 0.0, coord[0] - xmax)
            dy = max(ymin - coord[1], 0.0, coord[1] - ymax)
            if dx * dx + dy * dy > r2:
                continue
            if node.is_leaf:
                visited += 1
            else:
                stack.append(node.left)
                stack.append(node.right)
        return visited
