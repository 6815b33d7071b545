"""CUDA-DClust (Böhm et al., CIKM'09) and its region KD-tree — the §3.2.1
baseline Mr. Scan extends, kept as the ablations' oracle.

``cuda_dclust`` is a literal simulation of the block-level algorithm:

* each GPGPU block holds one *chain* (a tentative cluster) and a queue of
  points to expand;
* every iteration, each block expands one point: a KD-tree radius query
  finds neighbors; if the point is core its unowned neighbors are claimed
  into the chain and queued, and already-owned neighbors produce
  *collisions*;
* after each iteration control returns to the CPU, which copies block
  state off the device, re-seeds idle blocks with the next unprocessed
  point, and copies state back — the ``2 × points / blockcount``
  synchronous transfers Mr. Scan's §3.2.2 extension eliminates;
* at the end the CPU merges chains that collided *on a core point* (a
  shared core point means the chains are one DBSCAN cluster; a shared
  border point does not merge clusters).

The simulation is sequential but block-deterministic: blocks are serviced
in index order, so results are reproducible.  Expansion-order border
assignment matches real DBSCAN's order dependence.

``RegionKDTree`` is the paper's "modified KD-tree [where] a leaf represents
a region of points instead of a single point" (§3.2.1): neighbor search
only tests the points of the leaves intersecting the query disk.  It
recursively halves the wider dimension at the median until a node holds
at most ``leaf_size`` points (or ``max_depth`` is hit, which guards
against pathological duplicate-heavy inputs).  Node *regions* are the
axis-aligned boxes induced by the splitting planes, so sibling regions
tile their parent exactly.  Mr. Scan's own leaf runs on
:class:`repro.gpu.treeindex.FlatTree`.

``cuda_dclust_leaves()`` swaps ``repro.core.pipeline.mrscan_gpu`` for
:func:`cuda_dclust_leaf`, so a whole pipeline run clusters every leaf
with the baseline — the end-to-end ablation of §3.2.2–§3.2.3.  The swap
is in-process only: runs under it must pin ``transport="local"``, or a
pool transport would cluster leaves in workers that never see it.  It is
not a test module, and nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.dbscan.disjoint_set import DisjointSet
from repro.errors import ConfigError
from repro.gpu.densebox import DenseBoxResult
from repro.gpu.device import SimulatedDevice
from repro.gpu.mrscan_gpu import GPUClusterResult, MrScanGPUStats
from repro.points import NOISE, PointSet

# ---------------------------------------------------------------------- #
# Region KD-tree
# ---------------------------------------------------------------------- #


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


# ---------------------------------------------------------------------- #
# CUDA-DClust
# ---------------------------------------------------------------------- #


@dataclass
class CudaDclustStats:
    """Counters from one CUDA-DClust run (what the ablations report)."""

    n_points: int = 0
    n_iterations: int = 0
    n_chains: int = 0
    n_collisions: int = 0
    n_core_collisions: int = 0
    distance_ops: int = 0
    sync_round_trips: int = 0


@dataclass
class _Block:
    chain: int = -1
    queue: deque = field(default_factory=deque)


def cuda_dclust(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    device: SimulatedDevice | None = None,
    kdtree_leaf_size: int = 64,
):
    """Run the CUDA-DClust baseline; returns ``(labels, core_mask, stats)``.

    Labels are dense ``0..k-1`` with ``NOISE`` (-1) for noise points.
    Exact on core points; border points go to the first chain that claims
    them (visit-order dependence inherent to DBSCAN).
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")
    device = device or SimulatedDevice()
    n = len(points)
    stats = CudaDclustStats(n_points=n)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), stats

    tree = RegionKDTree(points, leaf_size=kdtree_leaf_size)
    device.alloc("points", points.coords.nbytes)
    device.alloc("kdtree", 32 * max(len(tree.nodes), 1))
    device.h2d(points.coords.nbytes)

    owner = np.full(n, -1, dtype=np.int64)  # chain owning each point
    expanded = np.zeros(n, dtype=bool)
    core = np.zeros(n, dtype=bool)
    collisions: list[tuple[int, int, int]] = []  # (chain_a, chain_b, point)

    n_blocks = device.config.n_blocks
    blocks = [_Block() for _ in range(min(n_blocks, max(1, n)))]
    next_seed = 0
    n_chains = 0
    eps2 = eps * eps

    def _advance_seed() -> int:
        nonlocal next_seed
        while next_seed < n and expanded[next_seed]:
            next_seed += 1
        return next_seed

    while True:
        # CPU re-seeds idle blocks with the next unprocessed point.
        any_work = False
        for blk in blocks:
            if not blk.queue:
                seed = _advance_seed()
                if seed >= n:
                    blk.chain = -1
                    continue
                blk.chain = n_chains
                n_chains += 1
                blk.queue.append(seed)
                expanded[seed] = True  # reserved: no other block may seed it
                next_seed += 1
            any_work = True
        if not any_work:
            break

        # One DBSCAN iteration: every active block expands one point.
        for blk in blocks:
            if not blk.queue:
                continue
            p = blk.queue.popleft()
            expanded[p] = True
            neigh = tree.query_radius(points.coords[p], eps)
            # Cost: the query evaluates one distance per candidate point in
            # every leaf whose region intersects the query disk.
            visited = tree.count_visited_leaves(points.coords[p], eps)
            stats.distance_ops += visited * tree.leaf_size
            if len(neigh) >= minpts:
                core[p] = True
                if owner[p] == -1:
                    owner[p] = blk.chain
                elif owner[p] != blk.chain:
                    collisions.append((blk.chain, int(owner[p]), p))
                for x in neigh:
                    x = int(x)
                    if x == p:
                        continue
                    if owner[x] == -1:
                        owner[x] = blk.chain
                        if not expanded[x]:
                            blk.queue.append(x)
                    elif owner[x] != blk.chain:
                        collisions.append((blk.chain, int(owner[x]), x))
            # non-core p: stays with whatever chain claimed it (border) or
            # unowned (noise candidate).

        # CPU synchronisation: state out, re-seed decisions in.
        device.d2h(64 * len(blocks))
        device.h2d(16 * len(blocks))
        stats.n_iterations += 1

    device.d2h(8 * n)  # final labels off the device
    device.free_all()

    # Host-side collision resolution: chains sharing a *core* point merge.
    ds = DisjointSet(n_chains)
    for a, b, x in collisions:
        stats.n_collisions += 1
        if core[x]:
            ds.union(a, b)
            stats.n_core_collisions += 1

    labels = np.full(n, NOISE, dtype=np.int64)
    owned = owner >= 0
    if n_chains:
        chain_root = ds.roots()
        labels[owned] = chain_root[owner[owned]]
    # Canonical dense numbering by first appearance.
    remap: dict[int, int] = {}
    for i in range(n):
        lab = int(labels[i])
        if lab == NOISE:
            continue
        if lab not in remap:
            remap[lab] = len(remap)
        labels[i] = remap[lab]

    stats.n_chains = n_chains
    stats.sync_round_trips = device.stats.sync_points
    return labels, core, stats


# ---------------------------------------------------------------------- #
# Whole-pipeline baseline
# ---------------------------------------------------------------------- #


def cuda_dclust_leaf(view, eps, minpts, *, device, **_):
    """``mrscan_gpu``'s signature over :func:`cuda_dclust`: no dense box,
    and no claims, so ``summarize_leaf`` runs its own walk."""
    labels, core_mask, base = cuda_dclust(view, eps, minpts, device=device)
    stats = MrScanGPUStats(
        n_points=base.n_points,
        n_core=int(core_mask.sum()),
        pass2_ops=base.distance_ops,
        kernel_launches=device.stats.kernel_launches,
        sync_round_trips=base.sync_round_trips,
        engine="cuda-dclust",
        device=device.stats.as_dict(),
    )
    no_boxes = DenseBoxResult(np.full(len(view), -1, dtype=np.int64), 0, 0)
    return GPUClusterResult(labels, core_mask, no_boxes, stats, claims=None)


@contextmanager
def cuda_dclust_leaves():
    """Cluster every leaf of an in-process pipeline run with CUDA-DClust."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "mrscan_gpu", cuda_dclust_leaf)
        yield
