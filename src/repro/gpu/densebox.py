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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..points import PointSet
from .treeindex import FlatTree, box_extents

__all__ = [
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
        x, y = points.coords[tree.order, 0], points.coords[tree.order, 1]
        x0, x1, y0, y1 = box_extents((x, x, y, y), tree.level_start[-1])
        dx, dy = x1 - x0, y1 - y0
        dense = np.flatnonzero(populous & (dx * dx + dy * dy <= eps * eps))
        box_of_cell[dense] = np.arange(len(dense))
    return DenseBoxResult(
        box_id=box_of_cell[tree.point_leaf], n_boxes=len(dense), n_subdivisions=n_cells
    )
