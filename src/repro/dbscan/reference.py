"""Exact single-CPU DBSCAN — the paper's quality comparator.

``dbscan_reference`` is a vectorised formulation of the Ester et al.
algorithm, producing the textbook clustering (up to border-point
tie-breaks, which DBSCAN leaves unspecified): core points via the
Eps-grid neighbor count, core connectivity via union-find over a fine
grid of edge ``eps / sqrt(2)`` (all points in a fine cell are mutually
within eps, so one union covers them; cross-cell components join when
any core pair is within eps), borders assigned to their nearest core
neighbor.  This is the implementation the Fig 11 quality benchmark uses
as the ELKI stand-in — it is exact, not approximate.  The literal
breadth-first formulation it is held to lives beside its test
(``tests/dbscan/bfs_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..points import NOISE, PointSet
from .disjoint_set import DisjointSet
from .grid_index import GridIndex

__all__ = [
    "DBSCANResult",
    "dbscan_reference",
    "core_components",
    "assign_border_points",
]


@dataclass
class DBSCANResult:
    """Outcome of one DBSCAN run over a point set.

    ``labels[i]`` is the cluster of point ``i`` (``NOISE`` = -1);
    ``core_mask[i]`` says whether point ``i`` is a core point.
    """

    labels: np.ndarray
    core_mask: np.ndarray

    @property
    def n_clusters(self) -> int:
        labs = self.labels[self.labels != NOISE]
        return int(len(np.unique(labs)))

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))

    def cluster_sizes(self) -> dict[int, int]:
        """Point count per cluster label."""
        labs, counts = np.unique(self.labels[self.labels != NOISE], return_counts=True)
        return {int(l): int(c) for l, c in zip(labs, counts)}


def _validate(eps: float, minpts: int) -> None:
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")


# --------------------------------------------------------------------- #
# Vectorised exact DBSCAN
# --------------------------------------------------------------------- #


def _fine_cells(coords: np.ndarray, eps: float) -> np.ndarray:
    """Fine-grid cell coordinates with edge eps / sqrt(2)."""
    s = eps / np.sqrt(2.0)
    return np.floor(coords / s).astype(np.int64)


def _min_dist_le(a: np.ndarray, b: np.ndarray, eps2: float) -> bool:
    """True when any pair (one coord from each array) is within sqrt(eps2)."""
    # Blocked to bound memory on dense cells.
    block = max(1, int(2_000_000 // max(len(b), 1)))
    for i in range(0, len(a), block):
        seg = a[i : i + block]
        d2 = (
            (seg[:, 0][:, None] - b[:, 0][None, :]) ** 2
            + (seg[:, 1][:, None] - b[:, 1][None, :]) ** 2
        )
        if np.any(d2 <= eps2):
            return True
    return False


def core_components(coords: np.ndarray, eps: float) -> np.ndarray:
    """Connected components of the eps-graph over ``coords``.

    Exact: two points are connected when a chain of pairwise-within-eps
    points joins them.  Used for core points, where DBSCAN's clusters are
    precisely these components.  Returns dense component labels.
    """
    m = len(coords)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    eps2 = eps * eps
    cells = _fine_cells(coords, eps)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    change = np.empty(m, dtype=bool)
    change[0] = True
    change[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], m)
    uniq = sorted_cells[starts]
    slices = {
        (int(cx), int(cy)): (int(s), int(e)) for (cx, cy), s, e in zip(uniq, starts, ends)
    }

    ds = DisjointSet(m)
    # All points in one fine cell (diagonal = eps) are mutually within eps.
    for (s, e) in slices.values():
        base = order[s]
        for k in range(s + 1, e):
            ds.union(int(base), int(order[k]))

    # Cross-cell: the 5x5 stencil (minus self) covers reach eps at fine
    # scale; check each unordered cell pair once.
    offsets = [
        (dx, dy)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if (dx, dy) > (0, 0)  # strict upper half: each pair visited once
    ]
    for (cx, cy), (s, e) in slices.items():
        a_idx = order[s:e]
        a_coords = coords[a_idx]
        for dx, dy in offsets:
            other = slices.get((cx + dx, cy + dy))
            if other is None:
                continue
            b_idx = order[other[0] : other[1]]
            if ds.connected(int(a_idx[0]), int(b_idx[0])):
                continue
            # Corner cells of the 5x5 stencil are > eps away entirely;
            # cheap region check prunes them.
            s_fine = eps / np.sqrt(2.0)
            gapx = max(0, abs(dx) - 1) * s_fine
            gapy = max(0, abs(dy) - 1) * s_fine
            if gapx * gapx + gapy * gapy > eps2:
                continue
            if _min_dist_le(a_coords, coords[b_idx], eps2):
                ds.union(int(a_idx[0]), int(b_idx[0]))
    return ds.component_labels()


def assign_border_points(
    index: GridIndex,
    labels: np.ndarray,
    core_mask: np.ndarray,
) -> None:
    """Label non-core points from their nearest core neighbor.

    Mutates ``labels`` in place.  Every core claims, dense-box members
    included: a border within Eps of any core is never noise, as in exact
    DBSCAN.

    Ties go to the nearest core (then lowest index) — a deterministic
    stand-in for DBSCAN's unspecified visit-order assignment.
    """
    eps2 = index.eps * index.eps
    coords = index.points.coords
    for cell in index.cell_counts():
        members = index.cell_members(cell)
        members = members[~core_mask[members]]
        if len(members) == 0:
            continue
        cand = index.candidate_indices(cell)
        cand = cand[core_mask[cand]]
        if len(cand) == 0:
            continue
        cand = np.sort(cand)
        d2 = (
            (coords[members, 0][:, None] - coords[cand, 0][None, :]) ** 2
            + (coords[members, 1][:, None] - coords[cand, 1][None, :]) ** 2
        )
        within = d2 <= eps2
        has = np.any(within, axis=1)
        if not np.any(has):
            continue
        d2_masked = np.where(within, d2, np.inf)
        nearest = np.argmin(d2_masked, axis=1)
        labels[members[has]] = labels[cand[nearest[has]]]


def dbscan_reference(points: PointSet, eps: float, minpts: int) -> DBSCANResult:
    """Vectorised exact DBSCAN (see module docstring)."""
    _validate(eps, minpts)
    n = len(points)
    if n == 0:
        return DBSCANResult(
            labels=np.empty(0, dtype=np.int64), core_mask=np.empty(0, dtype=bool)
        )
    index = GridIndex(points, eps)
    counts = index.count_neighbors()
    core_mask = counts >= minpts
    core_idx = np.flatnonzero(core_mask)

    labels = np.full(n, NOISE, dtype=np.int64)
    if len(core_idx):
        comp = core_components(points.coords[core_idx], eps)
        labels[core_idx] = comp
        assign_border_points(index, labels, core_mask)

    # Canonical numbering: clusters numbered by first appearance.
    remap: dict[int, int] = {}
    out = np.full(n, NOISE, dtype=np.int64)
    next_id = 0
    for i in range(n):
        lab = int(labels[i])
        if lab == NOISE:
            continue
        if lab not in remap:
            remap[lab] = next_id
            next_id += 1
        out[i] = remap[lab]
    return DBSCANResult(labels=out, core_mask=core_mask)
