"""Exact DBSCAN in arbitrary dimension.

The paper's partitioning algorithm is described for 2-D "however it can be
extended to an arbitrary dimension" (§3.1.2), and DBSCAN itself is
dimension-agnostic.  This module supplies the d-dimensional building
blocks — a sparse grid index with the 3^d-cell stencil and an exact
DBSCAN — mirroring the 2-D fast path (`grid_index.py`, `reference.py`)
structure point for point:

* a point is core when its closed eps-ball holds >= MinPts points
  (itself included);
* clusters are the connected components of the eps-graph over core
  points, computed with a fine grid of edge ``eps/sqrt(d)`` (a fine
  cell's diagonal is exactly eps, so its points are mutually connected
  and one union covers them);
* border points join their nearest core neighbor's cluster.

The 2-D pipeline keeps its specialised implementation (the partitioner's
grid, the 8-anchor representative lemma and the merge rules are stated in
2-D by the paper); this module is the foundation a d-dimensional port
would build on, and is tested against brute force in 1-5 dimensions
(``tests/dbscan/test_nd.py``).  It is not part of the ``repro`` package:
``spacetime_events.py`` beside it imports it as ``dbscan_nd``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.dbscan.disjoint_set import DisjointSet
from repro.errors import ConfigError
from repro.points import NOISE

__all__ = ["GridIndexND", "DBSCANResultND", "dbscan_nd"]


def _group_cells(cells: np.ndarray) -> dict[tuple, np.ndarray]:
    """Group row indices by cell coordinate tuple."""
    n, d = cells.shape
    if n == 0:
        return {}
    order = np.lexsort(tuple(cells[:, k] for k in reversed(range(d))))
    sc = cells[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    return {
        tuple(int(v) for v in sc[s]): order[s:e] for s, e in zip(starts, ends)
    }


class GridIndexND:
    """Sparse d-dimensional grid index with cell edge ``eps``.

    Every point within eps of p lies in p's cell or one of its 3^d - 1
    neighbors, exactly as in the 2-D case.
    """

    def __init__(self, coords: np.ndarray, eps: float) -> None:
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ConfigError(f"coords must be (n, d), got {coords.shape}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.coords = coords
        self.eps = float(eps)
        self.dim = coords.shape[1]
        self.cells = np.floor(coords / eps).astype(np.int64)
        self._groups = _group_cells(self.cells)
        self._offsets = list(itertools.product((-1, 0, 1), repeat=self.dim))

    @property
    def n_cells(self) -> int:
        return len(self._groups)

    def cell_members(self, cell: tuple) -> np.ndarray:
        return self._groups.get(tuple(cell), np.empty(0, dtype=np.int64))

    def candidate_indices(self, cell: tuple) -> np.ndarray:
        chunks = []
        for off in self._offsets:
            members = self._groups.get(tuple(c + o for c, o in zip(cell, off)))
            if members is not None:
                chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def neighbors_of(self, i: int) -> np.ndarray:
        """Indices within eps of point ``i`` (closed ball, includes i)."""
        cand = self.candidate_indices(tuple(self.cells[i]))
        d2 = np.sum((self.coords[cand] - self.coords[i]) ** 2, axis=1)
        return cand[d2 <= self.eps * self.eps]

    def count_neighbors(self) -> np.ndarray:
        """Eps-ball population per point, vectorised per cell."""
        n = len(self.coords)
        counts = np.zeros(n, dtype=np.int64)
        eps2 = self.eps * self.eps
        for cell, members in self._groups.items():
            cand = self.candidate_indices(cell)
            block = max(1, int(2_000_000 // max(len(cand), 1)))
            for b0 in range(0, len(members), block):
                mb = members[b0 : b0 + block]
                d2 = np.sum(
                    (self.coords[mb][:, None, :] - self.coords[cand][None, :, :]) ** 2,
                    axis=2,
                )
                counts[mb] = np.count_nonzero(d2 <= eps2, axis=1)
        return counts


@dataclass
class DBSCANResultND:
    """Outcome of a d-dimensional DBSCAN run."""

    labels: np.ndarray
    core_mask: np.ndarray

    @property
    def n_clusters(self) -> int:
        labs = self.labels[self.labels != NOISE]
        return int(len(np.unique(labs)))

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))


def _core_components_nd(coords: np.ndarray, eps: float) -> np.ndarray:
    """Connected components of the eps-graph (exact), any dimension."""
    m, d = coords.shape
    if m == 0:
        return np.empty(0, dtype=np.int64)
    eps2 = eps * eps
    fine = eps / np.sqrt(d)
    cells = np.floor(coords / fine).astype(np.int64)
    groups = _group_cells(cells)

    ds = DisjointSet(m)
    for members in groups.values():
        base = int(members[0])
        for k in members[1:]:
            ds.union(base, int(k))

    # Cross-cell reach: eps = sqrt(d) fine cells; stencil radius ceil(sqrt(d)).
    radius = int(np.ceil(np.sqrt(d)))
    half_offsets = [
        off
        for off in itertools.product(range(-radius, radius + 1), repeat=d)
        if off > tuple([0] * d)
    ]
    for cell, a_idx in groups.items():
        a_coords = coords[a_idx]
        for off in half_offsets:
            # Corner pruning: minimum possible gap between the two cells.
            gap2 = sum((max(abs(o) - 1, 0) * fine) ** 2 for o in off)
            if gap2 > eps2:
                continue
            other = groups.get(tuple(c + o for c, o in zip(cell, off)))
            if other is None:
                continue
            if ds.connected(int(a_idx[0]), int(other[0])):
                continue
            b_coords = coords[other]
            d2 = np.sum((a_coords[:, None, :] - b_coords[None, :, :]) ** 2, axis=2)
            if np.any(d2 <= eps2):
                ds.union(int(a_idx[0]), int(other[0]))
    return ds.component_labels()


def dbscan_nd(coords: np.ndarray, eps: float, minpts: int) -> DBSCANResultND:
    """Exact DBSCAN over ``(n, d)`` coordinates."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ConfigError(f"coords must be (n, d), got shape {coords.shape}")
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")
    n = len(coords)
    if n == 0:
        return DBSCANResultND(
            labels=np.empty(0, dtype=np.int64), core_mask=np.empty(0, dtype=bool)
        )
    index = GridIndexND(coords, eps)
    counts = index.count_neighbors()
    core_mask = counts >= minpts
    labels = np.full(n, NOISE, dtype=np.int64)
    core_idx = np.flatnonzero(core_mask)
    if len(core_idx):
        labels[core_idx] = _core_components_nd(coords[core_idx], eps)
        # Borders: nearest core neighbor's cluster.
        eps2 = eps * eps
        for cell, members in index._groups.items():
            members = members[~core_mask[members]]
            if len(members) == 0:
                continue
            cand = index.candidate_indices(cell)
            cand = np.sort(cand[core_mask[cand]])
            if len(cand) == 0:
                continue
            d2 = np.sum(
                (coords[members][:, None, :] - coords[cand][None, :, :]) ** 2, axis=2
            )
            within = d2 <= eps2
            has = np.any(within, axis=1)
            if not np.any(has):
                continue
            nearest = np.argmin(np.where(within, d2, np.inf), axis=1)
            labels[members[has]] = labels[cand[nearest[has]]]

    # Canonical numbering by first appearance.
    remap: dict[int, int] = {}
    out = np.full(n, NOISE, dtype=np.int64)
    for i in range(n):
        lab = int(labels[i])
        if lab == NOISE:
            continue
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return DBSCANResultND(labels=out, core_mask=core_mask)
