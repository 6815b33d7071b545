"""Representative-point selection (§3.3.1, Fig 5).

"The eight selected representative points are the points closest to the
center of the sides of the grid cell and the corners of the grid cell."

The sufficiency argument (Fig 5): any point P in the cell is within
``eps/2`` of at least one corner or side-midpoint (call it Ref — a cell of
edge eps cannot hide a point farther than eps/2 from all eight targets);
the representative chosen for Ref is by construction at most as far from
Ref as P is, i.e. within ``eps/2`` of Ref too; so P and that representative
are within eps of each other.  Hence if two clusters share a core point in
a cell, each cluster's representative set contains a point within Eps of
it — a merge is always detectable from representatives alone.

A second property lets a leaf whose view only grew re-summarise from its
last summary (``summarize_leaf(..., candidates=)``).  Each target's
nearest point over a union of point sets is the nearest point of one of
the parts, since the union's minimum distance is the least of the parts'
minima; and when rows keep their relative order, the lowest row among
the union's nearest points is the lowest of its own part's.  So the
parts' representatives plus any new points select exactly what all the
points select.  After an append, the cores of a ``(cluster, cell)`` are
whole old ``(cluster, cell)`` core sets (an old core stays core,
clusters only merge, a point never changes cell) plus the rows that
became core: the old representatives and the new cores hold every new
representative.

``tests/merge/test_representatives.py`` checks both properties
property-based.

:func:`select_representatives_batch` selects them for many segments at
once — every ``(cluster, cell)`` of a leaf, or every merged cell of a
merge-tree node.  It squares each axis's three target offsets (min, max,
mid) once, then takes each target's first row at its segment's minimum.
The one-cell form it is held to, one argmin per target, lives in
``tests/merge/merge_reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import MergeError

__all__ = [
    "representative_targets",
    "select_representatives_batch",
    "N_REPRESENTATIVES",
]

#: The paper's bound: eight points represent a grid cell of any density.
N_REPRESENTATIVES: int = 8


def representative_targets(
    bounds: tuple[float, float, float, float]
) -> np.ndarray:
    """The 8 anchor locations of a cell: 4 corners + 4 side midpoints.

    Order: corners (SW, SE, NW, NE) then midpoints (S, N, W, E).  The
    four bounds may be arrays of one shape ``s`` (one entry per cell); the
    result is then ``(8, 2) + s``.
    """
    xmin, ymin, xmax, ymax = bounds
    xm = 0.5 * (xmin + xmax)
    ym = 0.5 * (ymin + ymax)
    return np.array(
        [
            [xmin, ymin],
            [xmax, ymin],
            [xmin, ymax],
            [xmax, ymax],
            [xm, ymin],
            [xm, ymax],
            [xmin, ym],
            [xmax, ym],
        ],
        dtype=np.float64,
    )


def select_representatives_batch(
    coords: np.ndarray, starts: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Representatives of many cells at once, as one segmented argmin per target.

    ``coords`` holds the candidate points of all cells, grouped: segment
    ``i`` is rows ``starts[i]:starts[i + 1]`` (the last runs to the end),
    none empty, and ``bounds[i]`` is its cell's ``(xmin, ymin, xmax,
    ymax)``.  Returns an ``(n_segments, 8)`` array: the row closest to each
    of the segment's eight targets, the lowest row winning ties — the
    distances, the comparison and the tie-break of the one-cell form (one
    argmin per target), whose result for one segment is the sorted unique
    entries of that segment's row (offset by its start).
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MergeError(f"coords must be (n, 2), got {coords.shape}")
    starts = np.asarray(starts, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 4)
    n, m = len(coords), len(starts)
    if len(bounds) != m:
        raise MergeError(f"{m} segments but {len(bounds)} cell bounds")
    sizes = np.diff(np.append(starts, n))
    if m and (starts[0] != 0 or sizes.min() <= 0):
        raise MergeError("segments must be non-empty and cover coords from row 0")
    chosen = np.empty((m, N_REPRESENTATIVES), dtype=np.int64)
    if m == 0:
        return chosen
    # A target's x is its cell's (0) xmin, (1) xmax or (2) mid-x, and its
    # y likewise: each axis's three squared offsets are computed once.
    xmin, ymin, xmax, ymax = bounds.T
    offsets = [
        [np.square(values - np.repeat(at, sizes)) for at in (lo, hi, 0.5 * (lo + hi))]
        for values, lo, hi in ((coords[:, 0], xmin, xmax), (coords[:, 1], ymin, ymax))
    ]
    # representative_targets' order: SW, SE, NW, NE, S, N, W, E.
    for t, (i, j) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 2), (1, 2))):
        d2 = offsets[0][i] + offsets[1][j]
        nearest = np.minimum.reduceat(d2, starts)
        # Every segment holds its minimum, so its first hit is its lowest row.
        hit = np.flatnonzero(d2 == np.repeat(nearest, sizes))
        chosen[:, t] = hit[np.searchsorted(hit, starts)]
    return chosen
