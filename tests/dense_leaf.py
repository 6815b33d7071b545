"""Two hand-built leaves where dense boxes hold nearly every row (eps 1,
MinPts 8), for the tests of the shapes a dense leaf's passes lean on.

``dense_blob_leaf``: 1 400 of its 1 408 rows are in dense boxes.
- Blobs A and B (400 rows each) sit in opposite corners of Eps-cell
  (0, 0), more than Eps apart: two clusters' cores in one cell.
- Line C (200 rows, x 3..4) is core; the border at x 2.015 is within Eps
  of its first three rows only, all in Eps-cell (3, 0), so its own cell
  (2, 0) holds claims and no core of C: a claims-only segment.
- Blob F and a box cell beside it holding one core (through F) and one
  border: judged by its cores' extent the cell pair is wholly within
  Eps, by all its rows' extent it would need a probe.
- Five isolated noise rows.

``mixed_box_leaf`` adds line D (spacing 0.15, not dense), a border that
shares D's first eps/√2 box with D's first row, and a box cell whose
border row comes before its two cores: the cores' extent meets a core
of another cluster's cell without an edge, the border is within Eps of
it, so only the cell's cores may be probed.
"""

from __future__ import annotations

import numpy as np

from repro.points import PointSet

EPS, MINPTS = 1.0, 8
_EDGE = EPS / np.sqrt(2.0)  # the dense-box cell edge


def _blob(rng: np.random.Generator, x: float, y: float) -> np.ndarray:
    return rng.uniform(0.0, 0.04, size=(400, 2)) + (x, y)


def _rows() -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    f = 40 * _EDGE  # blob F's box column; its neighbour's is the next
    return [
        rng.uniform(0.02, 0.12, size=(400, 2)),  # A
        rng.uniform(0.88, 0.98, size=(400, 2)),  # B
        np.stack((np.linspace(3.0, 4.0, 200), np.full(200, 0.455)), axis=1),  # C
        np.array([[2.015, 0.455]]),  # C's border
        _blob(rng, f + 0.30, 0.30),  # F
        np.array([[f + 1.25, 0.32], [f + 1.40, 0.05]]),  # core via F, border
        np.stack((20.0 + 3.0 * np.arange(5), np.full(5, 20.0)), axis=1),  # noise
    ]


def dense_blob_leaf() -> PointSet:
    coords = np.concatenate(_rows())
    order = np.random.default_rng(8).permutation(len(coords))  # no row order to lean on
    return PointSet.from_coords(coords[order])


def mixed_box_leaf() -> PointSet:
    rng = np.random.default_rng(10)
    line = np.stack((10.5 + 0.15 * np.arange(28), np.full(28, 10.0)), axis=1)
    coords = np.concatenate(_rows() + [line, np.array([[10.2, 10.55]])])
    coords = coords[np.random.default_rng(9).permutation(len(coords))]
    # Box cell (60, 60): the border first, then cores c1 and c2 (held by
    # blobs H1 and H2); g in the next box is held by H3.  g is beyond
    # Eps of c1 and c2 but within it of the border.
    o = 60 * _EDGE
    cell = np.array([[0.65, 0.65], [0.05, 0.65], [0.65, 0.05], [1.3, 1.3]]) + o
    blobs = [_blob(rng, o + x, o + y) for x, y in ((-0.52, 0.63), (0.63, -0.52), (1.83, 1.83))]
    return PointSet.from_coords(np.concatenate([coords, cell, *blobs]))
