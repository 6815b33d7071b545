"""Shadow-region computation (§3.1.1).

"The shadow region is the set of points not already included in the
partition that lie Eps distance from the partition's boundary."  Because
partitions are built from Eps×Eps grid cells, "the shadow region for each
partition simply becomes the set of grid neighbors not already in the
partition" — every point within Eps of a partition point must lie in one
of the partition's cells or their 8-neighbors, so with the shadow added,
every partition point's Eps-neighborhood is complete within the partition.

Here the shadow of any cell set is an array lookup: its 8-stencil,
binary-searched among the non-empty cells' keys.
"""

from __future__ import annotations

import numpy as np

from .grid import GridHistogram, cell_array
from .plan import PartitionSpec

__all__ = ["shadow_rows", "shadow_cells_of", "refresh_shadow"]


def shadow_rows(cells, histogram: GridHistogram) -> np.ndarray:
    """Histogram rows of the non-empty neighbors of ``cells`` that are not
    among ``cells``, ascending."""
    own = cell_array(cells)
    # One flag per row, plus a last slot every empty cell (row -1) lands in.
    shadow = np.zeros(histogram.n_cells + 1, dtype=bool)
    shadow[histogram.neighbor_rows(own)] = True
    shadow[histogram.rows_of(own)] = False
    return np.flatnonzero(shadow[:-1])


def shadow_cells_of(cells, histogram: GridHistogram) -> set[tuple[int, int]]:
    """Non-empty grid neighbors of ``cells`` that are not in ``cells``.

    Empty neighbor cells are skipped — they contribute no shadow points,
    and keeping them out makes shadow *counts* exact.
    """
    rows = shadow_rows(cells, histogram)
    return set(map(tuple, histogram.cells[rows].tolist()))


def refresh_shadow(spec: PartitionSpec, histogram: GridHistogram) -> None:
    """Recompute one partition's shadow cells and count in place."""
    rows = shadow_rows(spec.cells, histogram)
    spec.shadow_cells = set(map(tuple, histogram.cells[rows].tolist()))
    spec.shadow_count = int(histogram.counts[rows].sum())
