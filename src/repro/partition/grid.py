"""Eps×Eps grid histogram (§3.1.2–3.1.3).

The partitioning algorithm "does not use information about each individual
point.  The only information needed is a grid of Eps x Eps cells and the
point count for each cell" — which is why the distributed partitioner only
reduces per-cell counts to the root.  :class:`GridHistogram` is that
reduced object: the non-empty cells as one array, already in the
column-major order the forming algorithm iterates in ("first along the y
axis, and then along the x axis"), and their counts beside it.  Every
structure built on it comes from packed cell keys (:class:`CellFrame`):
counted and looked up through a dense table over the frame when the frame
is at most :data:`TABLE_SLOTS_PER_KEY` slots per key, sorted and
binary-searched otherwise (:class:`CellIndex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from ..errors import ConfigError, PartitionError
from ..points import PointSet

__all__ = [
    "GridHistogram", "CellFrame", "CellIndex", "cell_array", "cell_of_coords",
    "GRID_NEIGHBOR_OFFSETS", "TABLE_SLOTS_PER_KEY",
]

#: The 8-neighborhood used for shadow regions and merge adjacency.
GRID_NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)
_STENCIL = np.array(GRID_NEIGHBOR_OFFSETS, dtype=np.int64)

#: A dense table over a cell frame may have this many slots per key it
#: holds or answers; a wider frame is sorted and binary-searched instead.
#: A table lookup or count is one gather or scatter where a search is a
#: binary search per key, and a table of eight int64 slots per key costs
#: two point records (32 bytes each) per key it serves.
TABLE_SLOTS_PER_KEY = 8


def cell_of_coords(coords: np.ndarray, eps: float) -> np.ndarray:
    """Global Eps-cell coordinates of each point, shape ``(n, 2)`` int64.

    Uses the same global frame as :class:`repro.dbscan.GridIndex`, so the
    partitioner, the clustering leaves and the merge rules all agree on
    cell identity.
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    cells = np.asarray(coords, dtype=np.float64) / eps
    return np.floor(cells, out=cells).astype(np.int64)


def cell_array(cells) -> np.ndarray:
    """``(n, 2)`` int64 array of an iterable of ``(x, y)`` cell tuples."""
    return np.fromiter(chain.from_iterable(cells), dtype=np.int64).reshape(-1, 2)


class CellFrame:
    """One int64 key per cell of a bounding box.

    ``key = (x - x0) * height + (y - y0)``: keys ascend in column-major
    order (x, then y — the forming order), are exact, and decode back to
    the cell.  A cell outside the box keys to -1.  The box is that of the
    ``(n, 2)`` cells it is built from (no cells: an empty box); one whose
    cell count does not fit int64 is refused.
    """

    def __init__(self, cells: np.ndarray) -> None:
        self.x0, self.y0, self.x1, self.y1 = 0, 0, -1, -1
        if len(cells):  # per column: numpy's axis-0 reduction is ~20x slower
            x, y = cells[:, 0], cells[:, 1]
            self.x0, self.x1 = int(x.min()), int(x.max())
            self.y0, self.y1 = int(y.min()), int(y.max())
        self.width, self.height = self.x1 - self.x0 + 1, self.y1 - self.y0 + 1
        #: Cells in the box: every key is below it.
        self.size = self.width * self.height
        if self.size >= 2**63:
            raise PartitionError(
                f"the Eps grid spans {self.width} x {self.height} cells, "
                "too many for int64 cell keys"
            )

    def keys(self, cells: np.ndarray) -> np.ndarray:
        x = np.asarray(cells[..., 0] - self.x0, dtype=np.int64)
        y = np.asarray(cells[..., 1] - self.y0, dtype=np.int64)
        # Negative offsets wrap to huge unsigned ones: one test per axis.
        inside = x.view(np.uint64) < self.width
        inside &= y.view(np.uint64) < self.height
        x *= self.height
        x += y
        x[~inside] = -1
        return x

    def cells(self, keys: np.ndarray) -> np.ndarray:
        x, y = np.divmod(keys, self.height)
        return np.stack((x + self.x0, y + self.y0), axis=-1)


class CellIndex:
    """The row of each of a unique ``(n, 2)`` cell list, looked up by key.

    ``n_lookups`` is how many keys the index will be asked about.  When
    the cells' frame has at most :data:`TABLE_SLOTS_PER_KEY` slots per
    key (held or asked about, whichever is more), a lookup is one gather
    from a dense table of rows over the frame; otherwise it is a binary
    search of the sorted keys.  Either way :meth:`rows` gives the same
    answer, so the choice only ever moves time.  ``unique`` is False when
    a cell is listed twice (the table then holds its last row).
    """

    def __init__(self, cells: np.ndarray, n_lookups: int = 0) -> None:
        self.frame = CellFrame(cells)
        keys = self.frame.keys(cells)
        n = len(keys)
        self._table = self._order = self._sorted = None
        if self.frame.size <= TABLE_SLOTS_PER_KEY * max(n, n_lookups):
            # One slot per frame cell plus a last one, which a key of -1
            # (a cell outside the frame) reads.
            self._table = np.full(self.frame.size + 1, -1, dtype=np.int64)
            self._table[keys] = np.arange(n)
            self.unique = np.array_equal(self._table[keys], np.arange(n))
        else:
            self._order = np.argsort(keys, kind="stable")
            self._sorted = keys[self._order]
            self.unique = not np.any(self._sorted[1:] == self._sorted[:-1])

    @property
    def by_table(self) -> bool:
        """Whether lookups gather from the dense table."""
        return self._table is not None

    def rows(self, cells: np.ndarray) -> np.ndarray:
        """Row of each queried cell (any shape ``(..., 2)``), -1 where the
        cell is not listed."""
        keys = self.frame.keys(cells)
        if self._table is not None:
            return self._table[keys]
        if not len(self._sorted):
            return np.full(np.shape(keys), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[at] == keys, self._order[at], -1)


@dataclass(eq=False)
class GridHistogram:
    """Per-cell point counts over the Eps grid, as two aligned arrays.

    ``cells`` is ``(n, 2)`` int64, unique, in column-major order (x, then
    y) — which :meth:`from_cells` guarantees; ``counts`` is ``(n,)`` int64.
    Row ``i`` of one is row ``i`` of the other: the *cell index* every
    partition structure is built on.
    """

    eps: float
    cells: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")

    @classmethod
    def from_points(cls, points: PointSet, eps: float) -> "GridHistogram":
        """Histogram one (local) point set: one sort of cell keys."""
        return cls.from_cells(eps, cell_of_coords(points.coords, eps))

    @classmethod
    def from_cells(
        cls, eps: float, cells: np.ndarray, counts: np.ndarray | None = None
    ) -> "GridHistogram":
        """Histogram of cell listings in any order, repeats adding up; each
        listing weighs its entry of ``counts`` (one when omitted)."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        frame = CellFrame(cells)
        keys = frame.keys(cells)
        if frame.size <= TABLE_SLOTS_PER_KEY * len(keys):
            # Count into one slot per frame cell; sums of point counts
            # are exact in float64.
            total = np.bincount(keys, weights=counts, minlength=frame.size)
            keys = np.flatnonzero(total)
            counts = total[keys].astype(np.int64)
        elif counts is None:
            keys, counts = np.unique(keys, return_counts=True)
        else:
            keys, inverse = np.unique(keys, return_inverse=True)
            counts = np.bincount(inverse, weights=counts, minlength=len(keys)).astype(np.int64)
        return cls(eps=eps, cells=frame.cells(keys), counts=counts)

    def merge(self, other: "GridHistogram") -> "GridHistogram":
        """Reduce two histograms (the MRNet filter operation).

        Histograms must share the same eps; counts add cell-wise.
        """
        if other.eps != self.eps:
            raise ConfigError(f"cannot merge histograms with eps {self.eps} and {other.eps}")
        return GridHistogram.from_cells(
            self.eps,
            np.concatenate((self.cells, other.cells)),
            np.concatenate((self.counts, other.counts)),
        )

    @property
    def total_points(self) -> int:
        return int(self.counts.sum())

    @property
    def n_cells(self) -> int:
        return len(self.counts)

    @cached_property
    def _index(self) -> CellIndex:
        """The rows by cell key, sized for the 8-neighbours of every row
        (built on first lookup; the arrays are never edited)."""
        return CellIndex(self.cells, len(_STENCIL) * self.n_cells)

    def rows_of(self, cells) -> np.ndarray:
        """Row of each queried cell (array of any shape ``(..., 2)``), -1
        where the cell is empty."""
        return self._index.rows(np.asarray(cells, dtype=np.int64))

    def neighbor_rows(self, cells=None) -> np.ndarray:
        """``(n, 8)`` rows of the 8-neighbors of ``cells`` (default: every
        non-empty cell, in row order), -1 where a neighbor is empty — the
        stencil table shadows are read from."""
        cells = self.cells if cells is None else np.asarray(cells, dtype=np.int64)
        return self.rows_of(cells.reshape(-1, 1, 2) + _STENCIL)

    def count(self, cell: tuple[int, int]) -> int:
        """Count of one cell (0 when empty)."""
        row = int(self.rows_of(cell))
        return int(self.counts[row]) if row >= 0 else 0

    def payload_bytes(self) -> int:
        """Approximate wire size of this histogram (cell coords + count)."""
        return 20 * self.n_cells
