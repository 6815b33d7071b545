"""Unit tests for the Eps-grid histogram."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.partition.grid import (
    GRID_NEIGHBOR_OFFSETS, CellIndex, GridHistogram, cell_of_coords,
)
from repro.points import PointSet


def test_rejects_bad_eps():
    with pytest.raises(ConfigError):
        GridHistogram(eps=0.0)
    with pytest.raises(ConfigError):
        cell_of_coords(np.zeros((1, 2)), -1.0)


def test_cell_of_coords_global_frame():
    cells = cell_of_coords(np.array([[0.05, 0.05], [-0.05, 0.05], [0.15, -0.25]]), 0.1)
    assert cells.tolist() == [[0, 0], [-1, 0], [1, -3]]


def test_from_points_counts():
    ps = PointSet.from_coords([[0.05, 0.05], [0.06, 0.07], [0.95, 0.05], [5.0, 5.0]])
    hist = GridHistogram.from_points(ps, 0.1)
    assert hist.count((0, 0)) == 2
    assert hist.count((9, 0)) == 1
    assert hist.count((50, 50)) == 1
    assert hist.count((1, 1)) == 0
    assert hist.total_points == 4
    assert hist.n_cells == 3


def test_from_points_empty():
    hist = GridHistogram.from_points(PointSet.empty(), 1.0)
    assert hist.total_points == 0
    assert hist.n_cells == 0


def _hist(eps, counts: dict) -> GridHistogram:
    return GridHistogram.from_cells(eps, list(counts), list(counts.values()))


def test_merge_adds_counts():
    a = _hist(1.0, {(0, 0): 2, (1, 1): 3})
    b = _hist(1.0, {(0, 0): 5, (2, 2): 1})
    m = a.merge(b)
    assert m.count((0, 0)) == 7
    assert m.count((1, 1)) == 3
    assert m.count((2, 2)) == 1
    # merge does not mutate inputs
    assert a.count((0, 0)) == 2


def test_merge_rejects_mismatched_eps():
    with pytest.raises(ConfigError):
        GridHistogram(eps=1.0).merge(GridHistogram(eps=2.0))


def test_merge_is_reduction_equivalent():
    """Distributed histograms reduce to the same histogram as a single pass."""
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 10, size=(500, 2))
    full = GridHistogram.from_points(PointSet.from_coords(coords), 0.5)
    parts = [
        GridHistogram.from_points(PointSet.from_coords(coords[i::4]), 0.5)
        for i in range(4)
    ]
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    np.testing.assert_array_equal(merged.cells, full.cells)
    np.testing.assert_array_equal(merged.counts, full.counts)


def test_column_major_order():
    hist = _hist(1.0, {(1, 0): 1, (0, 1): 1, (0, 0): 1, (1, -1): 1})
    assert hist.cells.tolist() == [[0, 0], [0, 1], [1, -1], [1, 0]]


def test_from_cells_adds_repeated_listings():
    hist = GridHistogram.from_cells(1.0, [(3, 1), (0, 2), (3, 1), (-4, 0)], [2, 5, 7, 1])
    assert hist.cells.tolist() == [[-4, 0], [0, 2], [3, 1]]
    assert hist.counts.tolist() == [1, 5, 9]
    assert hist.cells.dtype == hist.counts.dtype == np.int64


def test_neighbor_rows_table():
    hist = _hist(1.0, {(0, 0): 1, (1, 1): 1, (5, 5): 1, (0, 1): 4})
    rows = hist.neighbor_rows()  # rows: (0,0) (0,1) (1,1) (5,5)
    assert rows.shape == (4, 8)
    assert sorted(rows[0][rows[0] >= 0].tolist()) == [1, 2]
    assert sorted(rows[2][rows[2] >= 0].tolist()) == [0, 1]
    assert (rows[3] == -1).all()
    assert hist.rows_of([[5, 5], [5, 6], [-9, 0]]).tolist() == [3, -1, -1]


def test_cell_frame_refuses_a_grid_too_wide_for_int64_keys():
    from repro.errors import PartitionError

    with pytest.raises(PartitionError, match="too many for int64"):
        GridHistogram.from_cells(1.0, [(-(2**40), -(2**40)), (2**40, 2**40)])


def test_neighbor_offsets_exclude_self():
    assert (0, 0) not in GRID_NEIGHBOR_OFFSETS
    assert len(GRID_NEIGHBOR_OFFSETS) == 8


def test_payload_bytes_scales_with_cells():
    a = _hist(1.0, {(0, 0): 1})
    b = _hist(1.0, {(i, 0): 1 for i in range(10)})
    assert b.payload_bytes() == 10 * a.payload_bytes()


@pytest.mark.parametrize("n_lookups", [0, 10**6], ids=["search", "table"])
def test_cell_index_lookups_agree(n_lookups):
    """Both lookups answer alike: listed cells their row (in listing
    order, not key order), anything else -1 — cells outside the frame,
    holes inside it, and a 0-d query."""
    rng = np.random.default_rng(5)
    cells = np.unique(rng.integers(-50, 50, size=(300, 2)), axis=0)
    cells = cells[rng.permutation(len(cells))[:200]]
    index = CellIndex(cells, n_lookups)
    assert index.by_table is (n_lookups > 0)
    assert index.unique
    np.testing.assert_array_equal(index.rows(cells), np.arange(len(cells)))
    probe = rng.integers(-60, 60, size=(7, 9, 2))
    listed = {tuple(c): r for r, c in enumerate(cells.tolist())}
    want = [[listed.get(tuple(c), -1) for c in row] for row in probe.tolist()]
    assert index.rows(probe).tolist() == want
    assert int(index.rows(cells[3])) == 3
    assert not CellIndex(np.vstack((cells, cells[:1])), n_lookups).unique


def test_histogram_counts_alike_by_table_and_by_sort():
    """A frame within the table bound is counted by one scatter; a sparse
    one (two far clumps) by a sort — same cells, same counts."""
    rng = np.random.default_rng(6)
    dense = rng.integers(0, 20, size=(400, 2))
    sparse = np.vstack((dense, dense[:50] + 10**6))
    for cells in (dense, sparse):
        weights = rng.integers(1, 9, size=len(cells))
        for counts in (None, weights):
            hist = GridHistogram.from_cells(1.0, cells, counts)
            want: dict = {}
            listed = np.ones(len(cells), int) if counts is None else counts
            for cell, w in zip(map(tuple, cells.tolist()), listed):
                want[cell] = want.get(cell, 0) + int(w)
            assert hist.cells.tolist() == [list(c) for c in sorted(want)]
            assert hist.counts.tolist() == [want[c] for c in sorted(want)]
            assert hist.counts.dtype == np.int64
