"""FlatTree property tests: structure, dual traversal, CSR correctness.

The tree is the csr engine's spatial index; these properties are what the
engine's byte-identical-labels guarantee rests on:

* every point lives in exactly one leaf box at every level;
* the Eps-cell view of the eps/8 counting tree is, cell for cell, the
  tree built at Eps from scratch;
* the dual traversal's leaf pairs equal the brute-force set of box pairs
  within the interaction radius (mindist prune is exact, never lossy);
* the saturating traversal's credit plus the annulus it hands back is the
  exact neighbour count of every row it did not retire, and a lower bound
  that reaches the threshold on every row it did;
* ``csr_neighborhoods`` equals a brute-force O(n^2) eps-neighborhood
  scan, including on degenerate inputs (duplicates, collinear, empty).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from block_reference import candidate_counts, csr_neighborhoods, neighbor_pairs
from hypothesis import given, settings, strategies as st

from repro.dbscan.grid_index import GridIndex
from repro.errors import ConfigError
from repro.gpu.treeindex import FlatTree, morton_decode, morton_encode
from repro.points import PointSet


def _coords(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-3.0, 5.0, size=(n, 2))
    if kind == "clustered":
        centers = rng.uniform(0.0, 4.0, size=(5, 2))
        return centers[rng.integers(0, 5, size=n)] + rng.normal(0, 0.1, (n, 2))
    if kind == "collinear":
        return np.column_stack([rng.uniform(0, 8, n), np.full(n, 1.25)])
    if kind == "duplicates":
        base = rng.uniform(0.0, 2.0, size=(max(n // 4, 1), 2))
        return base[rng.integers(0, len(base), size=n)]
    raise AssertionError(kind)


KINDS = ("uniform", "clustered", "collinear", "duplicates")


# ---------------------------------------------------------------------- #
# Morton codes
# ---------------------------------------------------------------------- #


def test_morton_roundtrip():
    rng = np.random.default_rng(0)
    ux = rng.integers(0, 2**28, size=1000).astype(np.uint64)
    uy = rng.integers(0, 2**28, size=1000).astype(np.uint64)
    dx, dy = morton_decode(morton_encode(ux, uy))
    np.testing.assert_array_equal(dx, ux.astype(np.int64))
    np.testing.assert_array_equal(dy, uy.astype(np.int64))


def test_morton_orders_by_quadrant():
    # Prefix property: shifting a key right 2 bits gives the parent cell.
    ux = np.array([0, 1, 2, 3], dtype=np.uint64)
    uy = np.array([0, 1, 2, 3], dtype=np.uint64)
    keys = morton_encode(ux, uy)
    px, py = morton_decode(keys >> np.uint64(2))
    np.testing.assert_array_equal(px, ux.astype(np.int64) // 2)
    np.testing.assert_array_equal(py, uy.astype(np.int64) // 2)


# ---------------------------------------------------------------------- #
# Tree structure
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", KINDS)
def test_every_point_in_exactly_one_box_per_level(kind):
    rng = np.random.default_rng(1)
    coords = _coords(rng, 500, kind)
    tree = FlatTree(coords, 0.3)
    assert sorted(tree.order.tolist()) == list(range(500))
    for lvl in range(tree.n_levels):
        start, count = tree.level_start[lvl], tree.level_count[lvl]
        # Boxes tile the sorted permutation: contiguous, disjoint, total.
        assert start[0] == 0
        np.testing.assert_array_equal(start[1:], (start + count)[:-1])
        assert int((start + count)[-1]) == 500
        # Keys sorted strictly ascending (unique non-empty boxes).
        keys = tree.level_keys[lvl]
        assert np.all(keys[1:] > keys[:-1])
    assert len(tree.level_keys[0]) == 1  # single root


@pytest.mark.parametrize("kind", KINDS)
def test_child_ranges_partition_each_level(kind):
    rng = np.random.default_rng(2)
    tree = FlatTree(_coords(rng, 400, kind), 0.25)
    for lvl in range(tree.n_levels - 1):
        cs, ce = tree.child_start[lvl], tree.child_end[lvl]
        assert np.all(ce >= cs)
        # Children cover level l+1 exactly once, in order.
        assert cs[0] == 0
        np.testing.assert_array_equal(cs[1:], ce[:-1])
        assert int(ce[-1]) == len(tree.level_keys[lvl + 1])
        # Each child's Morton prefix is its parent's key.
        for i in range(len(cs)):
            child_keys = tree.level_keys[lvl + 1][cs[i] : ce[i]]
            assert np.all((child_keys >> np.uint64(2)) == tree.level_keys[lvl][i])
        # Point counts aggregate bottom-up.
        child_counts = tree.level_count[lvl + 1]
        agg = np.add.reduceat(child_counts, cs)
        np.testing.assert_array_equal(agg, tree.level_count[lvl])


@pytest.mark.parametrize("kind", KINDS)
def test_box_cells_at_every_level_are_the_decoded_keys(kind):
    """Box coordinates are kept from the build (leaves decoded once, each
    parent its children's shifted down), not decoded per query."""
    rng = np.random.default_rng(12)
    tree = FlatTree(_coords(rng, 500, kind), 0.17)
    assert tree.n_levels == tree.leaf_bits + 1
    for lvl in range(tree.n_levels):
        bx, by = tree.box_cells(lvl)
        want_x, want_y = morton_decode(tree.level_keys[lvl])
        np.testing.assert_array_equal(bx, want_x)
        np.testing.assert_array_equal(by, want_y)
        assert tree.box_cells(lvl)[0] is bx


def test_leaf_boxes_are_eps_cells():
    """Leaf level == GridIndex's non-empty Eps-cells, same geometry."""
    rng = np.random.default_rng(3)
    coords = _coords(rng, 600, "clustered")
    eps = 0.2
    tree = FlatTree(coords, eps)
    index = GridIndex(PointSet.from_coords(coords), eps)
    grid_cells = set(index.cell_counts())
    bx, by = tree.box_cells(tree.n_levels - 1)
    tree_cells = {
        (int(x + tree.cell_origin[0]), int(y + tree.cell_origin[1]))
        for x, y in zip(bx, by)
    }
    assert tree_cells == grid_cells
    for box in range(tree.n_leaf_boxes):
        cell = (
            int(bx[box] + tree.cell_origin[0]),
            int(by[box] + tree.cell_origin[1]),
        )
        np.testing.assert_array_equal(
            np.sort(tree.leaf_members(box)), np.sort(index.cell_members(cell))
        )


def test_point_leaf_is_consistent():
    rng = np.random.default_rng(4)
    tree = FlatTree(_coords(rng, 300, "uniform"), 0.4)
    for box in range(tree.n_leaf_boxes):
        members = tree.leaf_members(box)
        assert np.all(tree.point_leaf[members] == box)


def test_stable_order_within_cells():
    """Within a leaf box, points keep input order (stable sort)."""
    coords = np.array([[0.05, 0.05], [0.02, 0.02], [0.08, 0.01], [5.0, 5.0]])
    tree = FlatTree(coords, 1.0)
    box = tree.point_leaf[0]
    np.testing.assert_array_equal(tree.leaf_members(int(box)), [0, 1, 2])


def test_coarsened_view_orders_by_fine_morton_then_input():
    """A coarsened view's cell lists its points by finer cell (Morton
    order), then by input order."""
    coords = np.array([[0.9, 0.9], [0.1, 0.1], [0.6, 0.1], [0.2, 0.2], [0.1, 0.6]])
    view = FlatTree(coords, 0.5, align_levels=1).coarsened(1)
    assert view.n_leaf_boxes == 1
    np.testing.assert_array_equal(view.leaf_members(0), [1, 3, 2, 4, 0])


# ---------------------------------------------------------------------- #
# The Eps-cell tree as a view of the eps/8 counting tree
# ---------------------------------------------------------------------- #

_leaf_trees = importlib.import_module("repro.gpu.mrscan_gpu")._leaf_trees


def _in_global_cells(tree: FlatTree):
    """A tree's leaf level in the global cell frame: the cell of every
    point, the population of every cell, and the interacting cell pairs."""
    bx, by = tree.box_cells(tree.n_levels - 1)
    cells = list(zip((bx + tree.cell_origin[0]).tolist(), (by + tree.cell_origin[1]).tolist()))
    point_cell = np.array(cells, dtype=np.int64)[tree.point_leaf]
    population = dict(zip(cells, tree.level_count[-1].tolist()))
    members = {cells[box]: sorted(tree.leaf_members(box).tolist()) for box in range(len(cells))}
    a, b = tree.leaf_pairs()
    pairs = {tuple(sorted((cells[i], cells[j]))) for i, j in zip(a.tolist(), b.tolist())}
    return point_cell, population, members, pairs


def _assert_eps_view(coords: np.ndarray, eps: float, divisor: int = 8) -> None:
    tree, view = _leaf_trees(coords, eps)
    assert tree.cell_width == eps / divisor and view.order is tree.order
    want = FlatTree(coords, eps)
    assert view.cell_width == view.radius == eps
    assert set(vars(view)) == set(vars(want))
    got_cells, got_pop, got_members, got_pairs = _in_global_cells(view)
    want_cells, want_pop, want_members, want_pairs = _in_global_cells(want)
    np.testing.assert_array_equal(got_cells, want_cells)
    np.testing.assert_array_equal(got_cells, np.floor(coords / eps).astype(np.int64))
    assert got_pop == want_pop and got_members == want_members
    assert got_pairs == want_pairs
    np.testing.assert_array_equal(view.interaction_counts(), want.interaction_counts())


@pytest.mark.parametrize("offset", [1e6, -3e7, 1e8, 1e9])
def test_eps_view_under_large_offsets(offset):
    rng = np.random.default_rng(int(abs(offset)) % 997)
    coords = _coords(rng, 600, "clustered") + np.array([offset, -offset / 3.0])
    _assert_eps_view(coords, 0.125)
    _assert_eps_view(coords, 0.1)


@pytest.mark.parametrize("ratio", [2**15 - 40, 2**15 + 40])
def test_eps_view_either_side_of_the_float32_cutover(ratio):
    rng = np.random.default_rng(ratio)
    eps = 0.01
    near = _coords(rng, 300, "clustered") * 0.1
    coords = np.vstack([near, near[:100] + np.array([ratio * eps, 0.0])])
    _assert_eps_view(coords, eps)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.3, 0.25])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_eps_view_on_accumulated_step_lattices(eps, offset):
    """Spacing eps by repeated addition: coordinates sit ulps either side
    of the Eps-cell edges."""
    axis = np.cumsum(np.full(12, eps)) + offset
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    _assert_eps_view(np.column_stack([gx.ravel(), gy.ravel()]), eps)


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.07])
def test_eps_view_one_ulp_below_a_cell_edge(eps):
    """``x / eps`` one ulp below an integer ``k``: the point is in cell
    ``k - 1`` of both grids, never ``k`` of one and ``k - 1`` of the other."""
    k = np.arange(1.0, 400.0)
    q = np.nextafter(k, 0.0)
    x = q * eps
    below = x / eps == q  # keep the quotients that really are one ulp below
    k, x = k[below], x[below]
    assert len(x) > 50
    np.testing.assert_array_equal(np.floor(x / eps), k - 1)
    _assert_eps_view(np.column_stack([x, x[::-1]]), eps)


@pytest.mark.parametrize("ratio, divisor", [(1e3, 8), (5e7, 4), (1e8, 2), (1.6e8, 1)])
def test_eps_view_on_every_fallback_divisor(ratio, divisor):
    rng = np.random.default_rng(divisor)
    eps = 0.05
    near = _coords(rng, 200, "clustered") * 0.1
    coords = np.vstack([near, near[:50] + np.array([ratio * eps, 0.0])])
    _assert_eps_view(coords, eps, divisor)


def test_coarsened_needs_an_aligned_tree():
    coords = np.array([[0.35, 0.35], [2.0, 2.0]])
    with pytest.raises(ConfigError, match="drop 3 levels"):
        FlatTree(coords, 0.1).coarsened(3)  # origin cell 3 is no multiple of 8
    with pytest.raises(ConfigError, match="drop 3 levels"):
        FlatTree(np.zeros((2, 2)), 0.1).coarsened(3)  # too shallow


# ---------------------------------------------------------------------- #
# Dual traversal
# ---------------------------------------------------------------------- #


def _brute_force_pairs(tree: FlatTree, radius: float) -> set[tuple[int, int]]:
    """All leaf-box pairs with region mindist strictly below radius."""
    bx, by = tree.box_cells(tree.n_levels - 1)
    w = tree.cell_width
    out = set()
    for a in range(tree.n_leaf_boxes):
        for b in range(a, tree.n_leaf_boxes):
            gx = max(abs(int(bx[a] - bx[b])) - 1, 0) * w
            gy = max(abs(int(by[a] - by[b])) - 1, 0) * w
            if gx * gx + gy * gy < radius * radius:
                out.add((a, b))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_leaf_pairs_match_brute_force(kind):
    rng = np.random.default_rng(5)
    tree = FlatTree(_coords(rng, 250, kind), 0.35)
    a, b = tree.leaf_pairs()
    got = set(zip(a.tolist(), b.tolist()))
    assert got == _brute_force_pairs(tree, 0.35)
    assert np.all(a <= b)  # unordered pairs, diagonal included once


def test_leaf_pairs_with_finer_radius():
    """radius > cell: the 5x5-minus-corners stencil of the union stage."""
    rng = np.random.default_rng(6)
    tree = FlatTree(_coords(rng, 250, "uniform"), 0.15, radius=0.2)
    a, b = tree.leaf_pairs()
    got = set(zip(a.tolist(), b.tolist()))
    assert got == _brute_force_pairs(tree, 0.2)
    # A Chebyshev-distance-2 pair straight across is kept (gap 0.15 <
    # 0.2); the corner at (2, 2) is not (gap * sqrt(2) > 0.2).
    bx, by = tree.box_cells(tree.n_levels - 1)
    for pa, pb in got:
        dx, dy = abs(int(bx[pa] - bx[pb])), abs(int(by[pa] - by[pb]))
        assert max(dx, dy) <= 2 and (dx, dy) != (2, 2)


def test_interaction_counts_match_grid_stencil():
    """Default radius: per-point candidates == the 3x3 Eps-cell stencil."""
    rng = np.random.default_rng(7)
    coords = _coords(rng, 500, "clustered")
    eps = 0.18
    tree = FlatTree(coords, eps)
    index = GridIndex(PointSet.from_coords(coords), eps)
    np.testing.assert_array_equal(tree.interaction_counts(), candidate_counts(index))


# ---------------------------------------------------------------------- #
# Saturating traversal (the counting walk)
# ---------------------------------------------------------------------- #


def _brute_counts(coords: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    d = coords[:, None, :] - coords[None, :, :]
    within = d[..., 0] ** 2 + d[..., 1] ** 2 <= radius * radius
    return within, within.sum(axis=1)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 220),
    radius=st.floats(0.05, 0.9),
    divisor=st.sampled_from([1, 2, 3, 6]),
    need=st.integers(0, 14),
    active_share=st.sampled_from([0.0, 0.4, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_saturating_pairs_evidence(kind, n, radius, divisor, need, active_share, seed):
    rng = np.random.default_rng(seed)
    coords = _coords(rng, n, kind)
    tree = FlatTree(coords, radius / divisor, radius=radius)
    active = rng.random(tree.n_leaf_boxes) < active_share
    credit, rows, cols = tree.saturating_pairs(active, need)
    within, brute = _brute_counts(coords, radius)

    assert len(credit) == tree.n_leaf_boxes and len(rows) == len(cols)
    quads = list(zip(rows.tolist(), cols.tolist()))
    assert len(set(quads)) == len(quads)  # each directed pair once, diagonal once
    hits = np.zeros(n, dtype=np.int64)
    for r, c in quads:
        mr, mc = tree.leaf_members(r), tree.leaf_members(c)
        hits[mr] += within[np.ix_(mr, mc)].sum(axis=1)

    retired = ~active | (credit >= need)
    assert not retired[rows].any()  # (iv) a done box is never a row
    box = tree.point_leaf
    open_rows = ~retired[box]
    # (i) rows still open: credit + annulus hits is the exact count.
    np.testing.assert_array_equal((credit[box] + hits)[open_rows], brute[open_rows])
    # (ii) every box's credit is sound, so a saturated row really has
    # >= need neighbours.
    assert np.all(credit[box] <= brute)
    saturated = active[box] & (credit[box] >= need)
    assert np.all(brute[saturated] >= need)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("divisor", [1, 3, 6])
def test_saturating_pairs_without_saturation_is_leaf_pairs(kind, divisor):
    """(iii) With an unreachable threshold and every box active, credited
    pairs and annulus pairs partition ``leaf_pairs()`` exactly: a leaf pair
    is credited iff some ancestor pair (itself included) is wholly inside
    the radius, and handed back iff none is.  The one thing the walk adds
    is box pairs whose nominal gap *ties* the radius, which ``leaf_pairs``
    prunes and counting must leave to the distance test."""
    rng = np.random.default_rng(13)
    coords = _coords(rng, 300, kind)
    radius = 0.45
    tree = FlatTree(coords, radius / divisor, radius=radius)
    n_boxes = tree.n_leaf_boxes
    credit, rows, cols = tree.saturating_pairs(np.ones(n_boxes, dtype=bool), len(coords) + 1)

    a, b = tree.leaf_pairs()
    off = a != b
    directed = set(zip(np.concatenate((a, b[off])).tolist(), np.concatenate((b, a[off])).tolist()))
    annulus = set(zip(rows.tolist(), cols.tolist()))
    bx, by = tree.box_cells(tree.n_levels - 1)
    for p, q in annulus - directed:
        gx = max(abs(int(bx[p] - bx[q])) - 1, 0) * tree.cell_width
        gy = max(abs(int(by[p] - by[q])) - 1, 0) * tree.cell_width
        assert 1.0 <= (gx * gx + gy * gy) / (radius * radius) < 1.0 + 1e-9
        assert (q, p) in annulus
    if divisor == 1:  # radius == cell width: axis-aligned ties exist
        assert annulus - directed
    annulus &= directed

    def full_at_some_level(p: int, q: int) -> bool:
        for up in range(tree.n_levels):
            edge = tree.cell_width * 2**up
            fx = (abs(int(bx[p] >> up) - int(bx[q] >> up)) + 1) * edge
            fy = (abs(int(by[p] >> up) - int(by[q] >> up)) + 1) * edge
            if fx * fx + fy * fy <= radius * radius:
                return True
        return False

    want_credit = np.zeros(n_boxes, dtype=np.int64)
    count = tree.level_count[-1]
    for p, q in directed:
        covered = full_at_some_level(p, q)
        assert covered != ((p, q) in annulus)
        if covered:
            want_credit[p] += count[q]
    np.testing.assert_array_equal(credit, want_credit)


def test_saturating_pairs_all_rows_done():
    """(iv) Nothing to count — no active box, or a threshold already met —
    means nothing handed back, whatever the geometry."""
    rng = np.random.default_rng(14)
    tree = FlatTree(_coords(rng, 400, "clustered"), 0.05, radius=0.3)
    nobody = np.zeros(tree.n_leaf_boxes, dtype=bool)
    everybody = ~nobody
    for active, need in ((nobody, 5), (everybody, 0), (everybody, 1)):
        credit, rows, cols = tree.saturating_pairs(active, need)
        assert len(rows) == len(cols) == 0
        assert len(credit) == tree.n_leaf_boxes
    # need=1: every leaf box is wholly inside the radius of itself here.
    assert np.all(credit >= tree.level_count[-1])


# ---------------------------------------------------------------------- #
# CSR neighborhoods vs brute force
# ---------------------------------------------------------------------- #


def _brute_force_csr(coords: np.ndarray, eps: float):
    n = len(coords)
    rows = []
    for i in range(n):
        d2 = np.sum((coords - coords[i]) ** 2, axis=1)
        rows.append(np.flatnonzero(d2 <= eps * eps))
    return rows


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch_pairs", [97, 4096])
def test_csr_matches_brute_force(kind, batch_pairs):
    rng = np.random.default_rng(8)
    coords = _coords(rng, 180, kind)
    eps = 0.3
    csr = csr_neighborhoods(coords, eps, batch_pairs=batch_pairs)
    expect = _brute_force_csr(coords, eps)
    assert len(csr) == len(coords)
    for i, row in enumerate(expect):
        np.testing.assert_array_equal(csr.row(i), row)  # row-sorted


def test_neighbor_pairs_counts_match_grid_index():
    rng = np.random.default_rng(9)
    coords = _coords(rng, 400, "uniform")
    eps = 0.25
    pairs = neighbor_pairs(coords, eps)
    index = GridIndex(PointSet.from_coords(coords), eps)
    np.testing.assert_array_equal(pairs.neighbor_counts(), index.count_neighbors())
    # Each unordered candidate pair is evaluated exactly once: candidates
    # are at most half the full 3x3-stencil scan (plus the n self-pairs).
    full = int(candidate_counts(index).sum())
    assert pairs.n_candidates <= full // 2 + len(coords)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_csr_degenerate_sizes(n):
    coords = np.zeros((n, 2), dtype=np.float64)
    csr = csr_neighborhoods(coords, 0.5)
    assert len(csr) == n
    for i in range(n):
        np.testing.assert_array_equal(csr.row(i), np.arange(n))  # all dupes


def test_single_point_per_leaf_box():
    coords = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]])
    tree = FlatTree(coords, 1.0)
    assert tree.n_leaf_boxes == 3
    a, b = tree.leaf_pairs()
    np.testing.assert_array_equal(a, b)  # only self-pairs survive the prune
    csr = csr_neighborhoods(coords, 1.0, tree=tree)
    for i in range(3):
        np.testing.assert_array_equal(csr.row(i), [i])


# ---------------------------------------------------------------------- #
# Guards
# ---------------------------------------------------------------------- #


def test_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="positive"):
        FlatTree(np.zeros((3, 2)), 0.0)
    with pytest.raises(ConfigError, match="positive"):
        FlatTree(np.zeros((3, 2)), 1.0, radius=-1.0)
    with pytest.raises(ConfigError, match="\\(n, 2\\)"):
        FlatTree(np.zeros((3, 3)), 1.0)
    with pytest.raises(ConfigError, match="finite"):
        FlatTree(np.array([[0.0, np.nan]]), 1.0)


def test_rejects_span_overflow():
    # 2^28 cells per axis is the Morton key budget.
    coords = np.array([[0.0, 0.0], [2.0**29, 0.0]])
    with pytest.raises(ConfigError, match="too small for the coordinate span"):
        FlatTree(coords, 1.0)


def test_empty_tree():
    tree = FlatTree(np.empty((0, 2)), 1.0)
    assert tree.n_levels == 0 and tree.n_leaf_boxes == 0
    a, b = tree.leaf_pairs()
    assert len(a) == len(b) == 0
    assert len(tree.interaction_counts()) == 0


def test_empty_tree_has_the_full_attribute_set():
    """An empty tree used to lack ``cell_origin`` / ``leaf_bits`` and raise
    ``IndexError`` from ``box_cells(0)``."""
    tree = FlatTree(np.empty((0, 2)), 1.0)
    full = FlatTree(np.zeros((1, 2)), 1.0)
    assert set(vars(full)) == set(vars(tree))
    assert tree.leaf_bits == 0
    np.testing.assert_array_equal(tree.cell_origin, [0, 0])
    bx, by = tree.box_cells(0)
    assert len(bx) == len(by) == 0
    credit, rows, cols = tree.saturating_pairs(np.zeros(0, dtype=bool), 3)
    assert len(credit) == len(rows) == len(cols) == 0
