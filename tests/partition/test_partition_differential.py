"""The partition phase as array passes == the dict-and-set reference.

``partition_reference`` holds the partition layer as it was before every
step became an array operation.  Plans must match it field by field —
cells in forming order, counts, shadow sets, targets, types — and
``partition_points`` must route the same rows in the same order, on clumpy
boards that force long rebalance chains, with and without rebalancing,
with more partitions than cells, a single cell, negative cells and
offsets up to 1e9 cells — through the dense owner table and, with clumps
10⁶ cells apart, through the binary search.

``append_points`` is held to ``partition_points`` itself: after every
batch of an ingest stream, appending must give the re-route over the
concatenation byte for byte, with untouched partitions returned as the
same objects.
"""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from partition_reference import (
    GridHistogramReference,
    form_partitions_reference,
    leaf_gpu_work_reference,
    partition_points_reference,
    scaled_histogram_reference,
    shadow_cells_of_reference,
    stencil_counts_reference,
)
from repro.data import generate_sdss, generate_twitter
from repro.partition import (
    GridHistogram,
    adopt_cells,
    append_points,
    dirty_partitions,
    form_partitions,
    partition_points,
    touched_cells_of,
)
from repro.partition.grid import GRID_NEIGHBOR_OFFSETS, cell_of_coords
from repro.partition.partitioner import Router
from repro.partition.shadow import refresh_shadow, shadow_cells_of
from repro.perf.workload import ScaledWorkload, leaf_gpu_work
from repro.points import PointSet


def _board(
    seed: int, n: int, width: int, clumps: int, offset: float, eps: float, apart: float = 0.0
) -> PointSet:
    """``n`` points on a ``width``-cell board, a share of them in
    ``clumps`` tight clumps, shifted by ``offset`` cells, in no spatial
    order, with non-trivial ids and weights.  With ``apart``, every other
    clump sits that many cells further along both axes: a frame too
    sparse for a dense table, so routing binary-searches."""
    rng = np.random.default_rng(seed)
    k = n * clumps // (clumps + 1)
    centres = rng.uniform(0, width, size=(max(clumps, 1), 2))
    centres[1::2] += apart
    clumped = centres[rng.integers(0, max(clumps, 1), size=k)] + rng.normal(0, 0.4, (k, 2))
    spread = rng.uniform(0, width, size=(n - k, 2))
    cells = np.vstack([clumped, spread])[rng.permutation(n)]
    return PointSet(
        ids=rng.permutation(n).astype(np.int64) + 17,
        coords=(cells + offset) * eps,
        weights=rng.uniform(0.5, 2.0, size=n),
    )


def _as_dict(hist: GridHistogram) -> dict:
    return dict(zip(map(tuple, hist.cells.tolist()), hist.counts.tolist()))


def _assert_same_plan(got, want) -> None:
    assert (got.eps, got.target_size) == (want.eps, want.target_size)
    assert got.final_target_size == want.final_target_size
    assert type(got.final_target_size) is type(want.final_target_size)
    assert len(got.partitions) == len(want.partitions)
    for g, w in zip(got.partitions, want.partitions):
        assert g.partition_id == w.partition_id
        assert g.cells == w.cells  # same cells, same forming order
        assert g.point_count == w.point_count
        assert g.shadow_cells == w.shadow_cells
        assert g.shadow_count == w.shadow_count
        assert type(g.point_count) is type(g.shadow_count) is int
        assert all(type(v) is int for cell in g.cells for v in cell)
        assert all(type(v) is int for cell in g.shadow_cells for v in cell)


def _assert_same_routing(points, plan) -> None:
    got = partition_points(points, plan)
    want = partition_points_reference(points, plan)
    assert len(got) == len(want)
    for pair_got, pair_want in zip(got, want):
        for g, w in zip(pair_got, pair_want):
            np.testing.assert_array_equal(g.ids, w.ids)  # same points, same order
            assert g.coords.tobytes() == w.coords.tobytes()
            assert g.weights.tobytes() == w.weights.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 500),
    width=st.integers(1, 14),
    clumps=st.integers(0, 4),
    offset=st.sampled_from([0.0, -3.5, -1e6, 1e9 - 7, -1e9]),
    eps=st.sampled_from([0.25, 1.0, 3.0]),
    n_parts=st.integers(1, 40),
    minpts=st.integers(1, 8),
    rebalance=st.booleans(),
    threshold_factor=st.sampled_from([1.0, 1.075, 1.4]),
)
# Receive-then-shed: partition 1 takes cells from partition 2 and must
# then shed towards partition 0 from its *refreshed* shadow — starting
# from its formed shadow moves one cell too few.
@example(
    seed=47, n=100, width=9, clumps=3, offset=0.0, eps=1.0, n_parts=3, minpts=3,
    rebalance=True, threshold_factor=1.075,
)
# A single cell; more partitions than cells.
@example(
    seed=1, n=50, width=1, clumps=0, offset=-1e6, eps=0.25, n_parts=5, minpts=3,
    rebalance=True, threshold_factor=1.075,
)
def test_plan_and_routing_match_the_reference(
    seed, n, width, clumps, offset, eps, n_parts, minpts, rebalance, threshold_factor
):
    _check_plan_and_routing(
        _board(seed, n, width, clumps, offset, eps), eps, n_parts, minpts, rebalance,
        threshold_factor,
    )


def _check_plan_and_routing(points, eps, n_parts, minpts, rebalance, threshold_factor):
    hist = GridHistogram.from_points(points, eps)
    ref = GridHistogramReference.from_points(points, eps)
    assert _as_dict(hist) == ref.counts
    assert hist.cells.tolist() == [list(c) for c in ref.column_major_cells()]

    kwargs = dict(rebalance=rebalance, threshold_factor=threshold_factor)
    plan = form_partitions(hist, n_parts, minpts, **kwargs)
    _assert_same_plan(plan, form_partitions_reference(ref, n_parts, minpts, **kwargs))
    _assert_same_routing(points, plan)

    for spec in plan.partitions:
        assert shadow_cells_of(spec.cells, hist) == shadow_cells_of_reference(
            spec.cell_set(), ref
        )


_APART = 1e6  # cells between clumps: far past any dense table's bound


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 400),
    width=st.integers(1, 14),
    clumps=st.integers(2, 4),
    offset=st.sampled_from([0.0, -3.5, -1e9]),
    eps=st.sampled_from([0.25, 1.0]),
    n_parts=st.integers(1, 12),
)
def test_routing_by_search_matches_the_reference(seed, n, width, clumps, offset, eps, n_parts):
    """Clumps 10⁶ cells apart: the owned cells' frame is far wider than a
    dense table may be, so every point finds its owner by binary search."""
    points = _board(seed, n, width, clumps, offset, eps, apart=_APART)
    _check_plan_and_routing(points, eps, n_parts, 2, True, 1.075)


@pytest.mark.fuzz
@settings(max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 2000),
    width=st.integers(1, 60),
    clumps=st.integers(0, 6),
    offset=st.sampled_from([0.0, -3.5, -1e6, 1e9 - 7, -1e9]),
    eps=st.sampled_from([0.25, 1.0, 3.0]),
    apart=st.sampled_from([0.0, 30.0, _APART]),
    n_parts=st.integers(1, 64),
    minpts=st.integers(1, 8),
    rebalance=st.booleans(),
)
def test_routing_draws_match_the_reference(
    seed, n, width, clumps, offset, eps, apart, n_parts, minpts, rebalance
):
    """Nightly draws over both routing paths, and boards near the bound."""
    points = _board(seed, n, width, clumps, offset, eps, apart=apart)
    _check_plan_and_routing(points, eps, n_parts, minpts, rebalance, 1.075)


def test_boards_take_both_routing_paths():
    """The differential boards reach both lookups: a board's frame is a
    dense table, clumps 10⁶ cells apart are binary-searched."""
    for apart, by_table in ((0.0, True), (_APART, False)):
        points = _board(3, 300, 12, 2, -3.5, 1.0, apart=apart)
        plan = form_partitions(GridHistogram.from_points(points, 1.0), 4, 2)
        assert Router(plan, len(points)).index.by_table is by_table
        _assert_same_routing(points, plan)


def test_forming_cuts_settle_float_rounding():
    """Targets here are thirds with float noise: partition 2 starts after
    6 points with an effective target of 1.9999999999999996, and ``6 +
    effective`` rounds to 8.0 — the very cumulative count that must close
    it — so the binary search alone would put one cell too many in it."""
    counts = [4, 2, 1, 1, 4, 4]
    cells = [(x, 0) for x in range(len(counts))]
    hist = GridHistogram.from_cells(1.0, cells, counts)
    ref = GridHistogramReference(1.0, dict(zip(cells, counts)))
    plan = form_partitions(hist, 6, 1, rebalance=False)
    _assert_same_plan(plan, form_partitions_reference(ref, 6, 1, rebalance=False))
    assert [spec.n_cells for spec in plan.partitions] == [1] * 6


def test_receive_then_shed_is_exercised():
    """The pinned example really has a partition that receives cells and
    then sheds some of its own."""
    points = _board(47, 100, 9, 3, 0.0, 1.0)
    hist = GridHistogram.from_points(points, 1.0)
    raw = form_partitions(hist, 3, 3, rebalance=False)
    reb = form_partitions(hist, 3, 3, rebalance=True)
    starts = [spec.cells[0] for spec in reb.partitions]
    moved = [a != b for a, b in zip(starts, [spec.cells[0] for spec in raw.partitions])]
    ends_moved = [
        r.cells[-1] != b.cells[-1] for r, b in zip(reb.partitions, raw.partitions)
    ]
    assert any(m and e for m, e in zip(moved, ends_moved))


def test_refresh_shadow_matches_the_reference():
    points = _board(3, 400, 10, 2, -3.5, 1.0)
    hist = GridHistogram.from_points(points, 1.0)
    ref = GridHistogramReference.from_points(points, 1.0)
    plan = form_partitions(hist, 5, 4)
    for spec in plan.partitions:
        spec.cells = spec.cells[1:]  # a stale shadow to refresh
        want = shadow_cells_of_reference(spec.cell_set(), ref)
        refresh_shadow(spec, hist)
        assert spec.shadow_cells == want
        assert spec.shadow_count == sum(ref.count(c) for c in want)
        assert type(spec.shadow_count) is int


@pytest.mark.parametrize(
    "generate, eps", [(generate_twitter, 0.1), (generate_sdss, 0.00015)], ids=["twitter", "sdss"]
)
def test_four_slices_merged_equal_one_histogram_and_the_reference(generate, eps):
    points = generate(20_000, seed=7)
    slices = [points.take(idx) for idx in np.array_split(np.arange(len(points)), 4)]
    merged = GridHistogram.from_points(slices[0], eps)
    for part in slices[1:]:
        merged = merged.merge(GridHistogram.from_points(part, eps))
    whole = GridHistogram.from_points(points, eps)
    np.testing.assert_array_equal(merged.cells, whole.cells)
    np.testing.assert_array_equal(merged.counts, whole.counts)
    assert _as_dict(whole) == GridHistogramReference.from_points(points, eps).counts


# ---------------------------------------------------------------------- #
# append_points == partition_points over the concatenation
# ---------------------------------------------------------------------- #

BATCH_KINDS = ("beside", "between", "gap", "far", "uniform", "duplicate", "lattice")


def _batch_coords(kind, rng, points, plan, hist, size):
    """``size`` coordinates of one kind of batch against the resident
    ``points``: around one resident point (``beside``), across two
    adjacent cells of different owners (``between``), wholly in empty
    cells beside resident cells, preferring ones beside two owners
    (``gap``: adoption widens the adopter's shadow over resident cells),
    in an isolated far cell, uniformly over the board, repeating resident
    coordinates, or exactly on cell corners (``lattice``)."""
    eps = plan.eps
    anchor = points.coords[rng.integers(len(points))]
    home = np.floor(anchor / eps)
    if kind == "beside":
        return anchor + rng.normal(0, 0.7 * eps, (size, 2))
    if kind == "far":
        return (home + 1000 + rng.uniform(0, 1, (size, 2))) * eps
    if kind == "uniform":
        lo, hi = points.coords.min(axis=0), points.coords.max(axis=0)
        return rng.uniform(lo - eps, hi + eps, (size, 2))
    if kind == "duplicate":
        picks = points.coords[rng.integers(len(points), size=(size + 1) // 2)]
        return np.vstack([picks, picks])[:size]
    if kind == "lattice":
        return (home + rng.integers(-1, 3, (size, 2))) * eps
    owner = plan.cell_owner()
    cells = [tuple(c) for c in hist.cells.tolist()]
    if kind == "between":
        pairs = [
            (c, (c[0] + dx, c[1] + dy)) for c in cells for dx, dy in GRID_NEIGHBOR_OFFSETS
            if owner.get((c[0] + dx, c[1] + dy), owner[c]) != owner[c]
        ]
        if not pairs:
            return anchor + rng.normal(0, 0.7 * eps, (size, 2))
        a, b = pairs[rng.integers(len(pairs))]
        corners = np.array([a, b], dtype=np.float64)[rng.integers(2, size=size)]
        return (corners + rng.uniform(0, 1, (size, 2))) * eps
    around = {}  # empty cell -> owners of its resident neighbours
    for cx, cy in cells:
        for dx, dy in GRID_NEIGHBOR_OFFSETS:
            cell = (cx + dx, cy + dy)
            if cell not in owner:
                around.setdefault(cell, set()).add(owner[(cx, cy)])
    gaps = sorted(c for c, o in around.items() if len(o) > 1) or sorted(around)
    picks = np.array(gaps, dtype=np.float64)[rng.integers(len(gaps), size=min(2, len(gaps)))]
    return (picks[rng.integers(len(picks), size=size)] + rng.uniform(0, 1, (size, 2))) * eps


def _assert_identical(got, want) -> None:
    assert len(got) == len(want)
    for pair_got, pair_want in zip(got, want):
        for g, w in zip(pair_got, pair_want):
            for name in ("ids", "coords", "weights"):
                a, b = getattr(g, name), getattr(w, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()


def _append_stream(seed, n, width, clumps, offset, eps, n_parts, batches) -> int:
    """Ingest ``batches`` as the daemon does — adopt, merge the histogram,
    refresh the dirty shadows, append — checking each step against the
    re-route; returns how many partitions took resident rows into a grown
    shadow (the hard case)."""
    board = _board(seed, n, width, clumps, offset, eps)
    # Ascending ids with gaps: the append's precondition, nothing more.
    points = PointSet(ids=np.arange(n) * 3 + 5, coords=board.coords, weights=board.weights)
    hist = GridHistogram.from_points(points, eps)
    plan = form_partitions(hist, n_parts, 2)
    partitions = partition_points(points, plan)
    hard = 0
    for kind, size, batch_seed in batches:
        rng = np.random.default_rng(batch_seed)
        coords = _batch_coords(kind, rng, points, plan, hist, size)
        first = int(points.ids[-1]) + 1
        batch = PointSet(
            ids=first + np.arange(size) * 2, coords=coords, weights=rng.uniform(0.5, 2.0, size)
        )
        after = copy.deepcopy(plan)
        owner = after.cell_owner()
        resident = set(owner)
        touched = touched_cells_of(cell_of_coords(coords, eps))
        adopt_cells(after, {c for c in touched if c not in owner}, owner=owner)
        hist = hist.merge(GridHistogram.from_points(batch, eps))
        dirty = dirty_partitions(after, touched, owner=owner)
        for pid in dirty:
            refresh_shadow(after.partitions[pid], hist)

        got = append_points(partitions, batch, plan, after)
        points = points.concat(batch)
        _assert_identical(got, partition_points(points, after))
        for pid, (old, new) in enumerate(zip(plan.partitions, after.partitions)):
            if pid not in dirty:
                assert got[pid] is partitions[pid]
            hard += bool((new.shadow_cells - old.shadow_cells) & resident)
        plan, partitions = after, got
    return hard


@pytest.mark.fuzz
@settings(max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 400),
    width=st.integers(1, 14),
    clumps=st.integers(0, 4),
    offset=st.sampled_from([0.0, -3.5, 1e9 - 7]),
    eps=st.sampled_from([0.25, 1.0, 3.0]),
    n_parts=st.integers(1, 12),
    batches=st.lists(
        st.tuples(st.sampled_from(BATCH_KINDS), st.integers(1, 40), st.integers(0, 2**16)),
        min_size=1, max_size=3,
    ),
)
@example(
    seed=5, n=300, width=12, clumps=3, offset=0.0, eps=1.0, n_parts=6,
    batches=[("gap", 20, 1), ("gap", 5, 2), ("between", 30, 3)],
)
@example(
    seed=9, n=200, width=8, clumps=0, offset=-3.5, eps=0.25, n_parts=4,
    batches=[("far", 3, 4), ("lattice", 25, 5), ("duplicate", 12, 6)],
)
def test_append_matches_partition_points(seed, n, width, clumps, offset, eps, n_parts, batches):
    _append_stream(seed, n, width, clumps, offset, eps, n_parts, batches)


def test_append_hard_case_is_exercised():
    """The first pinned stream really moves resident rows into a shadow
    that adoption widened."""
    batches = [("gap", 20, 1), ("gap", 5, 2), ("between", 30, 3)]
    assert _append_stream(5, 300, 12, 3, 0.0, 1.0, 6, batches) > 0


# ---------------------------------------------------------------------- #
# repro.perf.workload over the array histogram == over the dict one
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def perf_sample():
    return generate_twitter(40_000, seed=5)  # tests/perf/test_workload.py's sample


@pytest.mark.parametrize("n_target", [5_000, 40_000, 2_000_000])
def test_scaled_workload_matches_the_reference(perf_sample, n_target):
    wl = ScaledWorkload.from_sample(perf_sample, 0.1, n_target)
    ref = scaled_histogram_reference(perf_sample, 0.1, n_target)
    assert _as_dict(wl.histogram) == ref.counts
    assert wl.n_points == ref.total_points == n_target
    stencils = stencil_counts_reference(ref)
    assert dict(zip(map(tuple, wl.histogram.cells.tolist()), wl.stencil_counts().tolist())) == (
        stencils
    )
    for n_leaves, minpts in ((1, 40), (8, 40), (16, 4)):
        plan = wl.partition(n_leaves, minpts)
        _assert_same_plan(plan, form_partitions_reference(ref, n_leaves, minpts))
        for use_densebox in (True, False):
            got = leaf_gpu_work(wl, plan, minpts, use_densebox=use_densebox)
            want = leaf_gpu_work_reference(ref, plan, minpts, use_densebox=use_densebox)
            assert got == want  # float for float
