"""``LeafSummary`` on the wire: sixteen flat columns, one round trip.

``pickle.loads(pickle.dumps(s))`` must hand back the identical in-memory
object — dict orders, plain-int tuple keys, dtypes, ``(0,)`` / ``(0, 2)``
empties, constituents, exact eps — for leaf summaries and for what
``merge_summaries`` makes of them.  Equality is field by field, as in
``test_summary_differential.py``.
"""

from __future__ import annotations

import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from summary_reference import assert_summaries_identical

from repro.data import generate_sdss, generate_twitter
from repro.errors import MergeError
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.merge import assign_global_ids, merge_summaries
from repro.merge.summary import (
    CellSummary,
    ClusterSummary,
    LeafSummary,
    _unpack_summary,
    summarize_leaf,
)
from repro.points import NOISE, PointSet


def _round_trip(summary: LeafSummary, protocol: int = pickle.DEFAULT_PROTOCOL) -> LeafSummary:
    back = pickle.loads(pickle.dumps(summary, protocol=protocol))
    assert_summaries_identical(back, summary)
    # What the field-by-field oracle leaves out: owner cells and
    # constituents are plain-int tuples too.
    keys = [*back.owner_noncore_ids, *(k for c in back.clusters.values() for k in c.constituents)]
    assert {type(v) for key in keys for v in key} <= {int}
    assert type(back.eps) is type(summary.eps)
    return back


def _arrays(summary: LeafSummary) -> list[np.ndarray]:
    cells = [cs for c in summary.clusters.values() for cs in c.cells.values()]
    return [
        *(a for cs in cells for a in (cs.rep_ids, cs.rep_coords, cs.noncore_ids, cs.noncore_coords)),
        *summary.owner_noncore_ids.values(),
    ]


def _cells(coords: np.ndarray, eps: float) -> list[tuple[int, int]]:
    return sorted({(int(x), int(y)) for x, y in np.floor(coords / eps)})


def _random_leaves(seed, n, eps, n_leaves, core_share, span_cells=4):
    """``n_leaves`` summaries over overlapping views of one point set, the
    owned cells dealt out between them.  Core masks are arbitrary, not
    DBSCAN's; a label is the point's 2x2-cell block (so labels have gaps
    and the merged summary keeps several clusters), dropped to NOISE now
    and then; points sit on a lattice of eps/4, which makes exact ties,
    duplicates and shared cells common."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(-2 * span_cells, 2 * span_cells, size=(n, 2)) * (eps / 4)
    ids = rng.permutation(n) * 3 + 2**31  # neither sorted nor dense nor small
    cells = _cells(coords, eps)
    owner = rng.integers(0, n_leaves, size=len(cells))
    block = np.floor(coords / (2 * eps)).astype(np.int64) + span_cells
    summaries = []
    for leaf in range(n_leaves):
        seen = np.flatnonzero(rng.random(n) < 0.7)
        core_mask = rng.random(len(seen)) < core_share
        labels = block[seen, 0] * 10**6 + block[seen, 1]
        labels[rng.random(len(seen)) < 0.1] = NOISE
        owned = {cell for cell, o in zip(cells, owner) if o == leaf}
        summaries.append(
            summarize_leaf(
                leaf, PointSet(ids=ids[seen], coords=coords[seen]), labels, core_mask, eps, owned
            )
        )
    return summaries


# ------------------------- round-trip properties ----------------------- #


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    eps=st.sampled_from([0.25, 0.1, 1.0, 0.00015]),
    n_leaves=st.integers(2, 4),
    core_share=st.floats(0.0, 1.0),
    span_cells=st.integers(1, 12),
)
def test_leaf_and_merged_summaries_round_trip(seed, n, eps, n_leaves, core_share, span_cells):
    leaves = _random_leaves(seed, n, eps, n_leaves, core_share, span_cells)
    for summary in leaves:
        _round_trip(summary)
    # Two tree levels: the first merged summary is a child of the second,
    # so merged clusters, shared CellSummary objects, re-selected
    # representatives and de-duplicated non-core lists all get packed.
    lower, _ = merge_summaries(leaves[:2], eps)
    root, outcome = merge_summaries([lower, *leaves[2:]], eps)
    _round_trip(lower)
    _round_trip(root, protocol=pickle.HIGHEST_PROTOCOL)

    # The merge cannot tell a summary that crossed a boundary from one
    # that did not.
    shipped = [pickle.loads(pickle.dumps(s)) for s in leaves]
    lower2, _ = merge_summaries(shipped[:2], eps)
    root2, outcome2 = merge_summaries([_round_trip(lower2), *shipped[2:]], eps)
    assert_summaries_identical(root2, root)
    assert outcome2 == outcome
    assert assign_global_ids(root2) == assign_global_ids(root)


@pytest.mark.parametrize(
    "make, n, eps, minpts",
    [(generate_twitter, 12_000, 0.1, 10), (generate_sdss, 8_000, 0.00015, 5)],
)
def test_clustered_leaves_round_trip_within_the_size_bound(make, n, eps, minpts):
    """Real DBSCAN output (the golden fixtures' points) split down the
    middle.  The pickle stays near the modelled payload: what the columns
    add to it is 24 bytes per owned cell, not a pickled object per field."""
    points = make(n, seed=2013)
    cells = np.floor(points.coords / eps).astype(np.int64)
    west = cells[:, 0] <= np.median(cells[:, 0])
    leaves = []
    for leaf, own in enumerate((west, ~west)):
        halo = np.abs(cells[:, 0] - np.median(cells[:, 0])) <= 1
        view = PointSet(ids=points.ids[own | halo], coords=points.coords[own | halo])
        out = mrscan_gpu(view, eps, minpts)
        owned = set(map(tuple, cells[own].tolist()))
        leaves.append(summarize_leaf(leaf, view, out.labels, out.core_mask, eps, owned))
    root, _ = merge_summaries(leaves, eps)
    assert any(len(c.constituents) > 1 for c in root.clusters.values())
    for summary in (*leaves, root):
        _round_trip(summary)
        assert len(pickle.dumps(summary)) <= 1.6 * summary.payload_bytes() + 1024


# ------------------------- pinned cases -------------------------------- #


def test_empty_summary():
    back = _round_trip(LeafSummary(eps=0.1))
    assert back.clusters == {} and back.owner_noncore_ids == {}
    assert back.source_leaves == frozenset()
    _round_trip(summarize_leaf(4, PointSet.empty(), [], [], 1.0, {(0, 0)}))


def test_all_noise_leaf():
    points = PointSet.from_coords(np.random.default_rng(2).uniform(0, 2, (40, 2)))
    owned = set(_cells(points.coords, 0.5))
    back = _round_trip(summarize_leaf(1, points, [NOISE] * 40, [False] * 40, 0.5, owned))
    assert back.clusters == {}
    assert sum(len(ids) for ids in back.owner_noncore_ids.values()) == 40


def test_cells_without_claims_and_owned_cells_without_noncores():
    points = PointSet.from_coords(np.random.default_rng(1).uniform(0, 2, (60, 2)))
    owned = set(_cells(points.coords, 0.5)) | {(9, 9)}
    back = _round_trip(summarize_leaf(3, points, [0] * 60, [True] * 60, 0.5, owned))
    cells = back.clusters[(3, 0)].cells.values()
    assert all(cs.noncore_ids.shape == (0,) and cs.noncore_coords.shape == (0, 2) for cs in cells)
    assert all(ids.shape == (0,) for ids in back.owner_noncore_ids.values())
    assert back.owner_noncore_ids[(9, 9)].dtype == np.int64


def test_claim_only_cell_keeps_its_empty_representatives():
    coords = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [1.6, 0.0], [1.7, 0.0], [1.8, 0.0], [0.9, 0.0]]
    points = PointSet.from_coords(np.array(coords))
    summary = summarize_leaf(3, points, [0, 0, 0, 1, 1, 1, 0], [True] * 6 + [False], 1.0, {(0, 0)})
    cell = _round_trip(summary).clusters[(3, 1)].cells[(0, 0)]
    assert cell.rep_ids.shape == (0,) and cell.rep_coords.shape == (0, 2)
    assert cell.noncore_ids.tolist() == [6]


def test_negative_cells_large_ids_and_label_gaps():
    coords = np.array([[-0.5, -1.5], [-0.5, 0.5], [-2.5, 3.5], [1.5, -3.5]])
    ids = np.array([2**31 + 7, 2**40, 2**62, 5])
    summary = summarize_leaf(
        3, PointSet(ids=ids, coords=coords), [10**12, 4, 4, 17], [True] * 4, 1.0, {(-1, -2), (-3, 3)}
    )
    back = _round_trip(summary)
    assert list(back.clusters) == [(3, 4), (3, 17), (3, 10**12)]
    assert list(back.clusters[(3, 4)].cells) == [(-3, 3), (-1, 0)]
    assert back.clusters[(3, 4)].cells[(-3, 3)].rep_ids.tolist() == [2**62]


@pytest.mark.parametrize("eps", [0.1, 0.00015, 1 / 3, float(np.nextafter(0.1, 1))])
def test_eps_survives_exactly(eps):
    points = PointSet.from_coords(np.array([[0.0, 0.0], [eps / 2, 0.0]]))
    back = _round_trip(summarize_leaf(0, points, [0, 0], [True, True], eps, {(0, 0)}))
    assert back.eps.hex() == eps.hex()


def test_hand_built_merged_cluster_keeps_its_constituents():
    cell = CellSummary(
        rep_ids=np.array([1, 2]), rep_coords=np.zeros((2, 2)),
        noncore_ids=np.empty(0, dtype=np.int64), noncore_coords=np.empty((0, 2)),
    )
    merged = ClusterSummary(key=(0, 1), cells={(0, 0): cell}, constituents=frozenset({(0, 1), (2, 0)}))
    alone = ClusterSummary(key=(1, 0), cells={(0, 0): cell, (5, -5): cell})
    summary = LeafSummary(
        eps=0.5, clusters={(1, 0): alone, (0, 1): merged}, source_leaves=frozenset({2, 0, 1})
    )
    back = _round_trip(summary)
    assert back.clusters[(0, 1)].constituents == {(0, 1), (2, 0)}
    assert back.clusters[(1, 0)].constituents == {(1, 0)}


def test_unpacked_arrays_do_not_alias_the_sender():
    summary = _random_leaves(seed=7, n=60, eps=0.25, n_leaves=2, core_share=0.6)[0]
    back = pickle.loads(pickle.dumps(summary))
    sent = _arrays(summary)
    assert sent and not any(
        np.shares_memory(got, old) for got, old in zip(_arrays(back), sent) if len(old)
    )
    before = [a.copy() for a in sent]
    for got in _arrays(back):
        got[...] = 0
    assert all(np.array_equal(old, kept) for old, kept in zip(sent, before))


# ------------------------- damaged columns ----------------------------- #


class _Columns:
    """Pickles as a summary whose columns are whatever it was handed."""

    def __init__(self, columns):
        self.columns = columns

    def __reduce__(self):
        return _unpack_summary, (self.columns,)


def _merged_columns() -> tuple:
    """The columns of a merged summary: none of the sixteen is empty."""
    leaves = _random_leaves(seed=3, n=60, eps=0.25, n_leaves=2, core_share=0.6, span_cells=8)
    unpack, (columns,) = merge_summaries(leaves, 0.25)[0].__reduce__()
    assert unpack is _unpack_summary and len(columns) == 16
    return columns


@pytest.mark.parametrize("column", range(2, 16))
def test_inconsistent_columns_raise_merge_error(column):
    columns = _merged_columns()
    assert len(columns[column]) > 1
    damaged = list(columns)
    damaged[column] = columns[column][:-1]
    with pytest.raises(MergeError):
        pickle.loads(pickle.dumps(_Columns(tuple(damaged))))
    with pytest.raises(MergeError):
        _unpack_summary(columns[:-1])


def test_negative_counts_raise_merge_error():
    columns = list(_merged_columns())
    n_rep = columns[7].copy()
    n_rep[:2] = (n_rep[0] + n_rep[1] + 1, -1)  # the sum still matches
    columns[7] = n_rep
    with pytest.raises(MergeError):
        _unpack_summary(tuple(columns))


# ------------------------- structural guards --------------------------- #


def _object_ops(blob: bytes) -> int:
    """Opcodes that build an object: one or two per pickled ndarray."""
    return sum(op.name in ("REDUCE", "BUILD", "NEWOBJ") for op, _, _ in pickletools.genops(blob))


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_pickle_holds_a_constant_number_of_arrays(protocol):
    small = _random_leaves(seed=1, n=12, eps=0.25, n_leaves=2, core_share=0.6)
    large = _random_leaves(seed=1, n=4000, eps=0.25, n_leaves=2, core_share=0.6, span_cells=40)
    small.append(merge_summaries(small, 0.25)[0])
    large.append(merge_summaries(large, 0.25)[0])
    n_cells = [sum(len(c.cells) for c in s.clusters.values()) for s in (small[0], large[0])]
    assert n_cells[1] > 50 * n_cells[0] > 0
    counts = {_object_ops(pickle.dumps(s, protocol=protocol)) for s in (*small, *large)}
    # At most: 14 arrays and two dtypes (construct + set state each), one
    # summary; protocol 5 builds an array in one step.
    assert len(counts) == 1 and counts.pop() <= 2 * 14 + 2 * 2 + 1


def test_old_object_graph_layout_still_loads(monkeypatch):
    """A blob from before the columnar layout is plain dataclass state:
    with ``__reduce__`` gone ``object.__reduce_ex__`` writes exactly that,
    and it loads — through no code of ours — into the same summary."""
    leaves = _random_leaves(seed=11, n=70, eps=0.25, n_leaves=3, core_share=0.5)
    root, _ = merge_summaries(leaves, 0.25)
    with monkeypatch.context() as legacy:
        legacy.delattr(LeafSummary, "__reduce__")
        blobs = [pickle.dumps(s) for s in (*leaves, root)]
    for blob, summary in zip(blobs, (*leaves, root)):
        assert b"_unpack_summary" not in blob and b"CellSummary" in blob
        assert b"_unpack_summary" in pickle.dumps(summary)
        assert_summaries_identical(pickle.loads(blob), summary)
