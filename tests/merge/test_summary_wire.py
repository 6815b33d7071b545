"""``LeafSummary`` on the wire: its sixteen columns, one round trip.

``pickle.loads(pickle.dumps(s))`` must hand back the identical columns —
row orders, dtypes, ``(0,)`` / ``(0, 2)`` empties, constituents, exact eps,
plain-int source leaves — for leaf summaries and for what
``merge_summaries`` makes of them.
"""

from __future__ import annotations

import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from merge_reference import (
    CellSummary,
    ClusterSummary,
    GraphSummary,
    as_graph,
    assert_columns_identical,
    random_leaves,
    to_columns,
    write_object_graphs,
)

from repro.core.pipeline import _ClusterLeafOutput
from repro.data import generate_sdss, generate_twitter
from repro.durability.checkpoints import LeafCheckpointStore, loads_blob
from repro.errors import CheckpointError, MergeError
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.merge import assign_global_ids, merge_summaries
from repro.merge.summary import LeafSummary, _unpack_summary, summarize_leaf
from repro.points import NOISE, PointSet


def _round_trip(summary: LeafSummary, protocol: int = pickle.DEFAULT_PROTOCOL) -> LeafSummary:
    back = pickle.loads(pickle.dumps(summary, protocol=protocol))
    assert_columns_identical(back, summary)
    return back


def _arrays(summary: LeafSummary) -> list[np.ndarray]:
    return [c for c in summary.columns() if isinstance(c, np.ndarray)]


def _cells(coords: np.ndarray, eps: float) -> list[tuple[int, int]]:
    return sorted({(int(x), int(y)) for x, y in np.floor(coords / eps)})


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
    leaves = random_leaves(seed, n, eps, n_leaves, core_share, span_cells)
    for summary in leaves:
        _round_trip(summary)
    # Two tree levels: the first merged summary is a child of the second,
    # so merged clusters, re-selected representatives and de-duplicated
    # non-core lists all get packed.
    lower, _ = merge_summaries(leaves[:2], eps)
    root, outcome = merge_summaries([lower, *leaves[2:]], eps)
    _round_trip(lower)
    _round_trip(root, protocol=pickle.HIGHEST_PROTOCOL)

    # The merge cannot tell a summary that crossed a boundary from one
    # that did not.
    shipped = [pickle.loads(pickle.dumps(s)) for s in leaves]
    lower2, _ = merge_summaries(shipped[:2], eps)
    root2, outcome2 = merge_summaries([_round_trip(lower2), *shipped[2:]], eps)
    assert_columns_identical(root2, root)
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
    assert root.n_constituents.max() > 1
    for summary in (*leaves, root):
        _round_trip(summary)
        assert len(pickle.dumps(summary)) <= 1.6 * summary.payload_bytes() + 1024


# ------------------------- pinned cases -------------------------------- #


def test_empty_summary():
    back = _round_trip(LeafSummary.empty(0.1))
    assert back.n_clusters == 0 and len(back.owner_cells) == 0
    assert back.source_leaves == ()
    _round_trip(summarize_leaf(4, PointSet.empty(), [], [], 1.0, {(0, 0)}))


def test_all_noise_leaf():
    points = PointSet.from_coords(np.random.default_rng(2).uniform(0, 2, (40, 2)))
    owned = set(_cells(points.coords, 0.5))
    back = _round_trip(summarize_leaf(1, points, [NOISE] * 40, [False] * 40, 0.5, owned))
    assert back.n_clusters == 0
    assert len(back.owner_ids) == 40


def test_cells_without_claims_and_owned_cells_without_noncores():
    points = PointSet.from_coords(np.random.default_rng(1).uniform(0, 2, (60, 2)))
    owned = set(_cells(points.coords, 0.5)) | {(9, 9)}
    back = as_graph(_round_trip(summarize_leaf(3, points, [0] * 60, [True] * 60, 0.5, owned)))
    cells = back.clusters[(3, 0)].cells.values()
    assert all(cs.noncore_ids.shape == (0,) and cs.noncore_coords.shape == (0, 2) for cs in cells)
    assert all(ids.shape == (0,) for ids in back.owner_noncore_ids.values())
    assert back.owner_noncore_ids[(9, 9)].dtype == np.int64


def test_claim_only_cell_keeps_its_empty_representatives():
    coords = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [1.6, 0.0], [1.7, 0.0], [1.8, 0.0], [0.9, 0.0]]
    points = PointSet.from_coords(np.array(coords))
    summary = summarize_leaf(3, points, [0, 0, 0, 1, 1, 1, 0], [True] * 6 + [False], 1.0, {(0, 0)})
    cell = as_graph(_round_trip(summary)).clusters[(3, 1)].cells[(0, 0)]
    assert cell.rep_ids.shape == (0,) and cell.rep_coords.shape == (0, 2)
    assert cell.noncore_ids.tolist() == [6]


def test_negative_cells_large_ids_and_label_gaps():
    coords = np.array([[-0.5, -1.5], [-0.5, 0.5], [-2.5, 3.5], [1.5, -3.5]])
    ids = np.array([2**31 + 7, 2**40, 2**62, 5])
    summary = summarize_leaf(
        3, PointSet(ids=ids, coords=coords), [10**12, 4, 4, 17], [True] * 4, 1.0, {(-1, -2), (-3, 3)}
    )
    back = as_graph(_round_trip(summary))
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
    summary = to_columns(GraphSummary(
        eps=0.5, clusters={(1, 0): alone, (0, 1): merged}, source_leaves=frozenset({2, 0, 1})
    ))
    back = as_graph(_round_trip(summary))
    assert back.clusters[(0, 1)].constituents == {(0, 1), (2, 0)}
    assert back.clusters[(1, 0)].constituents == {(1, 0)}
    assert back.source_leaves == {0, 1, 2}


def test_unpacked_arrays_do_not_alias_the_sender():
    summary = random_leaves(seed=7, n=60, eps=0.25, n_leaves=2, core_share=0.6)[0]
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
    leaves = random_leaves(seed=3, n=60, eps=0.25, n_leaves=2, core_share=0.6, span_cells=8)
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
    small = random_leaves(seed=1, n=12, eps=0.25, n_leaves=2, core_share=0.6)
    large = random_leaves(seed=1, n=4000, eps=0.25, n_leaves=2, core_share=0.6, span_cells=40)
    small.append(merge_summaries(small, 0.25)[0])
    large.append(merge_summaries(large, 0.25)[0])
    n_cells = [len(s.cell_xy) for s in (small[0], large[0])]
    assert n_cells[1] > 50 * n_cells[0] > 0
    counts = {_object_ops(pickle.dumps(s, protocol=protocol)) for s in (*small, *large)}
    # At most: 14 arrays and two dtypes (construct + set state each), one
    # summary; protocol 5 builds an array in one step.
    assert len(counts) == 1 and counts.pop() <= 2 * 14 + 2 * 2 + 1


def test_old_object_graph_layout_is_an_unpickling_error(monkeypatch, tmp_path):
    """A blob from before the columnar layout names classes that are
    gone.  Plain ``pickle.loads`` raises ``AttributeError`` on it; the
    checkpoint stores' ``loads_blob`` raises ``UnpicklingError``, one of
    the errors a store counts as a miss — never a crash.  A summary with
    no cluster names no gone class and is refused by ``__setstate__``."""
    leaves = random_leaves(seed=11, n=70, eps=0.25, n_leaves=3, core_share=0.5)
    root, _ = merge_summaries(leaves, 0.25)
    clusterless = summarize_leaf(
        5, PointSet.from_coords([[0.1, 0.1]]), [NOISE], [False], 0.25, {(0, 0)}
    )
    summaries = (*leaves, root, clusterless)
    with monkeypatch.context() as legacy:
        write_object_graphs(legacy)
        blobs = [pickle.dumps(s) for s in summaries]
    assert all(b"_unpack_summary" not in blob for blob in blobs)
    assert b"CellSummary" in blobs[0] and b"CellSummary" not in blobs[-1]
    with pytest.raises(AttributeError):
        pickle.loads(blobs[0])
    for blob in blobs:
        with pytest.raises(pickle.UnpicklingError):
            loads_blob(blob)

    store = LeafCheckpointStore(tmp_path)
    with monkeypatch.context() as legacy:
        write_object_graphs(legacy)
        store.save(0, _ClusterLeafOutput(
            leaf_id=0, labels=np.zeros(3), core_mask=np.zeros(3, bool), n_owned=3,
            summary=leaves[0], stats=None,
        ))
    with pytest.raises(CheckpointError, match="unreadable"):
        store.load(0)
