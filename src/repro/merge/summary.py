"""Per-leaf cluster summaries — what flows up the merge tree (§3.3).

"At this point in the algorithm, all clusters are composed of grid cells
with each grid cell containing a set of representative points and the set
of non-core points."  A :class:`LeafSummary` is exactly that, for every
cluster a leaf found, plus the per-owned-cell set of non-core point IDs the
merge rules' set difference needs (§3.3.2, second overlap type: the owner's
classification of its own cells is authoritative).

Summaries are the only thing transmitted upstream — never whole clusters —
which is what bounds merge traffic ("a small, bounded number of
representative points per cluster", §1).

A summary is sixteen columns, in memory and on the wire (DESIGN.md §2b).
:func:`summarize_leaf` builds them as whole-leaf segment passes over the
non-core claims the cluster engine's border pass already found
(``GPUClusterResult.claims``): the cores sorted by ``(cluster, cell)``
alone, the few claims grouped and de-duplicated on their own, the
segments the union of both, and one segmented min per representative
target.  The per-cell loop it replaced lives on in
``tests/merge/merge_reference.py`` as the oracle the differential tests
hold it to.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from ..errors import MergeError
from ..gpu.kernels import walk_claims
from ..gpu.treeindex import FlatTree
from ..points import NOISE, PointSet
from ..sorting import lex_order, packed_key
from .representatives import select_representatives_batch

__all__ = ["LeafSummary", "summarize_leaf", "cell_bounds"]


def cell_bounds(cell: tuple[int, int], eps: float) -> tuple[float, float, float, float]:
    """Coordinate-space bounds of a global Eps-grid cell."""
    cx, cy = cell
    return (cx * eps, cy * eps, (cx + 1) * eps, (cy + 1) * eps)


@dataclass(eq=False)
class LeafSummary:
    """Everything one subtree contributes to the merge, as columns.

    Row ``i`` of ``keys`` is a cluster, keyed ``(leaf_id, local_cluster_id)``
    (a merged cluster by its smallest constituent).  It owns the next
    ``n_cells[i]`` rows of ``cell_xy``, and cell row ``j`` the next
    ``n_rep[j]`` representatives (``rep_*``, at most eight core points) and
    ``n_noncore[j]`` claimed non-core members (``noncore_*``).  A merged
    cluster lists its leaf clusters in the next ``n_constituents[i]`` rows
    of ``constituent_keys``, ascending; 0 means "just its own key".

    Owned cell ``m`` has the next ``owner_lens[m]`` rows of ``owner_ids``:
    the points the owning leaf classified non-core there (border or noise),
    the authoritative classification the type-2 merge rule differences
    against.  Every owned cell has a row; an empty list means "all core".
    Owned cells are disjoint across leaves, so merged summaries
    concatenate them.

    Readers rely on that contiguity and on nothing else: blobs written by
    older builds list clusters, cells and owned cells in dict and set
    orders.
    """

    eps: float
    source_leaves: tuple[int, ...]
    keys: np.ndarray
    n_cells: np.ndarray
    n_constituents: np.ndarray
    constituent_keys: np.ndarray
    cell_xy: np.ndarray
    n_rep: np.ndarray
    n_noncore: np.ndarray
    rep_ids: np.ndarray
    rep_coords: np.ndarray
    noncore_ids: np.ndarray
    noncore_coords: np.ndarray
    owner_cells: np.ndarray
    owner_lens: np.ndarray
    owner_ids: np.ndarray

    @classmethod
    def empty(cls, eps: float, source_leaves: tuple[int, ...] = ()) -> LeafSummary:
        """No cluster and no owned cell."""
        ints, pairs, xy = np.empty(0, np.int64), np.empty((0, 2), np.int64), np.empty((0, 2))
        return cls(eps, source_leaves, pairs, ints, ints, pairs, pairs, ints, ints,
                   ints, xy, ints, xy, pairs, ints, ints)

    @classmethod
    def concat(cls, summaries: list[LeafSummary], eps: float) -> LeafSummary:
        """All rows of ``summaries``, child after child (not merged)."""
        _, leaves, *arrays = zip(*(s.columns() for s in summaries))
        source_leaves = tuple(sorted(set().union(*leaves)))
        return cls(eps, source_leaves, *(np.concatenate(a) for a in arrays))

    def columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_clusters(self) -> int:
        return len(self.keys)

    def payload_bytes(self) -> int:
        """Modelled wire size: the point arrays, 32 bytes per cell, 64 more."""
        points = (self.rep_ids, self.rep_coords, self.noncore_ids, self.noncore_coords)
        return sum(a.nbytes for a in (*points, self.owner_ids)) + 32 * len(self.cell_xy) + 64

    def __reduce__(self):
        """Every process boundary a summary crosses (pool pickles, tcp
        frames, checkpoint blobs) ships the columns as they are."""
        return _unpack_summary, (self.columns(),)

    def __setstate__(self, state) -> None:
        # Only a blob in the retired object-graph layout carries state;
        # the checkpoint stores read this error as a miss.
        raise pickle.UnpicklingError("summary blob in the retired object-graph layout")


def _check_counts(counts: np.ndarray, *columns: np.ndarray) -> None:
    """Raise unless ``counts`` cuts each of ``columns`` exactly."""
    total = int(counts.sum())
    if (counts < 0).any() or any(len(column) != total for column in columns):
        raise MergeError(
            f"summary columns disagree: counts cover {total} rows, the columns "
            f"they cut have {[len(column) for column in columns]}"
        )


def _unpack_summary(columns: tuple) -> LeafSummary:
    """Wrap the columns :meth:`LeafSummary.__reduce__` shipped.

    The columns' lengths are checked against each other first, so a
    damaged blob is a :class:`MergeError` here and not an ``IndexError``
    deep inside the merge.
    """
    if len(columns) != 16:
        raise MergeError(f"summary has {len(columns)} columns, expected 16")
    s = LeafSummary(*columns)
    if not len(s.keys) == len(s.n_cells) == len(s.n_constituents):
        raise MergeError("summary columns disagree on the number of clusters")
    if len(s.owner_cells) != len(s.owner_lens):
        raise MergeError("summary columns disagree on the number of owned cells")
    _check_counts(s.n_cells, s.cell_xy, s.n_rep, s.n_noncore)
    _check_counts(s.n_constituents, s.constituent_keys)
    _check_counts(s.n_rep, s.rep_ids, s.rep_coords)
    _check_counts(s.n_noncore, s.noncore_ids, s.noncore_coords)
    _check_counts(s.owner_lens, s.owner_ids)
    return s


# ----------------------------------------------------------------------- #
# Segment helpers shared by the merge and the invariant checkers
# ----------------------------------------------------------------------- #


def run_flags(*keys: np.ndarray) -> np.ndarray:
    """True at the first row of every run of equal ``keys`` tuples."""
    n = len(keys[0])
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return change


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal ``keys`` tuples in sorted rows."""
    return np.flatnonzero(run_flags(*keys))


def row_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of every row of an ``(n, d)`` int array:
    equal rows share a rank, ranks run ``0..u-1``.

    Rows whose bounding box has < 2⁶² cells are packed into one int64 key
    (ascending in lexicographic order) and sorted once; wider ones take a
    ``lexsort``."""
    if not len(rows):
        return np.empty(0, dtype=np.int64)
    packed = packed_key(rows.T)
    if packed is not None:
        return np.unique(packed[0], return_inverse=True)[1].astype(np.int64, copy=False)
    order = np.lexsort(rows.T[::-1])
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(run_flags(*rows[order].T)) - 1
    return ranks


def rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Which of ``rows`` occur among the rows of ``table``."""
    rank = row_ranks(np.concatenate((rows, table)))
    present = np.zeros(len(rank), dtype=bool)
    present[rank[len(rows) :]] = True
    return present[rank[: len(rows)]]


def starts(counts: np.ndarray) -> np.ndarray:
    """First row of each segment that ``counts`` cuts."""
    return np.cumsum(counts) - counts


def offsets(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for every count ``c``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(starts(counts), counts)


def any_within(a_first, a_count, a_xy, b_first, b_count, b_xy, eps2: float) -> np.ndarray:
    """Per pair ``p``: is one of the ``a_count[p]`` rows of ``a_xy`` from
    ``a_first[p]`` within ``sqrt(eps2)`` of one of the ``b_count[p]`` rows
    of ``b_xy`` from ``b_first[p]``?

    Pairs that meet mostly do so at their first ``a`` row (representatives
    of one cell), so that row is tested against all of ``b`` first and the
    rest of the product only for the pairs it leaves open."""
    hit = _product_within(a_first, np.minimum(a_count, 1), a_xy, b_first, b_count, b_xy, eps2)
    rest = np.flatnonzero(~hit & (a_count > 1))
    hit[rest] = _product_within(
        a_first[rest] + 1, a_count[rest] - 1, a_xy, b_first[rest], b_count[rest], b_xy, eps2
    )
    return hit


def _product_within(a_first, a_count, a_xy, b_first, b_count, b_xy, eps2: float) -> np.ndarray:
    """:func:`any_within` over every pair's whole row product, in one pass."""
    n = a_count * b_count
    pair = np.repeat(np.arange(len(n)), n)
    k = offsets(n)
    a = a_first[pair] + k // b_count[pair]
    b = b_first[pair] + k % b_count[pair]
    d2 = (a_xy[a, 0] - b_xy[b, 0]) ** 2 + (a_xy[a, 1] - b_xy[b, 1]) ** 2
    return np.bincount(pair[d2 <= eps2], minlength=len(n)) > 0


# ----------------------------------------------------------------------- #
# Building a leaf's summary
# ----------------------------------------------------------------------- #


def _owner_table(
    noncore: np.ndarray, noncore_cells: np.ndarray, ids: np.ndarray, owned_cells
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The owned cells, ascending, and the sorted ids of the points the
    owner found non-core in each: ``(owner_cells, owner_lens, owner_ids)``,
    from the non-core rows and their cells.

    Every owned cell gets a row — an *empty* one means "the owner says
    all points here are core", which makes the type-2 difference the full
    remote non-core list.  Omitting the row would instead read as "owner
    not in this subtree", silently skipping the check (a missed
    cross-boundary merge the property tests caught).
    """
    owned = np.fromiter(chain.from_iterable(owned_cells), np.int64).reshape(-1, 2)
    rank = row_ranks(np.concatenate((owned, noncore_cells)))
    owned_rank, first = np.unique(rank[: len(owned)], return_index=True)
    noncore_rank = rank[len(owned) :]
    is_owned = np.zeros(len(rank), dtype=bool)
    is_owned[owned_rank] = True
    keep = is_owned[noncore_rank]
    rows, row_rank = noncore[keep], noncore_rank[keep]
    order = lex_order(row_rank, ids[rows])
    lens = np.bincount(row_rank, minlength=len(rank))[owned_rank]
    return owned[first], lens, ids[rows[order]]


def summarize_leaf(
    leaf_id: int,
    points: PointSet,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    owned_cells,
    *,
    claims: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> LeafSummary:
    """Build the upstream summary from one leaf's clustering output.

    ``points`` is the leaf's full view (partition + shadow points);
    ``labels``/``core_mask`` are the GPU DBSCAN output over that view;
    ``owned_cells`` (any iterable of cells) are the cells of the leaf's
    partition (not shadow).

    A cluster is its core points, and it *claims* every non-core point
    within Eps of one of them — the multi-membership the paper's
    expansion pass creates (§3.2.2), even though the output label picks
    one cluster.  The merge rules need the full claim sets: a border
    point shared by a local cluster and a remote one is evidence the
    type-2 rule differences against.  ``claims`` are those
    ``(non-core point, core point)`` index pairs, in any order — the
    cluster engine's ``GPUClusterResult.claims``; without them the same
    walk (:func:`repro.gpu.kernels.walk_claims`) runs here.  A label no
    core point carries gets no row, and core points labelled ``NOISE``
    belong to none, so their claims are dropped.

    ``candidates`` (ascending unique core rows; default all cores)
    narrows the representative search to rows that include every
    representative the full search picks — for an output the append path
    updated, the last summary's representatives plus the rows that became
    core since (:mod:`repro.merge.representatives` says why).  The summary
    is the same, byte for byte; only the argmin's rows shrink.
    """
    labels = np.asarray(labels)
    core_mask = np.asarray(core_mask, dtype=bool)
    if len(points) != len(labels) or len(points) != len(core_mask):
        raise MergeError(
            f"points ({len(points)}), labels ({len(labels)}) and core_mask "
            f"({len(core_mask)}) disagree"
        )
    if not len(points):
        return LeafSummary.empty(eps, (int(leaf_id),))
    coords, ids = points.coords, points.ids
    cells = np.floor(coords / eps).astype(np.int64) if candidates is None else None

    def cells_of(rows: np.ndarray) -> np.ndarray:
        """Eps-cells of ``rows``.  The append path reads those of the
        candidates, the claimed rows and the non-core rows only, and
        floors just those."""
        if cells is not None:
            return np.take(cells, rows, axis=0)
        return np.floor(np.take(coords, rows, axis=0) / eps).astype(np.int64)

    # The cores by (cluster, cell): they arrive ascending, so the stable
    # sort keeps each segment's cores ascending too.
    if candidates is None:
        cores = np.flatnonzero(core_mask & (labels != NOISE))
    else:
        cores = candidates[labels[candidates] != NOISE]
    core_cells = cells_of(cores)
    key = labels[cores], core_cells[:, 0], core_cells[:, 1]
    order = lex_order(*key)
    cores, core_key = cores[order], [column[order] for column in key]
    core_starts = run_starts(*core_key)

    # The claims by (cluster, cell, point), each (cluster, point) once.
    if claims is None:
        claims = walk_claims(FlatTree(coords, eps), coords, core_mask, eps)[0]
    claim_label = labels[claims[:, 1]]
    claimed = claims[claim_label != NOISE, 0]
    claim_cells = cells_of(claimed)
    key = claim_label[claim_label != NOISE], claim_cells[:, 0], claim_cells[:, 1]
    order = lex_order(*key, claimed)
    order = order[run_starts(key[0][order], claimed[order])]
    claimed, claim_key = claimed[order], [column[order] for column in key]
    claim_starts = run_starts(*claim_key)

    # The segments are the (cluster, cell)s of either, in order: runs of
    # equal cluster are the clusters.
    heads = np.stack([
        np.concatenate((c[core_starts], k[claim_starts])) for c, k in zip(core_key, claim_key)
    ], axis=1)
    seg_rank = row_ranks(heads)
    seg_key = heads[np.unique(seg_rank, return_index=True)[1]]
    n_segs = len(seg_key)
    core_seg, claim_seg = seg_rank[: len(core_starts)], seg_rank[len(core_starts) :]

    # Representatives of every segment that has a core point.  Within a
    # segment rows ascend by point index, so "lowest row wins ties" is the
    # per-cell argmin's "lowest index wins".
    rep_cells = heads[: len(core_starts), 1:]
    bounds = np.concatenate((rep_cells * eps, (rep_cells + 1) * eps), axis=1)
    chosen = select_representatives_batch(np.take(coords, cores, axis=0), core_starts, bounds)
    is_rep = np.zeros(len(cores), dtype=bool)
    is_rep[chosen.ravel()] = True
    n_rep, n_noncore = np.zeros(n_segs, dtype=np.int64), np.zeros(n_segs, dtype=np.int64)
    n_rep[core_seg] = np.add.reduceat(is_rep, core_starts)
    n_noncore[claim_seg] = np.diff(np.append(claim_starts, len(claimed)))
    rep_rows = cores[is_rep]

    noncore = np.flatnonzero(~core_mask)
    cluster_starts = run_starts(seg_key[:, 0])
    n_clusters = len(cluster_starts)
    return LeafSummary(
        eps, (int(leaf_id),),
        np.column_stack((np.full(n_clusters, leaf_id, dtype=np.int64), seg_key[cluster_starts, 0])),
        np.diff(np.append(cluster_starts, n_segs)),
        np.zeros(n_clusters, dtype=np.int64), np.empty((0, 2), dtype=np.int64),
        seg_key[:, 1:].copy(), n_rep, n_noncore,
        ids[rep_rows], coords[rep_rows], ids[claimed], coords[claimed],
        *_owner_table(noncore, cells_of(noncore), ids, owned_cells),
    )
