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

:func:`summarize_leaf` builds a summary as whole-leaf segment passes: one
Eps-stencil pair expansion for the non-core claims, one sort of cores and
claims by ``(cluster, cell)``, eight segmented argmins for all the
representatives, and per-cell fields cut as slices of four flat arrays
(DESIGN.md §2b).  The per-cell loop it
replaced lives on in ``tests/merge/summary_reference.py`` as the oracle
the differential tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MergeError
from ..gpu.kernels import iter_class_pairs
from ..gpu.treeindex import FlatTree
from ..points import NOISE, PointSet
from .representatives import select_representatives_batch

__all__ = ["CellSummary", "ClusterSummary", "LeafSummary", "summarize_leaf", "cell_bounds"]

Cell = tuple[int, int]
ClusterKey = tuple[int, int]  # (leaf_id, local_cluster_id)


def cell_bounds(cell: Cell, eps: float) -> tuple[float, float, float, float]:
    """Coordinate-space bounds of a global Eps-grid cell."""
    cx, cy = cell
    return (cx * eps, cy * eps, (cx + 1) * eps, (cy + 1) * eps)


@dataclass
class CellSummary:
    """One cluster's footprint inside one grid cell."""

    rep_ids: np.ndarray  # ids of the <=8 representative core points
    rep_coords: np.ndarray  # (k, 2) coordinates of the representatives
    noncore_ids: np.ndarray  # ids of the cluster's non-core members here
    noncore_coords: np.ndarray  # (m, 2) their coordinates

    @property
    def n_reps(self) -> int:
        return len(self.rep_ids)

    def payload_bytes(self) -> int:
        return int(
            self.rep_ids.nbytes
            + self.rep_coords.nbytes
            + self.noncore_ids.nbytes
            + self.noncore_coords.nbytes
        )


@dataclass
class ClusterSummary:
    """A (possibly already-merged) cluster as seen by the merge tree."""

    key: ClusterKey  # canonical key: the smallest constituent key
    cells: dict[Cell, CellSummary] = field(default_factory=dict)
    constituents: frozenset[ClusterKey] = frozenset()

    def __post_init__(self) -> None:
        if not self.constituents:
            self.constituents = frozenset([self.key])

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def payload_bytes(self) -> int:
        return sum(cs.payload_bytes() for cs in self.cells.values()) + 32 * len(self.cells)


@dataclass
class LeafSummary:
    """Everything one subtree contributes to the merge.

    ``owner_noncore_ids`` maps each *owned* cell to the IDs of the points
    the owning leaf classified non-core (border or noise) — the
    authoritative classification the type-2 merge rule differences
    against.  Owned cells are disjoint across leaves, so merged summaries
    simply union these maps.
    """

    eps: float
    clusters: dict[ClusterKey, ClusterSummary] = field(default_factory=dict)
    owner_noncore_ids: dict[Cell, np.ndarray] = field(default_factory=dict)
    source_leaves: frozenset[int] = frozenset()

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def payload_bytes(self) -> int:
        total = sum(c.payload_bytes() for c in self.clusters.values())
        total += sum(a.nbytes for a in self.owner_noncore_ids.values())
        return total + 64

    def __reduce__(self):
        """Pickle as sixteen flat columns, not as an object graph.

        Every process boundary a summary crosses (pool pickles, tcp
        frames, checkpoint blobs) comes through here.  Rows follow the
        dict orders; a leaf cluster's constituents are just its own key,
        so only merged clusters ship theirs, sorted.  Blobs written before
        this layout existed are plain dataclass state and load without
        :func:`_unpack_summary` (DESIGN.md §2b).
        """
        clusters = list(self.clusters.values())
        cells = [cs for c in clusters for cs in c.cells.values()]
        constituents = [
            sorted(c.constituents) if c.constituents != {c.key} else [] for c in clusters
        ]
        owner_ids = list(self.owner_noncore_ids.values())
        no_ids, no_coords = np.empty(0, dtype=np.int64), np.empty((0, 2))
        columns = (
            self.eps,
            tuple(sorted(self.source_leaves)),
            _pairs([c.key for c in clusters]),
            _counts([c.cells for c in clusters]),
            _counts(constituents),
            _pairs([key for keys in constituents for key in keys]),
            _pairs([cell for c in clusters for cell in c.cells]),
            _counts([cs.rep_ids for cs in cells]),
            _counts([cs.noncore_ids for cs in cells]),
            _concat([cs.rep_ids for cs in cells], no_ids),
            _concat([cs.rep_coords for cs in cells], no_coords),
            _concat([cs.noncore_ids for cs in cells], no_ids),
            _concat([cs.noncore_coords for cs in cells], no_coords),
            _pairs(list(self.owner_noncore_ids)),
            _counts(owner_ids),
            _concat(owner_ids, no_ids),
        )
        return _unpack_summary, (columns,)


def _pairs(rows: list[tuple[int, int]]) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _counts(items: list) -> np.ndarray:
    return np.array([len(item) for item in items], dtype=np.int64)


def _concat(arrays: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(arrays) if arrays else empty


def _ends(counts: np.ndarray, *columns: np.ndarray) -> list[int]:
    """End offsets of the slices ``counts`` cuts each of ``columns`` into."""
    total = int(counts.sum())
    if (counts < 0).any() or any(len(column) != total for column in columns):
        raise MergeError(
            f"summary columns disagree: counts cover {total} rows, the columns "
            f"they cut have {[len(column) for column in columns]}"
        )
    return np.cumsum(counts).tolist()


def _unpack_summary(columns: tuple) -> LeafSummary:
    """Rebuild the summary :meth:`LeafSummary.__reduce__` flattened.

    The inverse, field for field: dict orders, plain-int tuple keys,
    dtypes, ``(0,)`` / ``(0, 2)`` empties, every array again a slice of
    its flat column.  The columns' lengths are checked against each other
    first, so a damaged blob is a :class:`MergeError` here and not an
    ``IndexError`` deep inside the merge.
    """
    if len(columns) != 16:
        raise MergeError(f"summary has {len(columns)} columns, expected 16")
    (
        eps, source_leaves, keys, n_cells, n_constituents, constituent_keys,
        cell_xy, n_rep, n_noncore, rep_ids, rep_coords, noncore_ids, noncore_coords,
        owner_cells, owner_lens, owner_ids,
    ) = columns
    if not len(keys) == len(n_cells) == len(n_constituents):
        raise MergeError("summary columns disagree on the number of clusters")
    if len(owner_cells) != len(owner_lens):
        raise MergeError("summary columns disagree on the number of owned cells")
    cell_ends = _ends(n_cells, cell_xy, n_rep, n_noncore)
    constituent_ends = _ends(n_constituents, constituent_keys)
    rep_ends = _ends(n_rep, rep_ids, rep_coords)
    noncore_ends = _ends(n_noncore, noncore_ids, noncore_coords)
    owner_ends = _ends(owner_lens, owner_ids)

    summary = LeafSummary(eps=eps, source_leaves=frozenset(source_leaves))
    cells = list(map(tuple, cell_xy.tolist()))
    constituent_keys = list(map(tuple, constituent_keys.tolist()))
    i0 = k0 = r0 = c0 = 0
    for key, i1, k1 in zip(map(tuple, keys.tolist()), cell_ends, constituent_ends):
        cluster = ClusterSummary(key=key, constituents=frozenset(constituent_keys[k0:k1]))
        for cell, r1, c1 in zip(cells[i0:i1], rep_ends[i0:i1], noncore_ends[i0:i1]):
            cluster.cells[cell] = CellSummary(
                rep_ids=rep_ids[r0:r1],
                rep_coords=rep_coords[r0:r1],
                noncore_ids=noncore_ids[c0:c1],
                noncore_coords=noncore_coords[c0:c1],
            )
            r0, c0 = r1, c1
        summary.clusters[key] = cluster
        i0, k0 = i1, k1
    o0 = 0
    for cell, o1 in zip(map(tuple, owner_cells.tolist()), owner_ends):
        summary.owner_noncore_ids[cell] = owner_ids[o0:o1]
        o0 = o1
    return summary


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal ``keys`` tuples in sorted rows."""
    n = len(keys[0])
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _noncore_claims(
    coords: np.ndarray, labels: np.ndarray, core_mask: np.ndarray, eps: float, tree: FlatTree
) -> tuple[np.ndarray, np.ndarray]:
    """``(cluster label, non-core point index)`` claim pairs of a leaf.

    A cluster *claims* every non-core point within Eps of one of its core
    points — the multi-membership the paper's expansion pass creates
    ("all of that point's neighbors are marked as being members of the
    cluster", §3.2.2), even though the output label picks one cluster.
    The merge rules need the full claim sets: a border point shared by a
    local cluster and a remote one is evidence the type-2 rule differences
    against, and it must not vanish because the point's output label chose
    a different adjacent cluster.

    One pair expansion over the leaf's Eps-cell ``tree``: non-core rows
    against clustered-core columns.  A pair recurs once per claiming core;
    the caller's sort drops the repeats.
    """
    clustered_core = core_mask & (labels != NOISE)
    x, y = coords[:, 0], coords[:, 1]
    eps2 = eps * eps
    claim_labels, claim_points = [], []
    for r, c in iter_class_pairs(tree, ~core_mask, clustered_core):
        dx = x[r] - x[c]
        dy = y[r] - y[c]
        within = dx * dx + dy * dy <= eps2
        claim_labels.append(labels[c[within]])
        claim_points.append(r[within])
    if not claim_points:
        return np.empty(0, dtype=labels.dtype), np.empty(0, dtype=np.int64)
    return np.concatenate(claim_labels), np.concatenate(claim_points)


def _owner_noncore_ids(
    cells: np.ndarray, ids: np.ndarray, core_mask: np.ndarray, owned_cells: set[Cell]
) -> dict[Cell, np.ndarray]:
    """Per owned cell, the sorted ids of the points its owner found non-core.

    Every owned cell gets an entry — an *empty* one means "the owner says
    all points here are core", which makes the type-2 difference the full
    remote non-core list.  Omitting the entry would instead read as "owner
    not in this subtree", silently skipping the check (a missed
    cross-boundary merge the property tests caught).
    """
    noncore = np.flatnonzero(~core_mask)
    cx, cy = cells[noncore, 0], cells[noncore, 1]
    order = np.lexsort((ids[noncore], cy, cx))
    cx, cy = cx[order], cy[order]
    sorted_ids = ids[noncore[order]]
    starts = _run_starts(cx, cy)
    ends = np.append(starts[1:], len(sorted_ids))
    runs = dict(
        zip(zip(cx[starts].tolist(), cy[starts].tolist()), zip(starts.tolist(), ends.tolist()))
    )
    no_run = (0, 0)
    return {cell: sorted_ids[slice(*runs.get(cell, no_run))] for cell in owned_cells}


def summarize_leaf(
    leaf_id: int,
    points: PointSet,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    owned_cells: set[Cell],
    *,
    tree: FlatTree | None = None,
) -> LeafSummary:
    """Build the upstream summary from one leaf's clustering output.

    ``points`` is the leaf's full view (partition + shadow points);
    ``labels``/``core_mask`` are the GPU DBSCAN output over that view;
    ``owned_cells`` are the cells of the leaf's partition (not shadow).
    Pass ``tree`` to reuse the ``FlatTree(points.coords, eps)`` the cluster
    engine already built (``GPUClusterResult.tree``).
    A cluster is its core points: a label no core point carries gets no
    entry, and core points labelled ``NOISE`` belong to none.
    """
    labels = np.asarray(labels)
    core_mask = np.asarray(core_mask, dtype=bool)
    if len(points) != len(labels) or len(points) != len(core_mask):
        raise MergeError(
            f"points ({len(points)}), labels ({len(labels)}) and core_mask "
            f"({len(core_mask)}) disagree"
        )
    summary = LeafSummary(eps=eps, source_leaves=frozenset([leaf_id]))
    if not len(points):
        return summary
    coords, ids = points.coords, points.ids
    cells = np.floor(coords / eps).astype(np.int64)
    summary.owner_noncore_ids = _owner_noncore_ids(cells, ids, core_mask, owned_cells)

    # One row per (cluster, member): the cluster's cores, then its claims.
    cores = np.flatnonzero(core_mask & (labels != NOISE))
    if tree is None:
        tree = FlatTree(coords, eps)
    claim_labels, claim_points = _noncore_claims(coords, labels, core_mask, eps, tree)
    point = np.concatenate((cores, claim_points))
    label = np.concatenate((labels[cores], claim_labels))
    is_claim = np.arange(len(point)) >= len(cores)
    cx, cy = cells[point, 0], cells[point, 1]

    # Sort by (cluster, cell), cores before claims, then point index: runs
    # of equal (cluster, cell) are the CellSummary segments, in the order
    # the dicts list them.  Repeated claims land next to each other.
    order = np.lexsort((point, is_claim, cy, cx, label))
    order = order[_run_starts(label[order], point[order])]
    point, label, is_claim, cx, cy = (
        rows[order] for rows in (point, label, is_claim, cx, cy)
    )
    seg_starts = _run_starts(label, cx, cy)
    n_segs = len(seg_starts)
    segment = np.cumsum(np.bincount(seg_starts, minlength=len(point))) - 1

    # Representatives of every segment that has a core point.  Within a
    # segment rows ascend by point index, so "lowest row wins ties" is the
    # per-cell argmin's "lowest index wins".
    core_rows = np.flatnonzero(~is_claim)
    rep_starts = _run_starts(segment[core_rows])
    first = core_rows[rep_starts]
    rep_cells = np.stack((cx[first], cy[first]), axis=1)
    bounds = np.concatenate((rep_cells * eps, (rep_cells + 1) * eps), axis=1)
    chosen = select_representatives_batch(coords[point[core_rows]], rep_starts, bounds)
    is_rep = np.zeros(len(core_rows), dtype=bool)
    is_rep[chosen.ravel()] = True
    rep_rows = core_rows[is_rep]
    claim_rows = np.flatnonzero(is_claim)

    # CellSummary fields are slices of four flat arrays, cut at the
    # per-segment counts.
    rep_ids, rep_coords = ids[point[rep_rows]], coords[point[rep_rows]]
    claim_ids, claim_coords = ids[point[claim_rows]], coords[point[claim_rows]]
    rep_ends = np.cumsum(np.bincount(segment[rep_rows], minlength=n_segs)).tolist()
    claim_ends = np.cumsum(np.bincount(segment[claim_rows], minlength=n_segs)).tolist()
    seg_labels = label[seg_starts].tolist()
    seg_cells = zip(cx[seg_starts].tolist(), cy[seg_starts].tolist())
    cluster = None
    r0 = c0 = 0
    for lab, cell, r1, c1 in zip(seg_labels, seg_cells, rep_ends, claim_ends):
        if cluster is None or cluster.key[1] != lab:
            cluster = ClusterSummary(key=(leaf_id, lab))
            summary.clusters[cluster.key] = cluster
        cluster.cells[cell] = CellSummary(
            rep_ids=rep_ids[r0:r1],
            rep_coords=rep_coords[r0:r1],
            noncore_ids=claim_ids[c0:c1],
            noncore_coords=claim_coords[c0:c1],
        )
        r0, c0 = r1, c1
    return summary
