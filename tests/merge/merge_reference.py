"""The object-graph summaries and the per-cell loops — the merge oracle.

``repro.merge`` keeps a summary as sixteen columns and merges them with
array passes.  This module keeps what that replaced, verbatim: the
``CellSummary`` / ``ClusterSummary`` graph, the per-cell
``summarize_leaf`` loop (one ``GridIndex`` cell at a time for the non-core
claims, one ``select_representatives`` call per ``(cluster, cell)``) and
the per-cell ``merge_summaries`` loop with its dict union-find, and the
one-cell ``select_representatives`` those loops call.
``as_graph`` / ``to_columns`` convert between the two forms, so
differential tests hold the array passes to the loops field by field.

It also writes the two older blob layouts: ``write_object_graphs`` makes
``LeafSummary`` pickle as the retired object graph, ``write_dict_orders``
as the columns a dict-ordered writer shipped.  It is not a test module and
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import repro.merge.summary as summary_mod
from repro.dbscan.grid_index import GridIndex
from repro.errors import MergeError
from repro.merge.merger import MergeOutcome
from repro.merge.representatives import representative_targets
from repro.merge.summary import LeafSummary, _unpack_summary, cell_bounds, summarize_leaf
from repro.points import NOISE, PointSet

Cell = tuple[int, int]
ClusterKey = tuple[int, int]


# ------------------- the one-cell representative form ------------------ #


def select_representatives(
    coords: np.ndarray,
    bounds: tuple[float, float, float, float],
) -> np.ndarray:
    """Indices (into ``coords``) of the ≤8 representative points of one
    cell — the form ``select_representatives_batch`` is held to.

    For each of the eight targets, the closest candidate point is chosen;
    duplicates collapse, so sparse cells may yield fewer than eight.  The
    returned indices are sorted and unique.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MergeError(f"coords must be (n, 2), got {coords.shape}")
    if len(coords) == 0:
        return np.empty(0, dtype=np.int64)
    targets = representative_targets(bounds)
    d2 = (
        (coords[:, 0][:, None] - targets[:, 0][None, :]) ** 2
        + (coords[:, 1][:, None] - targets[:, 1][None, :]) ** 2
    )
    chosen = np.argmin(d2, axis=0)
    return np.unique(chosen.astype(np.int64))


# ------------------------- the object graph ---------------------------- #


@dataclass
class CellSummary:
    """One cluster's footprint inside one grid cell."""

    rep_ids: np.ndarray
    rep_coords: np.ndarray
    noncore_ids: np.ndarray
    noncore_coords: np.ndarray

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

    key: ClusterKey
    cells: dict[Cell, CellSummary] = field(default_factory=dict)
    constituents: frozenset[ClusterKey] = frozenset()

    def __post_init__(self) -> None:
        if not self.constituents:
            self.constituents = frozenset([self.key])

    def payload_bytes(self) -> int:
        return sum(cs.payload_bytes() for cs in self.cells.values()) + 32 * len(self.cells)


@dataclass
class GraphSummary:
    """``LeafSummary`` as it was: dicts of clusters and owned cells."""

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


def as_graph(summary: LeafSummary | GraphSummary) -> GraphSummary:
    """The object graph of a columnar summary, in its row orders; every
    array a slice of its column, every key a plain-int tuple."""
    if isinstance(summary, GraphSummary):
        return summary
    s = summary
    graph = GraphSummary(eps=s.eps, source_leaves=frozenset(s.source_leaves))
    cell_ends = np.cumsum(s.n_cells).tolist()
    constituent_ends = np.cumsum(s.n_constituents).tolist()
    rep_ends = np.cumsum(s.n_rep).tolist()
    noncore_ends = np.cumsum(s.n_noncore).tolist()
    cells = list(map(tuple, s.cell_xy.tolist()))
    constituent_keys = list(map(tuple, s.constituent_keys.tolist()))
    i0 = k0 = r0 = c0 = 0
    for key, i1, k1 in zip(map(tuple, s.keys.tolist()), cell_ends, constituent_ends):
        cluster = ClusterSummary(key=key, constituents=frozenset(constituent_keys[k0:k1]))
        for cell, r1, c1 in zip(cells[i0:i1], rep_ends[i0:i1], noncore_ends[i0:i1]):
            cluster.cells[cell] = CellSummary(
                rep_ids=s.rep_ids[r0:r1],
                rep_coords=s.rep_coords[r0:r1],
                noncore_ids=s.noncore_ids[c0:c1],
                noncore_coords=s.noncore_coords[c0:c1],
            )
            r0, c0 = r1, c1
        graph.clusters[key] = cluster
        i0, k0 = i1, k1
    o0 = 0
    for cell, o1 in zip(map(tuple, s.owner_cells.tolist()), np.cumsum(s.owner_lens).tolist()):
        graph.owner_noncore_ids[cell] = s.owner_ids[o0:o1]
        o0 = o1
    return graph


def to_columns(graph: GraphSummary) -> LeafSummary:
    """The sixteen columns of an object graph, rows in its dict orders —
    what the columnar writer before the in-memory columns shipped."""

    def pairs(rows):
        return np.array(rows, dtype=np.int64).reshape(-1, 2)

    def counts(items):
        return np.array([len(item) for item in items], dtype=np.int64)

    def concat(arrays, empty):
        return np.concatenate(arrays) if arrays else empty

    clusters = list(graph.clusters.values())
    cells = [cs for c in clusters for cs in c.cells.values()]
    constituents = [
        sorted(c.constituents) if c.constituents != {c.key} else [] for c in clusters
    ]
    owner_ids = list(graph.owner_noncore_ids.values())
    no_ids, no_coords = np.empty(0, dtype=np.int64), np.empty((0, 2))
    return _unpack_summary((
        graph.eps,
        tuple(sorted(graph.source_leaves)),
        pairs([c.key for c in clusters]),
        counts([c.cells for c in clusters]),
        counts(constituents),
        pairs([key for keys in constituents for key in keys]),
        pairs([cell for c in clusters for cell in c.cells]),
        counts([cs.rep_ids for cs in cells]),
        counts([cs.noncore_ids for cs in cells]),
        concat([cs.rep_ids for cs in cells], no_ids),
        concat([cs.rep_coords for cs in cells], no_coords),
        concat([cs.noncore_ids for cs in cells], no_ids),
        concat([cs.noncore_coords for cs in cells], no_coords),
        pairs(list(graph.owner_noncore_ids)),
        counts(owner_ids),
        concat(owner_ids, no_ids),
    ))


# ------------------------- equality ------------------------------------ #


def _assert_same_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), f"{what}: values differ"


def assert_columns_identical(got: LeafSummary, want: LeafSummary) -> None:
    """Column by column: values, dtypes, shapes and row orders; eps bit-exact."""
    assert got.eps.hex() == want.eps.hex() and type(got.eps) is type(want.eps)
    assert got.source_leaves == want.source_leaves
    assert {type(leaf) for leaf in got.source_leaves} <= {int}
    for name, a, b in zip(
        ("keys", "n_cells", "n_constituents", "constituent_keys", "cell_xy", "n_rep",
         "n_noncore", "rep_ids", "rep_coords", "noncore_ids", "noncore_coords",
         "owner_cells", "owner_lens", "owner_ids"),
        got.columns()[2:],
        want.columns()[2:],
    ):
        _assert_same_array(a, b, name)


def assert_summaries_identical(got, want, *, ordered: bool = True) -> None:
    """Field-by-field equality of two summaries (either form): every
    cell's four arrays in value, dtype, shape and order, constituents,
    owner lists, ``payload_bytes()``.  ``ordered`` also requires the same
    cluster and cell orders; owned cells may come in any order."""
    got, want = as_graph(got), as_graph(want)
    assert got.eps == want.eps
    assert got.source_leaves == want.source_leaves
    assert set(got.owner_noncore_ids) == set(want.owner_noncore_ids)
    for cell, ids in want.owner_noncore_ids.items():
        _assert_same_array(got.owner_noncore_ids[cell], ids, f"owner {cell}")
    assert set(got.clusters) == set(want.clusters)
    if ordered:
        assert list(got.clusters) == list(want.clusters)
    for key, want_cluster in want.clusters.items():
        got_cluster = got.clusters[key]
        # Keys are plain ints, not numpy scalars (they are pickled and hashed).
        assert {type(v) for k in (key, *got_cluster.cells) for v in k} == {int}
        assert got_cluster.key == want_cluster.key
        assert got_cluster.constituents == want_cluster.constituents
        assert set(got_cluster.cells) == set(want_cluster.cells), key
        if ordered:
            assert list(got_cluster.cells) == list(want_cluster.cells), key
        for cell, want_cell in want_cluster.cells.items():
            got_cell = got_cluster.cells[cell]
            for name in ("rep_ids", "rep_coords", "noncore_ids", "noncore_coords"):
                _assert_same_array(
                    getattr(got_cell, name), getattr(want_cell, name),
                    f"{key} {cell} {name}",
                )
    assert got.payload_bytes() == want.payload_bytes()


# ------------------------- the per-cell summarize loop ------------------ #


def reference_noncore_claims(
    points: PointSet, labels: np.ndarray, core_mask: np.ndarray, eps: float
) -> dict[int, list[int]]:
    """Map cluster label -> sorted indices of the non-core points within
    Eps of one of its core points."""
    claims: dict[int, set[int]] = {}
    if not len(points):
        return {}
    index = GridIndex(points, eps)
    eps2 = eps * eps
    coords = points.coords
    for cell in index.cell_counts():
        members = index.cell_members(cell)
        members = members[~core_mask[members]]
        if len(members) == 0:
            continue
        cand = index.candidate_indices(cell)
        cand = cand[core_mask[cand]]
        if len(cand) == 0:
            continue
        d2 = (
            (coords[members, 0][:, None] - coords[cand, 0][None, :]) ** 2
            + (coords[members, 1][:, None] - coords[cand, 1][None, :]) ** 2
        )
        within = d2 <= eps2
        rows, cols = np.nonzero(within)
        for r, c in zip(rows, cols):
            lab = int(labels[cand[c]])
            claims.setdefault(lab, set()).add(int(members[r]))
    return {lab: sorted(idx) for lab, idx in claims.items()}


def reference_summarize_leaf(
    leaf_id: int,
    points: PointSet,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    owned_cells: set[tuple[int, int]],
) -> GraphSummary:
    labels = np.asarray(labels)
    core_mask = np.asarray(core_mask, dtype=bool)
    cells = (
        np.floor(points.coords / eps).astype(np.int64)
        if len(points)
        else np.empty((0, 2), np.int64)
    )

    summary = GraphSummary(eps=eps, source_leaves=frozenset([leaf_id]))

    if len(points):
        owner_lists: dict[tuple[int, int], list[int]] = {cell: [] for cell in owned_cells}
        for i in np.flatnonzero(~core_mask):
            cell = (int(cells[i, 0]), int(cells[i, 1]))
            if cell in owned_cells:
                owner_lists[cell].append(int(points.ids[i]))
        summary.owner_noncore_ids = {
            cell: np.asarray(sorted(ids), dtype=np.int64)
            for cell, ids in owner_lists.items()
        }

    claims = reference_noncore_claims(points, labels, core_mask, eps)

    for lab in np.unique(labels[labels != NOISE]):
        lab = int(lab)
        core_members = np.flatnonzero((labels == lab) & core_mask)
        noncore_members = np.asarray(claims.get(lab, []), dtype=np.int64)
        member_idx = np.concatenate([core_members, noncore_members])
        key = (leaf_id, lab)
        cluster = ClusterSummary(key=key)
        member_cells = cells[member_idx]
        order = np.lexsort((member_cells[:, 1], member_cells[:, 0]))
        sorted_idx = member_idx[order]
        sc = member_cells[order]
        change = np.empty(len(sc), dtype=bool)
        change[0] = True
        change[1:] = np.any(sc[1:] != sc[:-1], axis=1)
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(sc))
        for (cx, cy), s, e in zip(sc[starts], starts, ends):
            cell = (int(cx), int(cy))
            idx = sorted_idx[s:e]
            core_idx = idx[core_mask[idx]]
            nc_idx2 = idx[~core_mask[idx]]
            if len(core_idx):
                rel = select_representatives(
                    points.coords[core_idx], cell_bounds(cell, eps)
                )
                rep_idx = core_idx[rel]
            else:
                rep_idx = np.empty(0, dtype=np.int64)
            cluster.cells[cell] = CellSummary(
                rep_ids=points.ids[rep_idx].copy(),
                rep_coords=points.coords[rep_idx].copy(),
                noncore_ids=points.ids[nc_idx2].copy(),
                noncore_coords=points.coords[nc_idx2].copy(),
            )
        summary.clusters[key] = cluster
    return summary


# ------------------------- the per-cell merge loop --------------------- #


class _KeyUnionFind:
    """Union-find keyed by cluster keys (small, dict-based)."""

    def __init__(self, keys: Sequence[ClusterKey]) -> None:
        self.parent: dict[ClusterKey, ClusterKey] = {k: k for k in keys}

    def find(self, k: ClusterKey) -> ClusterKey:
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a: ClusterKey, b: ClusterKey) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:  # canonical: smallest key wins
            ra, rb = rb, ra
        self.parent[rb] = ra


def _min_dist_within(a: np.ndarray, b: np.ndarray, eps2: float) -> bool:
    if len(a) == 0 or len(b) == 0:
        return False
    d2 = (
        (a[:, 0][:, None] - b[:, 0][None, :]) ** 2
        + (a[:, 1][:, None] - b[:, 1][None, :]) ** 2
    )
    return bool(np.any(d2 <= eps2))


def _diff_within(
    cs: CellSummary,
    owner_noncore: np.ndarray | None,
    other_reps: np.ndarray,
    eps2: float,
) -> bool:
    """Type-2 check in one direction (cs's non-cores against other's reps)."""
    if owner_noncore is None or len(cs.noncore_ids) == 0 or len(other_reps) == 0:
        return False
    keep = ~np.isin(cs.noncore_ids, owner_noncore)
    if not np.any(keep):
        return False
    return _min_dist_within(cs.noncore_coords[keep], other_reps, eps2)


def reference_merge_summaries(
    summaries: Sequence[GraphSummary | LeafSummary | None], eps: float
) -> tuple[GraphSummary, MergeOutcome]:
    """The merge as a per-cell loop.  Its counters skip pairs an earlier
    pair already unioned, so unlike ``merge_summaries``' they depend on
    the children's order."""
    outcome = MergeOutcome()
    summaries = [as_graph(s) for s in summaries if s is not None]
    if not summaries:
        return GraphSummary(eps=eps), outcome
    for s in summaries:
        if abs(s.eps - eps) > 1e-12:
            raise MergeError(f"summary eps {s.eps} != merge eps {eps}")

    owner_noncore: dict[Cell, np.ndarray] = {}
    for s in summaries:
        for cell, ids in s.owner_noncore_ids.items():
            if cell in owner_noncore:
                raise MergeError(f"cell {cell} owned by two children")
            owner_noncore[cell] = ids

    all_keys: list[ClusterKey] = []
    for s in summaries:
        all_keys.extend(s.clusters.keys())
    if len(all_keys) != len(set(all_keys)):
        raise MergeError("duplicate cluster keys across children")
    outcome.n_input_clusters = len(all_keys)
    uf = _KeyUnionFind(all_keys)

    cell_index: dict[Cell, list[tuple[int, ClusterKey]]] = {}
    for child, s in enumerate(summaries):
        for key, cluster in s.clusters.items():
            for cell in cluster.cells:
                cell_index.setdefault(cell, []).append((child, key))

    eps2 = eps * eps
    for cell, entries in cell_index.items():
        if len(entries) < 2:
            continue
        owner_ids = owner_noncore.get(cell)
        for i in range(len(entries)):
            child_i, key_i = entries[i]
            cs_i = summaries[child_i].clusters[key_i].cells[cell]
            for j in range(i + 1, len(entries)):
                child_j, key_j = entries[j]
                if child_i == child_j:
                    continue  # same child: already merged at a lower level
                if uf.find(key_i) == uf.find(key_j):
                    continue
                cs_j = summaries[child_j].clusters[key_j].cells[cell]
                outcome.n_cell_pairs_checked += 1
                if _min_dist_within(cs_i.rep_coords, cs_j.rep_coords, eps2):
                    uf.union(key_i, key_j)
                    outcome.n_core_merges += 1
                    continue
                if _diff_within(cs_i, owner_ids, cs_j.rep_coords, eps2) or _diff_within(
                    cs_j, owner_ids, cs_i.rep_coords, eps2
                ):
                    uf.union(key_i, key_j)
                    outcome.n_noncore_core_merges += 1

    groups: dict[ClusterKey, list[ClusterSummary]] = {}
    for s in summaries:
        for key, cluster in s.clusters.items():
            groups.setdefault(uf.find(key), []).append(cluster)

    merged = GraphSummary(eps=eps)
    merged.owner_noncore_ids = owner_noncore
    merged.source_leaves = frozenset().union(*(s.source_leaves for s in summaries))

    for root_key, members in groups.items():
        if len(members) == 1 and members[0].key == root_key:
            merged.clusters[root_key] = members[0]
            continue
        combined = ClusterSummary(
            key=root_key,
            constituents=frozenset().union(*(m.constituents for m in members)),
        )
        cells: dict[Cell, list[CellSummary]] = {}
        for m in members:
            for cell, cs in m.cells.items():
                cells.setdefault(cell, []).append(cs)
        for cell, parts in cells.items():
            if len(parts) == 1:
                combined.cells[cell] = parts[0]
                continue
            rep_ids = np.concatenate([p.rep_ids for p in parts])
            rep_coords = np.concatenate([p.rep_coords for p in parts])
            if len(rep_ids):
                _, first = np.unique(rep_ids, return_index=True)
                rep_ids, rep_coords = rep_ids[first], rep_coords[first]
                rel = select_representatives(rep_coords, cell_bounds(cell, eps))
                rep_ids, rep_coords = rep_ids[rel], rep_coords[rel]
            nc_ids = np.concatenate([p.noncore_ids for p in parts])
            nc_coords = np.concatenate([p.noncore_coords for p in parts])
            if len(nc_ids):
                uniq, first = np.unique(nc_ids, return_index=True)
                outcome.n_duplicate_noncore_removed += len(nc_ids) - len(uniq)
                nc_ids, nc_coords = nc_ids[first], nc_coords[first]
            combined.cells[cell] = CellSummary(
                rep_ids=rep_ids,
                rep_coords=rep_coords,
                noncore_ids=nc_ids,
                noncore_coords=nc_coords,
            )
        merged.clusters[root_key] = combined

    outcome.n_output_clusters = len(merged.clusters)
    return merged, outcome


def reference_assign_global_ids(root: GraphSummary | LeafSummary) -> dict[ClusterKey, int]:
    """Constituent key -> global id, groups numbered by canonical key."""
    root = as_graph(root)
    return {
        constituent: gid
        for gid, key in enumerate(sorted(root.clusters))
        for constituent in root.clusters[key].constituents
    }


# ------------------------- generators ---------------------------------- #


def random_leaves(seed, n, eps, n_leaves, core_share, span_cells=4, offset=0.0):
    """``n_leaves`` summaries over overlapping views of one point set, the
    owned cells dealt out between them.  Core masks are arbitrary, not
    DBSCAN's; a label is the point's 2x2-cell block (so labels have gaps
    and the merged summary keeps several clusters), dropped to NOISE now
    and then; points sit on a lattice of eps/4 (moved by ``offset``),
    which makes exact ties, duplicates and shared cells common."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(-2 * span_cells, 2 * span_cells, size=(n, 2)) * (eps / 4) + offset
    ids = rng.permutation(n) * 3 + 2**31  # neither sorted nor dense nor small
    cells = sorted({(int(x), int(y)) for x, y in np.floor(coords / eps)})
    owner = rng.integers(0, n_leaves, size=len(cells))
    block = np.floor((coords - offset) / (2 * eps)).astype(np.int64) + span_cells
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


# ------------------------- older blob layouts -------------------------- #


def write_object_graphs(monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, ``LeafSummary`` pickles as the
    retired object graph — byte for byte the default dataclass state that
    builds before the columnar layout wrote, naming
    ``repro.merge.summary.ClusterSummary`` / ``CellSummary``."""
    for cls in (CellSummary, ClusterSummary):
        monkeypatch.setattr(cls, "__module__", summary_mod.__name__)
        monkeypatch.setattr(summary_mod, cls.__name__, cls, raising=False)
    monkeypatch.setattr(
        LeafSummary,
        "__reduce__",
        lambda self: (copyreg.__newobj__, (LeafSummary,), vars(as_graph(self))),
    )


def shuffled(summary: LeafSummary, seed: int) -> LeafSummary:
    """The same summary with clusters, each cluster's cells and the owned
    cells in a random order: the dict and set orders a columnar blob of
    an older build may hold."""
    rng = np.random.default_rng(seed)
    graph = as_graph(summary)

    def permuted(d: dict) -> dict:
        items = list(d.items())
        return dict(items[i] for i in rng.permutation(len(items)))

    for cluster in graph.clusters.values():
        cluster.cells = permuted(cluster.cells)
    graph.clusters = permuted(graph.clusters)
    graph.owner_noncore_ids = permuted(graph.owner_noncore_ids)
    return to_columns(graph)


def write_dict_orders(monkeypatch, seed: int = 0) -> None:
    """Until ``monkeypatch`` is undone, ``LeafSummary`` pickles as columns
    in shuffled row orders (see :func:`shuffled`)."""
    original = LeafSummary.__reduce__
    monkeypatch.setattr(
        LeafSummary, "__reduce__", lambda self: original(shuffled(self, seed))
    )
