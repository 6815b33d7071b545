"""The merge filter: combine child summaries at a tree node (§3.3.2).

For every grid cell where clusters from different children overlap, three
overlap types are evaluated:

1. **core/core** — a representative of one cluster within Eps of a
   representative of the other.  Representatives are core points, so this
   is a genuine DBSCAN core edge; Fig 5's lemma guarantees it fires
   whenever the clusters share a core point in the cell.
2. **non-core/core** — a point one side classified non-core (its shadow
   view was incomplete) that the *owner* of the cell classified core:
   the side's non-core members minus the owner's non-core set yields
   points that are globally core; any of them within Eps of the other
   side's representatives merges the clusters (Fig 7).
3. **non-core/non-core** — shared border points do not merge clusters;
   duplicates are removed when summaries combine (the output keeps one
   copy per point).

The filter is associative: internal nodes apply it level by level.  The
root only needs the final cluster groups, to number them (§3.4): it runs
the rules' first half — candidate pairs, both tests, the union — and
yields the global-id assignment, never a merged summary.

It runs as array passes over the children's concatenated columns — the
cell-graph connectivity of Wang, Gu & Shun (PAPERS.md): one sort by cell
yields every cell's candidate clusters, both tests run batched over all
cross-child candidate pairs, and one vectorised union-find joins the pairs
that pass.  The per-cell loop it replaced is the oracle in
``tests/merge/merge_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..dbscan.disjoint_set import union_edges
from ..errors import MergeError
from .global_ids import GlobalIdAssignment
from .representatives import select_representatives_batch
from .summary import (
    LeafSummary, any_within, offsets, row_ranks, rows_in, run_flags, run_starts, starts,
)

__all__ = ["MergeOutcome", "merge_summaries", "root_assignment", "MergeFilter"]


@dataclass
class MergeOutcome:
    """Statistics from one merge-filter application.

    The counters depend on the children's contents, never on their order:
    ``n_cell_pairs_checked`` counts the cross-child candidate pairs (two
    clusters of different children sharing a cell, once per shared cell),
    ``n_core_merges`` the pairs passing the type-1 test, and
    ``n_noncore_core_merges`` the pairs failing it and passing type 2 —
    whether or not other pairs already joined the two clusters.
    ``n_duplicate_noncore_removed`` counts the repeated non-core rows
    merged cells drop.
    """

    n_input_clusters: int = 0
    n_output_clusters: int = 0
    n_cell_pairs_checked: int = 0
    n_core_merges: int = 0
    n_noncore_core_merges: int = 0
    n_duplicate_noncore_removed: int = 0


def _combined_rows(out_cell: np.ndarray, ids: np.ndarray, multi: np.ndarray) -> np.ndarray:
    """Input rows in output order: by output cell; a cell merged from
    several parts lists its rows by id with repeats dropped, a single
    part's rows pass through as they came."""
    merged = multi[out_cell]
    order = np.lexsort((np.where(merged, ids, np.arange(len(ids))), out_cell))
    repeat = merged[order] & ~run_flags(out_cell[order], ids[order])
    return order[~repeat]


class _Groups(NamedTuple):
    """The groups half's output: the children's rows, concatenated, and
    every child cluster's group (groups numbered by smallest key)."""

    s: LeafSummary
    cell: np.ndarray  # cell rank of every cell row
    owner_cell: np.ndarray  # cell rank of every owned cell
    row_cluster: np.ndarray  # cluster of every cell row
    nc_row: np.ndarray  # cell row of every non-core row
    key_rank: np.ndarray
    roots: np.ndarray  # key rank of every group's smallest key
    group: np.ndarray


def _groups(summaries: list[LeafSummary], eps: float, outcome: MergeOutcome) -> _Groups:
    """Candidate pairs, the type-1/type-2 tests, one union-find."""
    for s in summaries:
        if abs(s.eps - eps) > 1e-12:
            raise MergeError(f"summary eps {s.eps} != merge eps {eps}")
    child = np.repeat(np.arange(len(summaries)), [s.n_clusters for s in summaries])
    s = LeafSummary.concat(summaries, eps)
    n_rows = len(s.cell_xy)

    # Cells as dense ranks, shared by cluster cell rows and owned cells.
    cell, owner_cell = np.split(row_ranks(np.concatenate((s.cell_xy, s.owner_cells))), [n_rows])
    owners = np.bincount(owner_cell, minlength=n_rows + len(owner_cell))
    if (owners > 1).any():
        twice = s.owner_cells[np.flatnonzero(owners[owner_cell] > 1)[0]]
        raise MergeError(f"cell {tuple(twice.tolist())} owned by two children")
    key_rank = row_ranks(s.keys)
    if key_rank.max(initial=-1) + 1 < len(key_rank):
        raise MergeError("duplicate cluster keys across children")
    outcome.n_input_clusters = len(key_rank)
    row_cluster = np.repeat(np.arange(s.n_clusters), s.n_cells)

    # Candidate pairs: every two cell rows of one cell from different
    # children (same child: already merged at a lower level).
    by_cell = np.argsort(cell, kind="stable")
    new_cell = run_flags(cell[by_cell])
    run_end = np.append(np.flatnonzero(new_cell)[1:], n_rows)[np.cumsum(new_cell) - 1]
    later = run_end - np.arange(n_rows) - 1
    i = np.repeat(np.arange(n_rows), later)
    u, v = by_cell[i], by_cell[i + 1 + offsets(later)]
    cross = child[row_cluster[u]] != child[row_cluster[v]]
    u, v = u[cross], v[cross]
    outcome.n_cell_pairs_checked = len(u)

    # Type 1: representatives within Eps of each other.
    eps2 = eps * eps
    rep_first = starts(s.n_rep)
    core = any_within(
        rep_first[u], s.n_rep[u], s.rep_coords, rep_first[v], s.n_rep[v], s.rep_coords, eps2
    )
    # Type 2: a non-core row is promoted when its cell's owner is in this
    # subtree and did not list it non-core (an owned cell with an empty
    # list promotes them all); promoted rows within Eps of the other
    # side's representatives merge, in either direction.
    nc_row = np.repeat(np.arange(n_rows), s.n_noncore)
    listed = rows_in(
        np.stack((cell[nc_row], s.noncore_ids), axis=1),
        np.stack((np.repeat(owner_cell, s.owner_lens), s.owner_ids), axis=1),
    )
    promoted = (owners[cell[nc_row]] > 0) & ~listed
    n_prom = np.bincount(nc_row[promoted], minlength=n_rows)
    prom_first, prom_xy = starts(n_prom), s.noncore_coords[promoted]
    fu, fv = u[~core], v[~core]
    noncore = np.zeros(len(u), dtype=bool)
    noncore[~core] = any_within(
        prom_first[fu], n_prom[fu], prom_xy, rep_first[fv], s.n_rep[fv], s.rep_coords, eps2
    ) | any_within(
        prom_first[fv], n_prom[fv], prom_xy, rep_first[fu], s.n_rep[fu], s.rep_coords, eps2
    )
    outcome.n_core_merges = int(core.sum())
    outcome.n_noncore_core_merges = int(noncore.sum())

    # Union over clusters ranked by key: min-root is "smallest key wins",
    # so the groups come out numbered in canonical key order.
    joined = core | noncore
    root, _ = union_edges(
        np.arange(len(key_rank)),
        key_rank[row_cluster[u[joined]]],
        key_rank[row_cluster[v[joined]]],
    )
    roots, group = np.unique(root[key_rank], return_inverse=True)
    outcome.n_output_clusters = len(roots)
    return _Groups(s, cell, owner_cell, row_cluster, nc_row, key_rank, roots, group)


def _combine(g: _Groups, outcome: MergeOutcome) -> LeafSummary:
    """One summary of the groups: output cells, representatives
    re-selected, constituents and the owner table."""
    s, cell, group = g.s, g.cell, g.group
    n_rows, n_groups = len(cell), len(g.roots)

    # Output cells: one per (group, cell), ascending; a cell that only one
    # cluster of the group has passes through unchanged.
    row_group = group[g.row_cluster]
    order = np.lexsort((cell, row_group))
    new = run_flags(row_group[order], cell[order])
    out_cell = np.empty(n_rows, dtype=np.int64)
    out_cell[order] = np.cumsum(new) - 1
    cell_rows = order[new]
    multi = np.bincount(out_cell, minlength=len(cell_rows)) > 1
    cell_xy = s.cell_xy[cell_rows]

    # A merged cell keeps each point once and re-selects representatives
    # among its parts': the best for each anchor is among the children's.
    rep_out = out_cell[np.repeat(np.arange(n_rows), s.n_rep)]
    reps = _combined_rows(rep_out, s.rep_ids, multi)
    cand = np.flatnonzero(multi[rep_out[reps]])
    seg = run_starts(rep_out[reps[cand]])
    xy = cell_xy[rep_out[reps[cand[seg]]]]
    chosen = select_representatives_batch(
        s.rep_coords[reps[cand]], seg, np.concatenate((xy * s.eps, (xy + 1) * s.eps), axis=1)
    )
    keep = np.ones(len(reps), dtype=bool)
    keep[cand] = False
    keep[cand[chosen.ravel()]] = True
    reps = reps[keep]
    nc_out = out_cell[g.nc_row]
    noncores = _combined_rows(nc_out, s.noncore_ids, multi)
    outcome.n_duplicate_noncore_removed = len(nc_out) - len(noncores)

    # Constituents: a group of several clusters lists all of theirs.
    size = np.bincount(group, minlength=n_groups)
    implicit = np.flatnonzero((s.n_constituents == 0) & (size[group] > 1))
    constituents = np.concatenate((s.constituent_keys, s.keys[implicit]))
    listed_by = np.repeat(np.arange(s.n_clusters), s.n_constituents)
    c_group = group[np.concatenate((listed_by, implicit))]
    c_order = np.lexsort((constituents[:, 1], constituents[:, 0], c_group))

    by_owner = np.argsort(g.owner_cell)
    owner_lens = s.owner_lens[by_owner]
    owner_rows = np.repeat(starts(s.owner_lens)[by_owner], owner_lens) + offsets(owner_lens)
    return LeafSummary(
        s.eps, s.source_leaves,
        s.keys[np.argsort(g.key_rank)[g.roots]],
        np.bincount(row_group[cell_rows], minlength=n_groups),
        np.bincount(c_group, minlength=n_groups),
        constituents[c_order],
        cell_xy,
        np.bincount(rep_out[reps], minlength=len(cell_rows)),
        np.bincount(nc_out[noncores], minlength=len(cell_rows)),
        s.rep_ids[reps], s.rep_coords[reps],
        s.noncore_ids[noncores], s.noncore_coords[noncores],
        s.owner_cells[by_owner], owner_lens, s.owner_ids[owner_rows],
    )


def merge_summaries(
    summaries: Sequence[LeafSummary], eps: float
) -> tuple[LeafSummary, MergeOutcome]:
    """Apply the merge rules across child summaries and combine them."""
    outcome = MergeOutcome()
    summaries = [s for s in summaries if s is not None]
    if not summaries:
        return LeafSummary.empty(eps), outcome
    return _combine(_groups(summaries, eps, outcome), outcome), outcome


def root_assignment(
    summaries: Sequence[LeafSummary], eps: float
) -> tuple[GlobalIdAssignment, MergeOutcome]:
    """The root's application: the merge rules' groups, numbered.

    Equal to ``assign_global_ids(merge_summaries(summaries, eps)[0])``
    without building the merged summary, so
    ``n_duplicate_noncore_removed`` stays 0.
    """
    outcome = MergeOutcome()
    summaries = [s for s in summaries if s is not None]
    if not summaries:
        return GlobalIdAssignment.empty(), outcome
    g = _groups(summaries, eps, outcome)
    return GlobalIdAssignment.from_clusters(g.s, g.group, len(g.roots)), outcome


class MergeFilter:
    """MRNet filter wrapper: :func:`merge_summaries` at internal nodes,
    :func:`root_assignment` at the root.

    Collects per-application outcomes on the instance (safe only with the
    local transport; the process transport gets fresh copies, so outcome
    collection is a local-transport observability feature, not state the
    algorithm depends on).

    An optional tracer receives one ``merge.outcome`` instant per filter
    application carrying the outcome counters — the per-node *span* for
    the same application is recorded by ``Network.reduce``, which knows
    the node id this filter cannot see.  Like outcome collection, the
    tracer is a local-transport feature: pickling the filter (process
    transport) drops it to the no-op, since events recorded in a worker's
    copy could never reach the parent's tracer anyway.
    """

    def __init__(self, eps: float, *, tracer=None) -> None:
        from ..telemetry.tracer import NOOP_TRACER, PID_TREE

        self.eps = float(eps)
        self.outcomes: list[MergeOutcome] = []
        self.tracer = tracer or NOOP_TRACER
        self._trace_pid = PID_TREE

    def __getstate__(self) -> dict:
        from ..telemetry.tracer import NOOP_TRACER

        state = self.__dict__.copy()
        state["tracer"] = NOOP_TRACER
        return state

    def combine(self, payloads: Sequence[LeafSummary]) -> LeafSummary:
        merged, outcome = merge_summaries(payloads, self.eps)
        self._record(outcome)
        return merged

    def root(self, payloads: Sequence[LeafSummary]) -> GlobalIdAssignment:
        assignment, outcome = root_assignment(payloads, self.eps)
        self._record(outcome)
        return assignment

    def _record(self, outcome: MergeOutcome) -> None:
        self.outcomes.append(outcome)
        self.tracer.instant(
            "merge.outcome",
            cat="merge",
            pid=self._trace_pid,
            n_input_clusters=outcome.n_input_clusters,
            n_output_clusters=outcome.n_output_clusters,
            n_cell_pairs_checked=outcome.n_cell_pairs_checked,
            n_core_merges=outcome.n_core_merges,
            n_noncore_core_merges=outcome.n_noncore_core_merges,
        )
