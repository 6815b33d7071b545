"""The per-cell loop ``summarize_leaf`` used to be — the differential oracle.

``repro.merge.summary.summarize_leaf`` builds a leaf's summary as a few
whole-leaf segment passes.  This is the loop it replaced, kept verbatim
(one ``GridIndex`` cell at a time for the non-core claims, one
``select_representatives`` call per ``(cluster, cell)``) so
``test_summary_differential.py`` can require the two to agree field by
field.  It is not a test module and nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.dbscan.grid_index import GridIndex
from repro.merge.representatives import select_representatives
from repro.merge.summary import (
    CellSummary,
    ClusterSummary,
    LeafSummary,
    cell_bounds,
)
from repro.points import NOISE, PointSet

__all__ = [
    "reference_noncore_claims",
    "reference_summarize_leaf",
    "assert_summaries_identical",
]


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
) -> LeafSummary:
    labels = np.asarray(labels)
    core_mask = np.asarray(core_mask, dtype=bool)
    cells = (
        np.floor(points.coords / eps).astype(np.int64)
        if len(points)
        else np.empty((0, 2), np.int64)
    )

    summary = LeafSummary(eps=eps, source_leaves=frozenset([leaf_id]))

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


def _assert_same_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert np.array_equal(got, want), f"{what}: values differ"


def assert_summaries_identical(got: LeafSummary, want: LeafSummary) -> None:
    """Field-by-field equality, dict orders, dtypes and shapes included."""
    assert got.eps == want.eps
    assert got.source_leaves == want.source_leaves
    assert list(got.owner_noncore_ids) == list(want.owner_noncore_ids)
    for cell, ids in want.owner_noncore_ids.items():
        _assert_same_array(got.owner_noncore_ids[cell], ids, f"owner {cell}")
    assert list(got.clusters) == list(want.clusters)
    for key, want_cluster in want.clusters.items():
        got_cluster = got.clusters[key]
        # Keys are plain ints, not numpy scalars (they are pickled and hashed).
        assert {type(v) for k in (key, *got_cluster.cells) for v in k} == {int}
        assert got_cluster.key == want_cluster.key
        assert got_cluster.constituents == want_cluster.constituents
        assert list(got_cluster.cells) == list(want_cluster.cells), key
        for cell, want_cell in want_cluster.cells.items():
            got_cell = got_cluster.cells[cell]
            for name in ("rep_ids", "rep_coords", "noncore_ids", "noncore_coords"):
                _assert_same_array(
                    getattr(got_cell, name), getattr(want_cell, name),
                    f"{key} {cell} {name}",
                )
    assert got.payload_bytes() == want.payload_bytes()
