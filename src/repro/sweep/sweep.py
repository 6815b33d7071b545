"""Sweep: relabel with global IDs and assemble/write the final output.

Each leaf relabels its view with the root's global-ID mapping and emits
``(point_id, global_label)`` pairs for the points it *owns* (shadow
copies are dropped — the §3.3.2 type-3 duplicate removal).  Because
shadow-view leaves can legitimately claim an owned border point that its
owner saw as noise (the owner could not see the remote core's status),
each leaf also emits claims for shadow points; the combination step keeps
the owner's label when the owner found one and otherwise adopts the
smallest claimed global ID — deterministic, and faithful to "remove all
duplicate non-core points from the shadow region".

:func:`sweep_gather` does this for every leaf at once: each leaf's owned
ids, owned local labels and shadow claims are cut once per clustering
output (:func:`cut_leaf`), the mapping becomes one table of every leaf's
local labels, and the global labelling is a gather through it per leaf
plus one claim pass.  :func:`sweep_leaf` and :func:`combine_leaf_outputs` are the
same two steps for one leaf's view and for per-leaf results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import MergeError
from ..points import NOISE, PointSet

__all__ = [
    "LeafCut",
    "SweepGather",
    "SweepResult",
    "combine_core_masks",
    "combine_leaf_outputs",
    "cut_leaf",
    "sweep_gather",
    "sweep_leaf",
]


@dataclass
class SweepResult:
    """One leaf's sweep output."""

    leaf_id: int
    owned_ids: np.ndarray  # point ids the leaf owns
    owned_labels: np.ndarray  # their global labels (NOISE allowed)
    claimed_ids: np.ndarray  # shadow point ids this leaf put in a cluster
    claimed_labels: np.ndarray  # their global labels (never NOISE)
    owned_core: np.ndarray | None = None  # authoritative core flags

    def payload_bytes(self) -> int:
        return int(
            self.owned_ids.nbytes
            + self.owned_labels.nbytes
            + self.claimed_ids.nbytes
            + self.claimed_labels.nbytes
            + (self.owned_core.nbytes if self.owned_core is not None else 0)
        )


@dataclass
class LeafCut:
    """One leaf's clustering output as the sweep reads it: the owned
    points' ids and core flags, the shadow points the leaf put in a
    cluster, and the *slot* of each one's local label — ``label + 1``, so
    NOISE is slot 0 — in the leaf's block of the relabelling table.
    ``present`` lists the local clusters the labels use."""

    leaf_id: int
    owned_ids: np.ndarray
    owned_slot: np.ndarray
    owned_core: np.ndarray | None
    claimed_ids: np.ndarray
    claimed_slot: np.ndarray
    present: np.ndarray

    @property
    def n_slots(self) -> int:
        """Size of the leaf's table block: NOISE, then each local label."""
        return int(self.present[-1]) + 2 if len(self.present) else 1


def cut_leaf(
    leaf_id: int,
    owned_ids: np.ndarray,
    shadow_ids: np.ndarray,
    local_labels: np.ndarray,
    core_mask: np.ndarray | None = None,
) -> LeafCut:
    """Cut one leaf's output: ``local_labels`` (and ``core_mask``) are
    aligned with its view, the owned points first, then the shadow."""
    local_labels = np.asarray(local_labels)
    n_owned, n = len(owned_ids), len(owned_ids) + len(shadow_ids)
    if len(local_labels) != n:
        raise MergeError(f"labels ({len(local_labels)}) and points ({n}) disagree")
    if local_labels.min(initial=0) < NOISE:
        bad = np.unique(local_labels[local_labels < NOISE])
        raise MergeError(f"leaf {leaf_id}: no global id for local clusters {bad[:5].tolist()}")
    owned_core = None
    if core_mask is not None:
        core_mask = np.asarray(core_mask, dtype=bool)
        if len(core_mask) != n:
            raise MergeError(f"core_mask ({len(core_mask)}) and points ({n}) disagree")
        owned_core = core_mask[:n_owned]
    slot = local_labels.astype(np.intp) + 1
    shadow = slot[n_owned:]
    claimed = np.flatnonzero(shadow)
    return LeafCut(
        int(leaf_id), owned_ids, slot[:n_owned], owned_core,
        shadow_ids[claimed], shadow[claimed], np.flatnonzero(np.bincount(slot)[1:]),
    )


def _relabel(cuts: Sequence[LeafCut], keys: np.ndarray, gids: np.ndarray) -> list[np.ndarray]:
    """Every cut's block of the relabelling table: the global id of each
    of its slots (NOISE, then its local labels) as ``(leaf_id, local_id)
    -> gid`` gives them, so relabelling a leaf is one gather through its
    block.  All blocks are views of one table."""
    leaf_ids = np.array([c.leaf_id for c in cuts], dtype=np.int64)
    width = np.array([c.n_slots for c in cuts], dtype=np.int64)
    start = np.cumsum(width) - width
    table = np.full(int(width.sum()), NOISE, dtype=np.int64)
    # Cut position of each leaf id; ids past the last map to -1.
    position = np.full(leaf_ids.max(initial=-1) + 2, -1, dtype=np.int64)
    position[leaf_ids] = np.arange(len(cuts))
    at = position[np.clip(keys[:, 0], -1, len(position) - 1)]
    mine = (at >= 0) & (keys[:, 1] >= 0) & (keys[:, 1] + 1 < width[at])
    table[start[at[mine]] + 1 + keys[mine, 1]] = gids[mine]
    blocks = [table[first : first + w] for first, w in zip(start, width)]
    for c, block in zip(cuts, blocks):
        missing = c.present[block[c.present + 1] == NOISE]
        if len(missing):
            raise MergeError(
                f"leaf {c.leaf_id}: no global id for local clusters {missing[:5].tolist()}"
            )
    return blocks


#: Fill of a label no owner has written yet (never a global id).
_UNWRITTEN = np.iinfo(np.int64).min


def _combine(
    leaf_ids: Sequence[int],
    owned_ids: Sequence[np.ndarray],
    owned_labels: Sequence[np.ndarray],
    claimed_ids: Sequence[np.ndarray],
    claimed_labels: Callable[[int, np.ndarray], np.ndarray],
    n_points: int,
) -> np.ndarray:
    """Owner labels win; an owner-noise point claimed by shadow views
    adopts the smallest claimed global id (order-independent).  Every
    point must be owned by exactly one leaf.  Only claims on owner-noise
    points are relabelled: ``claimed_labels(i, rows)`` gives leaf ``i``'s
    global ids for those rows of ``claimed_ids[i]``."""
    labels = np.full(n_points, _UNWRITTEN, dtype=np.int64)
    for ids, owned in zip(owned_ids, owned_labels):
        labels[ids] = owned
    # n writes that leave no point unwritten wrote every point once.
    if sum(map(len, owned_ids)) != n_points or (labels == _UNWRITTEN).any():
        seen = np.zeros(n_points, dtype=bool)
        for leaf, ids in zip(leaf_ids, owned_ids):
            if seen[ids].any():
                raise MergeError(f"leaf {leaf} re-writes points another leaf owns")
            seen[ids] = True
        raise MergeError(f"{int(np.count_nonzero(~seen))} points written by no leaf")
    rows = [np.flatnonzero(labels[ids] == NOISE) for ids in claimed_ids]
    ids = np.concatenate([np.empty(0, np.int64), *(c[r] for c, r in zip(claimed_ids, rows))])
    claims = np.concatenate(
        [np.empty(0, np.int64), *(claimed_labels(i, r) for i, r in enumerate(rows))]
    )
    order = np.lexsort((claims, ids))
    first = np.ones(len(order), dtype=bool)
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    labels[ids[order[first]]] = claims[order[first]]
    return labels


@dataclass
class SweepGather:
    """The whole sweep's output: the final labelling and core mask, the
    cuts it relabelled, their owned points' global ids and their blocks
    of the relabelling table."""

    labels: np.ndarray
    core_mask: np.ndarray
    cuts: Sequence[LeafCut]
    owned_labels: list[np.ndarray]
    blocks: list[np.ndarray]

    def results(self) -> list[SweepResult]:
        """Per-leaf results of the gather (the sweep checkers' input);
        claims are relabelled here, the gather relabels only adopted ones."""
        return [
            SweepResult(
                c.leaf_id, c.owned_ids, owned, c.claimed_ids, block[c.claimed_slot], c.owned_core
            )
            for c, owned, block in zip(self.cuts, self.owned_labels, self.blocks)
        ]


def sweep_gather(cuts: Sequence[LeafCut], assignment, n_points: int) -> SweepGather:
    """Relabel every leaf's cut with ``assignment``
    (:class:`~repro.merge.GlobalIdAssignment`) and assemble the global
    labelling and core mask of points ``0..n_points-1``.  Every cut must
    carry core flags."""
    for c in cuts:
        if c.owned_core is None:
            raise MergeError(f"leaf {c.leaf_id} carries no core flags")
    blocks = _relabel(cuts, *assignment.arrays())
    owned_labels = [block[c.owned_slot] for c, block in zip(cuts, blocks)]
    labels = _combine(
        [c.leaf_id for c in cuts], [c.owned_ids for c in cuts], owned_labels,
        [c.claimed_ids for c in cuts],
        lambda i, rows: blocks[i][cuts[i].claimed_slot[rows]],
        n_points,
    )
    # _combine proved every point owned once: every core flag is written.
    core_mask = np.empty(n_points, dtype=bool)
    for c in cuts:
        core_mask[c.owned_ids] = c.owned_core
    return SweepGather(labels, core_mask, cuts, owned_labels, blocks)


def sweep_leaf(
    leaf_id: int,
    points: PointSet,
    local_labels: np.ndarray,
    n_owned: int,
    local_to_global: dict[int, int],
    core_mask: np.ndarray | None = None,
) -> SweepResult:
    """Relabel one leaf's clustering with global IDs.

    ``points`` is the leaf's view with the ``n_owned`` partition points
    first and shadow points after (the partition-file layout).
    ``local_to_global`` maps the leaf's local cluster ids to global ids.
    ``core_mask`` (optional, aligned with ``points``) lets the result
    carry the owner-authoritative core flags for the owned points.
    """
    if not 0 <= n_owned <= len(points):
        raise MergeError(f"n_owned {n_owned} out of range for {len(points)} points")
    cut = cut_leaf(leaf_id, points.ids[:n_owned], points.ids[n_owned:], local_labels, core_mask)
    local = np.fromiter(local_to_global, np.int64, len(local_to_global))
    keys = np.stack((np.full(len(local), leaf_id, dtype=np.int64), local), axis=1)
    gids = np.fromiter(local_to_global.values(), np.int64, len(local))
    (block,) = _relabel([cut], keys, gids)
    return SweepResult(
        leaf_id=leaf_id,
        owned_ids=cut.owned_ids.copy(),
        owned_labels=block[cut.owned_slot],
        claimed_ids=cut.claimed_ids,
        claimed_labels=block[cut.claimed_slot],
        owned_core=None if cut.owned_core is None else cut.owned_core.copy(),
    )


def combine_leaf_outputs(
    results: list[SweepResult], n_points: int
) -> np.ndarray:
    """Assemble the global labelling from all leaves' sweep outputs.

    Point ids must be ``0..n_points-1`` (the pipeline guarantees this).
    Owner labels win; for owner-noise points claimed by shadow views, the
    smallest claimed global id is adopted.
    """
    return _combine(
        [r.leaf_id for r in results],
        [r.owned_ids for r in results], [r.owned_labels for r in results],
        [r.claimed_ids for r in results],
        lambda i, rows: results[i].claimed_labels[rows],
        n_points,
    )


def combine_core_masks(results: list[SweepResult], n_points: int) -> np.ndarray:
    """Assemble the global core mask from owner-authoritative flags.

    A point's owner leaf sees its complete Eps-neighborhood (§3.1.1), so
    the owned classification is exact; every point is owned exactly once.
    Raises when a result lacks core flags (the pipeline always passes
    them; external callers may not).
    """
    mask = np.zeros(n_points, dtype=bool)
    for res in results:
        if res.owned_core is None:
            raise MergeError(
                f"leaf {res.leaf_id} carries no core flags; pass core_mask "
                "to sweep_leaf"
            )
        mask[res.owned_ids] = res.owned_core
    return mask
