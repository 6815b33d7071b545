"""Sweep: relabel with global IDs and assemble/write the final output.

Each leaf receives the global-ID mapping for its local clusters, relabels
its view, and emits ``(point_id, global_label)`` pairs for the points it
*owns* (shadow copies are dropped — the §3.3.2 type-3 duplicate removal).
Because shadow-view leaves can legitimately claim an owned border point
that its owner saw as noise (the owner could not see the remote core's
status), each leaf also emits claims for shadow points; the combination
step keeps the owner's label when the owner found one and otherwise
adopts the smallest claimed global ID — deterministic, and faithful to
"remove all duplicate non-core points from the shadow region".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MergeError
from ..points import NOISE, PointSet

__all__ = ["SweepResult", "sweep_leaf", "combine_leaf_outputs", "combine_core_masks"]


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
    local_labels = np.asarray(local_labels)
    if len(local_labels) != len(points):
        raise MergeError(
            f"labels ({len(local_labels)}) and points ({len(points)}) disagree"
        )
    if not 0 <= n_owned <= len(points):
        raise MergeError(f"n_owned {n_owned} out of range for {len(points)} points")

    # One lookup array, indexed by local cluster id.
    local = np.fromiter(local_to_global, np.int64, len(local_to_global))
    lookup = np.full(max(local_labels.max(initial=0), local.max(initial=0)) + 1, NOISE)
    lookup[local] = np.fromiter(local_to_global.values(), np.int64, len(local))
    global_labels = np.where(local_labels >= 0, lookup[local_labels.clip(0)], NOISE)
    unknown = (local_labels != NOISE) & (global_labels == NOISE)
    if np.any(unknown):
        missing = np.unique(local_labels[unknown])
        raise MergeError(
            f"leaf {leaf_id}: no global id for local clusters {missing[:5].tolist()}"
        )

    shadow_labels = global_labels[n_owned:]
    shadow_ids = points.ids[n_owned:]
    claimed = shadow_labels != NOISE
    owned_core = None
    if core_mask is not None:
        core_mask = np.asarray(core_mask, dtype=bool)
        if len(core_mask) != len(points):
            raise MergeError(
                f"core_mask ({len(core_mask)}) and points ({len(points)}) disagree"
            )
        owned_core = core_mask[:n_owned].copy()
    return SweepResult(
        leaf_id=leaf_id,
        owned_ids=points.ids[:n_owned].copy(),
        owned_labels=global_labels[:n_owned].copy(),
        claimed_ids=shadow_ids[claimed].copy(),
        claimed_labels=shadow_labels[claimed].copy(),
        owned_core=owned_core,
    )


def combine_leaf_outputs(
    results: list[SweepResult], n_points: int
) -> np.ndarray:
    """Assemble the global labelling from all leaves' sweep outputs.

    Point ids must be ``0..n_points-1`` (the pipeline guarantees this).
    Owner labels win; for owner-noise points claimed by shadow views, the
    smallest claimed global id is adopted.
    """
    labels = np.full(n_points, NOISE, dtype=np.int64)
    seen = np.zeros(n_points, dtype=bool)
    for res in results:
        if np.any(seen[res.owned_ids]):
            raise MergeError(f"leaf {res.leaf_id} re-writes points another leaf owns")
        seen[res.owned_ids] = True
        labels[res.owned_ids] = res.owned_labels
    if not np.all(seen):
        raise MergeError(f"{int(np.count_nonzero(~seen))} points written by no leaf")

    # Adopt claims only where the owner wrote noise; among competing
    # claims the smallest global id wins (determinism).  Owner labels are
    # authoritative and are never overridden by claims.
    claim_adopted = np.zeros(n_points, dtype=bool)
    for res in results:
        if len(res.claimed_ids) == 0:
            continue
        ids = res.claimed_ids
        fresh = (labels[ids] == NOISE) & ~claim_adopted[ids]
        labels[ids[fresh]] = res.claimed_labels[fresh]
        claim_adopted[ids[fresh]] = True
        contested = claim_adopted[ids] & ~fresh
        if np.any(contested):
            current = labels[ids[contested]]
            labels[ids[contested]] = np.minimum(current, res.claimed_labels[contested])
    return labels


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
