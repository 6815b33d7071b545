"""Root-level global cluster ID assignment (§3.4, first half).

After the final merge at the MRNet root, every surviving cluster group is
given "a globally unique identifier".  The assignment maps each
*constituent* key — the ``(leaf_id, local_cluster_id)`` pairs the leaves
originally reported — to its global ID, which is what flows back down the
tree in the sweep so each leaf can relabel its local output.

The root filter builds it straight from its cluster groups
(:meth:`repro.merge.MergeFilter.root`); :func:`assign_global_ids` numbers
an already merged summary the same way.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from ..errors import MergeError
from .summary import LeafSummary, row_ranks

__all__ = ["GlobalIdAssignment", "assign_global_ids"]


@dataclass(eq=False)
class GlobalIdAssignment:
    """The sweep payload: constituent cluster key -> global cluster ID.

    Row ``i`` of ``keys`` (``(n, 2)``, in no particular order) is a
    ``(leaf_id, local_id)`` constituent and ``gids[i]`` its global ID;
    the ids used are ``0..n_clusters-1``.  Two assignments are equal when
    they map the same keys to the same ids.
    """

    keys: np.ndarray
    gids: np.ndarray
    n_clusters: int = 0

    @classmethod
    def empty(cls) -> GlobalIdAssignment:
        return cls(np.empty((0, 2), np.int64), np.empty(0, np.int64), 0)

    @classmethod
    def from_clusters(
        cls, s: LeafSummary, cluster_gid: np.ndarray, n_clusters: int
    ) -> GlobalIdAssignment:
        """Give every constituent of cluster ``i`` of ``s`` the id
        ``cluster_gid[i]`` (a cluster without listed constituents is its
        own)."""
        alone = s.n_constituents == 0
        keys = np.concatenate((s.keys[alone], s.constituent_keys))
        gids = np.concatenate((cluster_gid[alone], np.repeat(cluster_gid, s.n_constituents)))
        return cls(keys, gids, int(n_clusters))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The mapping as ``(n, 2)`` constituent keys and ``(n,)`` global ids."""
        return self.keys, self.gids

    @property
    def mapping(self) -> dict[tuple[int, int], int]:
        """The assignment as a dict (tests and small callers)."""
        return dict(zip(map(tuple, self.keys.tolist()), self.gids.tolist()))

    def for_leaf(self, leaf_id: int) -> dict[int, int]:
        """Local-to-global map restricted to one leaf (sweep splitting)."""
        mine = self.keys[:, 0] == leaf_id
        return dict(zip(self.keys[mine, 1].tolist(), self.gids[mine].tolist()))

    def payload_bytes(self) -> int:
        return 20 * len(self.keys) + 16

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalIdAssignment):
            return NotImplemented
        if self.n_clusters != other.n_clusters or len(self.keys) != len(other.keys):
            return False
        mine = np.lexsort(self.keys.T[::-1])
        theirs = np.lexsort(other.keys.T[::-1])
        return bool(
            np.array_equal(self.keys[mine], other.keys[theirs])
            and np.array_equal(self.gids[mine], other.gids[theirs])
        )

    def __reduce__(self):
        return _unpack_assignment, (self.keys, self.gids, self.n_clusters)

    def __setstate__(self, state) -> None:
        # Only a blob in the retired dict layout carries state; the
        # checkpoint stores read this error as a miss.
        raise pickle.UnpicklingError("assignment blob in the retired dict layout")


def _unpack_assignment(keys, gids, n_clusters) -> GlobalIdAssignment:
    """Wrap the columns :meth:`GlobalIdAssignment.__reduce__` shipped,
    checking their shapes first (a damaged blob is a :class:`MergeError`)."""
    keys, gids = np.asarray(keys), np.asarray(gids)
    if keys.ndim != 2 or keys.shape[1] != 2 or gids.shape != (len(keys),):
        raise MergeError(
            f"assignment columns disagree: keys {keys.shape}, gids {gids.shape}"
        )
    return GlobalIdAssignment(keys, gids, int(n_clusters))


def assign_global_ids(root_summary: LeafSummary) -> GlobalIdAssignment:
    """Number the root's cluster groups 0..k-1 (by canonical key order).

    Canonical-key ordering makes the numbering deterministic regardless of
    merge order: the group whose smallest constituent is smallest gets 0.
    A merged cluster is keyed by its smallest constituent, so this is the
    group numbering :meth:`repro.merge.MergeFilter.root` yields.
    """
    s = root_summary
    return GlobalIdAssignment.from_clusters(s, row_ranks(s.keys), s.n_clusters)
