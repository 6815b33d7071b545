"""Root-level global cluster ID assignment (§3.4, first half).

After the final merge at the MRNet root, every surviving cluster group is
given "a globally unique identifier".  The assignment maps each
*constituent* key — the ``(leaf_id, local_cluster_id)`` pairs the leaves
originally reported — to its global ID, which is what flows back down the
tree in the sweep so each leaf can relabel its local output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .summary import LeafSummary

__all__ = ["GlobalIdAssignment", "assign_global_ids"]

ClusterKey = tuple[int, int]


@dataclass
class GlobalIdAssignment:
    """The sweep payload: constituent cluster key -> global cluster ID."""

    mapping: dict[ClusterKey, int] = field(default_factory=dict)
    n_clusters: int = 0

    def global_id(self, leaf_id: int, local_id: int) -> int:
        """Global ID of one leaf-local cluster (raises on unknown keys)."""
        return self.mapping[(leaf_id, int(local_id))]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The mapping as ``(n, 2)`` constituent keys and ``(n,)`` global ids."""
        n = len(self.mapping)
        keys = np.fromiter(chain.from_iterable(self.mapping), np.int64, 2 * n).reshape(n, 2)
        return keys, np.fromiter(self.mapping.values(), np.int64, n)

    def for_leaf(self, leaf_id: int) -> dict[int, int]:
        """Local-to-global map restricted to one leaf (sweep splitting)."""
        keys, gids = self.arrays()
        mine = keys[:, 0] == leaf_id
        return dict(zip(keys[mine, 1].tolist(), gids[mine].tolist()))

    def payload_bytes(self) -> int:
        return 20 * len(self.mapping) + 16


def assign_global_ids(root_summary: LeafSummary) -> GlobalIdAssignment:
    """Number the root's cluster groups 0..k-1 (by canonical key order).

    Canonical-key ordering makes the numbering deterministic regardless of
    merge order: the group whose smallest constituent is smallest gets 0.
    """
    s = root_summary
    gid = np.empty(s.n_clusters, dtype=np.int64)
    gid[np.lexsort((s.keys[:, 1], s.keys[:, 0]))] = np.arange(s.n_clusters)
    alone = s.n_constituents == 0  # a leaf cluster is its own constituent
    keys = np.concatenate((s.keys[alone], s.constituent_keys))
    gids = np.concatenate((gid[alone], np.repeat(gid, s.n_constituents)))
    mapping = dict(zip(map(tuple, keys.tolist()), gids.tolist()))
    return GlobalIdAssignment(mapping=mapping, n_clusters=s.n_clusters)
