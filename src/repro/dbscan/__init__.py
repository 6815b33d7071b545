"""CPU clustering substrate: spatial indexes and exact reference DBSCAN.

This package is the stand-in for the paper's single-CPU comparator (they
used ELKI 0.4.1, §5.1.3) and supplies the Eps-cell grid index the
partitioner and the merge build on.
"""

from .grid_index import GridIndex
from .disjoint_set import DisjointSet
from .labels import canonicalize_labels, core_sets_equal, clustering_signature
from .reference import dbscan_reference, DBSCANResult

__all__ = [
    "GridIndex",
    "DisjointSet",
    "canonicalize_labels",
    "core_sets_equal",
    "clustering_signature",
    "dbscan_reference",
    "DBSCANResult",
]
