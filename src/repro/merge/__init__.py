"""Phase 3: distributed cluster merging (§3.3).

Clusters found on different leaves merge when they share a core point (or
when a shadow-side misclassification hides one).  To merge without
shipping whole clusters up the tree, each cluster is summarised per grid
cell by at most **eight representative points** — the core points closest
to the cell's four corners and four side midpoints — which §3.3.1 (Fig 5)
proves sufficient: any overlapping core point lies within Eps of at least
one representative.  Summaries flow up the MRNet tree; every internal node
runs the merge filter over its children's summaries; the root's filter
yields the global cluster IDs.
"""

from .representatives import representative_targets
from .summary import LeafSummary, summarize_leaf
from .merger import merge_summaries, root_assignment, MergeFilter, MergeOutcome
from .global_ids import GlobalIdAssignment, assign_global_ids

__all__ = [
    "representative_targets",
    "LeafSummary",
    "summarize_leaf",
    "merge_summaries",
    "root_assignment",
    "MergeFilter",
    "MergeOutcome",
    "GlobalIdAssignment",
    "assign_global_ids",
]
