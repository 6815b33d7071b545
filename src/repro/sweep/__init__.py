"""Phase 4: the sweep step (§3.4).

The global cluster IDs travel down the tree "with each level of the tree
reversing the merge operation"; each leaf relabels its points with global
IDs and writes them to the output file in parallel.
"""

from .sweep import (
    LeafCut,
    SweepGather,
    SweepResult,
    combine_core_masks,
    combine_leaf_outputs,
    cut_leaf,
    sweep_gather,
    sweep_leaf,
)

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
