"""Phase 1: the Eps-grid partitioner (§3.1).

The partitioner divides the input into one partition per clustering leaf
such that (1) every partition merges back into a result equivalent to
serial DBSCAN — guaranteed by *shadow regions*; (2) partitions carry
roughly equal point counts — the computational-cost proxy that works
*because* of the dense-box optimization; and (3) the work itself
distributes across nodes — the grid histogram is the only global state.
"""

from .grid import GridHistogram
from .plan import PartitionPlan, PartitionSpec
from .partitioner import append_points, form_partitions, partition_points
from .shadow import refresh_shadow, shadow_cells_of
from .dirty import adopt_cells, dirty_partitions, touched_cells_of
from .distributed import DistributedPartitioner, PartitionPhaseResult

__all__ = [
    "GridHistogram", "PartitionPlan", "PartitionSpec",
    "append_points", "form_partitions", "partition_points", "shadow_cells_of", "refresh_shadow",
    "adopt_cells", "dirty_partitions", "touched_cells_of",
    "DistributedPartitioner", "PartitionPhaseResult",
]
