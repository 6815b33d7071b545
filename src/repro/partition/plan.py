"""Partition plan datatypes.

A :class:`PartitionPlan` is the root's output in §3.1.3: the boundaries
(here: explicit cell lists, which subsume arbitrary boundary shapes) that
get broadcast to the partitioner leaves.  Each :class:`PartitionSpec` keeps
its cells in *forming order* — a contiguous run of the column-major cell
sequence — which is what lets rebalancing move cells between neighboring
partitions from the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PartitionError

__all__ = ["PartitionSpec", "PartitionPlan"]

Cell = tuple[int, int]


@dataclass
class PartitionSpec:
    """One partition: its cells, their point count, and its shadow region."""

    partition_id: int
    cells: list[Cell] = field(default_factory=list)
    point_count: int = 0
    shadow_cells: set[Cell] = field(default_factory=set)
    shadow_count: int = 0

    @property
    def total_count(self) -> int:
        """Partition plus shadow points — what the leaf actually clusters."""
        return self.point_count + self.shadow_count

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_set(self) -> set[Cell]:
        return set(self.cells)

    def payload_bytes(self) -> int:
        """Wire size of this spec when the plan is multicast: two int64
        grid coordinates per owned/shadow cell plus the fixed counters."""
        return 16 * (len(self.cells) + len(self.shadow_cells)) + 24


@dataclass
class PartitionPlan:
    """The full partitioning of a dataset's Eps grid."""

    eps: float
    partitions: list[PartitionSpec]
    target_size: float
    final_target_size: float = 0.0

    def __len__(self) -> int:
        return len(self.partitions)

    def payload_bytes(self) -> int:
        """Wire size of the whole plan — what each partitioner leaf
        actually receives in the §3.1.3 boundary broadcast (the
        :mod:`repro.mrnet.packets` accounting hook)."""
        return sum(spec.payload_bytes() for spec in self.partitions) + 24

    def cell_owner(self) -> dict[Cell, int]:
        """Map each grid cell to the partition owning it."""
        owner: dict[Cell, int] = {}
        for spec in self.partitions:
            for cell in spec.cells:
                if cell in owner:
                    raise PartitionError(
                        f"cell {cell} owned by partitions {owner[cell]} and {spec.partition_id}"
                    )
                owner[cell] = spec.partition_id
        return owner

    def nonempty(self) -> list[PartitionSpec]:
        """Partitions that actually own cells."""
        return [p for p in self.partitions if p.cells]

    def size_imbalance(self) -> float:
        """max/mean ratio of total (partition+shadow) counts — load proxy."""
        sizes = [p.total_count for p in self.nonempty()]
        if not sizes:
            return 1.0
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 1.0
