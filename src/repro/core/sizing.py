"""Capacity planning: how many leaves does a dataset need?

The paper's strong-scaling experiment starts "at the number of leaf nodes
that had sufficient memory to support their partition size" (§4) — 256
leaves for 6.5 B points on 6 GB K20s.  These helpers answer the same
question for the simulated device from the allocation layout
:func:`repro.gpu.mrscan_gpu` makes.  Its 39 B/point is a floor (50k-point
leaves took 42 to 218), so a plan that passes here can still meet
:class:`repro.errors.DeviceMemoryError`; the leaf then re-chunks.
"""

from __future__ import annotations

import math

from ..errors import ConfigError
from ..gpu.device import DeviceConfig

__all__ = ["leaf_memory_bytes", "minimum_leaves"]

#: Device bytes per resident point, a floor: 16 (coords) + 17 (labels,
#: flags, queue) + ~6 for the box tree, whose 32 B per node of every level
#: measured 9-185 B/point on 50k-point leaves (42-218 in all, sparse data
#: the most).  Failover prices an adopted task with it too
#: (``core.pipeline._ClusterLeafTask.device_cost``).
BYTES_PER_POINT: float = 39.0


def leaf_memory_bytes(
    points_per_leaf: float, *, shadow_fraction: float = 0.35
) -> int:
    """Device memory one leaf needs for its partition plus shadow."""
    if points_per_leaf < 0:
        raise ConfigError("points_per_leaf must be >= 0")
    if shadow_fraction < 0:
        raise ConfigError("shadow_fraction must be >= 0")
    return int(math.ceil(points_per_leaf * (1.0 + shadow_fraction) * BYTES_PER_POINT))


def minimum_leaves(
    n_points: int,
    *,
    device: DeviceConfig | None = None,
    shadow_fraction: float = 0.35,
    safety: float = 1.3,
    max_cell_share: float = 0.0,
) -> int:
    """Fewest leaves whose partitions fit in device memory.

    ``safety`` headroom covers partition imbalance; ``max_cell_share``
    (the densest Eps-cell's share of all points, from
    :func:`repro.data.profile_density`) bounds the indivisible partition —
    if a single cell plus its shadow cannot fit the device, no leaf count
    helps and :class:`ConfigError` is raised.
    """
    if n_points < 1:
        raise ConfigError("n_points must be >= 1")
    if safety < 1.0:
        raise ConfigError("safety must be >= 1.0")
    device = device or DeviceConfig()

    floor_points = n_points * max_cell_share * 9  # cell + 8 shadow neighbors
    if leaf_memory_bytes(floor_points, shadow_fraction=0.0) > device.memory_bytes:
        raise ConfigError(
            f"the densest grid cell (~{floor_points:,.0f} points with shadow) "
            f"cannot fit a {device.memory_bytes:,}-byte device at any leaf count; "
            "subdivide dense cells or use a smaller eps"
        )

    leaves = 1
    while (
        leaf_memory_bytes(
            n_points / leaves * safety, shadow_fraction=shadow_fraction
        )
        > device.memory_bytes
    ):
        leaves *= 2
    # Refine downward from the power of two.
    while leaves > 1 and (
        leaf_memory_bytes(
            n_points / (leaves - 1) * safety, shadow_fraction=shadow_fraction
        )
        <= device.memory_bytes
    ):
        leaves -= 1
    return leaves
