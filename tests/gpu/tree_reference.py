"""``FlatTree``'s arrays as they were built before Morton keys came from a
table: shift-and-mask bit spreading, the cells floored and offset per
point, a stable argsort, and the parent→child ranges found by binary
search per level.  ``test_treeindex.py`` holds the table-built tree to it
array for array.  It is not a test module and nothing under ``src/``
imports it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.errors import ConfigError
from repro.gpu.treeindex import _MAX_AXIS_BITS, _spread_bits


def _unique_runs(sorted_vals: np.ndarray):
    change = np.empty(len(sorted_vals), dtype=bool)
    change[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=change[1:])
    start = np.flatnonzero(change)
    return sorted_vals[start], start, np.diff(np.append(start, len(sorted_vals)))


def flat_tree_reference(coords: np.ndarray, cell: float, align_levels: int = 0):
    """The arrays of ``FlatTree(coords, cell, align_levels=...)`` for a
    non-empty finite ``coords``, built the old way."""
    cells = np.floor(coords / cell).astype(np.int64)
    origin = np.array([cells[:, 0].min(), cells[:, 1].min()]) >> align_levels << align_levels
    u = cells - origin
    span = int(u.max())
    bits = max(1 + align_levels, span.bit_length())
    if bits > _MAX_AXIS_BITS:
        raise ConfigError(f"{span + 1} cells need {bits} bits/axis")
    leaf_keys = _spread_bits(u[:, 0]) | (_spread_bits(u[:, 1]) << np.uint64(1))
    order = np.argsort(leaf_keys, kind="stable")
    keys, start, count = _unique_runs(leaf_keys[order])
    level_keys, level_start, level_count = [keys], [start], [count]
    for _ in range(bits):
        keys, box_start, _ = _unique_runs(level_keys[-1] >> np.uint64(2))
        level_start.append(level_start[-1][box_start])
        level_count.append(np.add.reduceat(level_count[-1], box_start))
        level_keys.append(keys)
    for levels in (level_keys, level_start, level_count):
        levels.reverse()
    child_start, child_end = [], []
    for lvl in range(len(level_keys) - 1):
        child_parent = level_keys[lvl + 1] >> np.uint64(2)
        child_start.append(np.searchsorted(child_parent, level_keys[lvl], side="left"))
        child_end.append(np.searchsorted(child_parent, level_keys[lvl], side="right"))
    point_leaf = np.empty(len(coords), dtype=np.int64)
    point_leaf[order] = np.repeat(np.arange(len(level_count[-1])), level_count[-1])
    return SimpleNamespace(
        order=order, cell_origin=origin, leaf_bits=bits, level_keys=level_keys,
        level_start=level_start, level_count=level_count, child_start=child_start,
        child_end=child_end, point_leaf=point_leaf,
    )
