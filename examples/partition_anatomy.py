#!/usr/bin/env python
"""Anatomy of the partitioner (§3.1.2, Fig 2).

Reproduces the mechanics of Fig 2 on synthetic tweets: forming partitions
in column-major cell order, the last-partition pile-up (the populous
Eastern US), shadow-region attachment, and the 1.075x rebalancing pass —
with before/after balance statistics and an ASCII map of the boundaries.

    python examples/partition_anatomy.py
"""

from __future__ import annotations

import numpy as np

from repro.data import generate_twitter
from repro.partition import form_partitions
from repro.partition.grid import GridHistogram

EPS = 0.1
N_PARTITIONS = 12
MINPTS = 40


def ascii_map(plan, histogram, width=76, height=24) -> str:
    """Coarse ASCII rendering of which partition owns each region."""
    (xmin, ymin), (xmax, ymax) = histogram.cells.min(axis=0), histogram.cells.max(axis=0)
    owner = plan.cell_owner()
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
    grid = [[" "] * width for _ in range(height)]
    for (cx, cy), pid in owner.items():
        col = int((cx - xmin) / max(xmax - xmin, 1) * (width - 1))
        row = int((cy - ymin) / max(ymax - ymin, 1) * (height - 1))
        grid[height - 1 - row][col] = glyphs[pid % len(glyphs)]
    return "\n".join("".join(row) for row in grid)


def stats(plan) -> str:
    sizes = [p.total_count for p in plan.nonempty()]
    return (
        f"partitions={len(sizes)} min={min(sizes):,} max={max(sizes):,} "
        f"mean={np.mean(sizes):,.0f} imbalance={plan.size_imbalance():.2f}"
    )


def main() -> None:
    tweets = generate_twitter(80_000, seed=1)
    hist = GridHistogram.from_points(tweets, EPS)
    print(
        f"{len(tweets):,} tweets -> {hist.n_cells:,} non-empty "
        f"{EPS}x{EPS} grid cells (the only state the partitioner needs)"
    )

    raw = form_partitions(hist, N_PARTITIONS, MINPTS, rebalance=False)
    print("\n--- after forming (no rebalance): the last partition piles up")
    print(stats(raw))
    last = raw.nonempty()[-1]
    print(
        f"last partition: {last.point_count:,} points over {last.n_cells} cells "
        f"(+{last.shadow_count:,} shadow points in {len(last.shadow_cells)} cells)"
    )

    reb = form_partitions(hist, N_PARTITIONS, MINPTS, rebalance=True)
    print("\n--- after rebalancing (threshold = 1.075 x final target)")
    print(stats(reb))
    print(f"final target size: {reb.final_target_size:,.0f} points")

    print("\npartition map (each glyph = one partition):")
    print(ascii_map(reb, hist))

    # Shadow-region sanity: every partition's shadow cells are grid
    # neighbors of its own cells, never its own.
    for spec in reb.nonempty():
        own = spec.cell_set()
        assert not (spec.shadow_cells & own)
    total_shadow = sum(p.shadow_count for p in reb.nonempty())
    print(
        f"\nshadow duplication: {total_shadow:,} shadow points "
        f"({100 * total_shadow / len(tweets):.1f}% of the input) — the price "
        "of complete Eps-neighborhoods on every leaf (§3.1.1)"
    )


if __name__ == "__main__":
    main()
