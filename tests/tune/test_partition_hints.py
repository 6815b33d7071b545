"""PartitionHints: validation, plan surgery, and DBSCAN equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.data import gaussian_blobs
from repro.durability.rundir import config_fingerprint
from repro.errors import ConfigError, PartitionError
from repro.partition import PartitionHints, form_partitions
from repro.partition.grid import GridHistogram
from repro.validate.equivalence import labels_equivalent


def test_hints_validate_and_round_trip():
    hints = PartitionHints.splitting({3: 2, 0: 4})
    assert hints.split == ((0, 4), (3, 2))  # canonical sorted order
    assert hints.split_map() == {0: 4, 3: 2}
    assert PartitionHints.from_dict(hints.as_dict()) == hints
    with pytest.raises(PartitionError):
        PartitionHints.splitting({-1: 2})
    with pytest.raises(PartitionError):
        PartitionHints.splitting({0: 1})  # k must be >= 2


def test_split_grows_partition_count_and_conserves_cells():
    points = gaussian_blobs(3000, centers=4, spread=0.3, seed=9)
    hist = GridHistogram.from_points(points, 0.15)
    base = form_partitions(hist, n_partitions=4, minpts=8)
    split = form_partitions(
        hist, n_partitions=4, minpts=8,
        hints=PartitionHints.splitting({0: 2}),
    )
    assert len(split.partitions) == len(base.partitions) + 1
    # Cell universe conserved: the split only re-draws ownership lines.
    def owned(plan):
        cells = []
        for spec in plan.partitions:
            cells.extend(spec.cells)
        return sorted(cells)
    assert owned(split) == owned(base)
    # Every split chunk still meets the minpts floor.
    for spec in split.partitions:
        assert sum(hist.count(c) for c in spec.cells) >= 8


def test_infeasible_split_degrades_gracefully():
    """A tiny partition that cannot yield two minpts-sized chunks is
    left intact rather than split below the density floor."""
    points = gaussian_blobs(60, centers=1, spread=0.05, seed=3)
    hist = GridHistogram.from_points(points, 0.3)
    base = form_partitions(hist, n_partitions=1, minpts=50)
    split = form_partitions(
        hist, n_partitions=1, minpts=50,
        hints=PartitionHints.splitting({0: 4}),
    )
    assert len(split.partitions) == len(base.partitions)


def test_hints_preserve_dbscan_equivalence():
    points = gaussian_blobs(2500, centers=4, spread=0.25, seed=21)
    eps, minpts = 0.15, 8
    ref = run_pipeline(points, MrScanConfig(eps=eps, minpts=minpts, n_leaves=4))
    hinted = run_pipeline(
        points,
        MrScanConfig(
            eps=eps, minpts=minpts, n_leaves=4,
            partition_hints=PartitionHints.splitting({0: 2, 2: 3}),
        ),
    )
    assert hinted.n_leaves > ref.n_leaves
    report = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, hinted.labels, hinted.core_mask
    )
    assert report.ok, report.failures


def test_hints_join_the_resume_fingerprint():
    base = MrScanConfig(eps=0.15, minpts=8, n_leaves=4)
    hinted = MrScanConfig(
        eps=0.15, minpts=8, n_leaves=4,
        partition_hints=PartitionHints.splitting({0: 2}),
    )
    assert config_fingerprint(base) != config_fingerprint(hinted)


def test_config_rejects_non_hints_object():
    with pytest.raises(ConfigError):
        MrScanConfig(
            eps=0.1, minpts=5, n_leaves=4, partition_hints={"split": {"0": 2}}
        )
