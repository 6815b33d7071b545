"""Tests for the distributed partitioner (§3.1.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_twitter, uniform_noise
from repro.errors import PartitionError
from repro.partition import DistributedPartitioner, form_partitions, partition_points
from repro.partition.grid import GridHistogram
from repro.points import PointSet


def test_rejects_zero_nodes():
    with pytest.raises(PartitionError):
        DistributedPartitioner(0.1, 4, 0)


def test_matches_serial_partitioning():
    """Distributing the partitioner must not change the plan."""
    ps = generate_twitter(5000, seed=0)
    serial_hist = GridHistogram.from_points(ps, 0.1)
    serial_plan = form_partitions(serial_hist, 8, 4)
    dp = DistributedPartitioner(0.1, 4, 4)
    result = dp.run(ps, 8)
    assert [p.cells for p in result.plan.partitions] == [
        p.cells for p in serial_plan.partitions
    ]


def test_partitions_equal_global_materialisation():
    ps = generate_twitter(4000, seed=1)
    dp = DistributedPartitioner(0.1, 4, 3)
    result = dp.run(ps, 6)
    direct = partition_points(ps, result.plan)
    for (own_a, shadow_a), (own_b, shadow_b) in zip(result.partitions, direct):
        assert set(own_a.ids.tolist()) == set(own_b.ids.tolist())
        assert set(shadow_a.ids.tolist()) == set(shadow_b.ids.tolist())


def test_io_trace_records_reads_and_small_writes():
    ps = generate_twitter(4000, seed=2)
    dp = DistributedPartitioner(0.1, 4, 4)
    result = dp.run(ps, 8)
    reads = [op for op in result.io_trace.ops if op.kind == "read"]
    writes = [op for op in result.io_trace.ops if op.kind == "write"]
    assert len(reads) == 4  # one slice per partitioner leaf
    assert all(op.sequential for op in reads)
    # each leaf contributes small random writes to most partitions
    random_writes = [op for op in writes if not op.sequential]
    assert len(random_writes) > 8
    assert sum(op.nbytes for op in reads) == 4000 * 32


def test_network_traces_recorded():
    ps = generate_twitter(3000, seed=3)
    dp = DistributedPartitioner(0.1, 4, 4)
    result = dp.run(ps, 4)
    assert result.reduce_trace.n_packets == 4  # four leaves -> root
    assert result.multicast_trace.n_packets == 4
    assert result.reduce_trace.total_bytes > 0


def test_materialises_partition_file(tmp_path):
    ps = generate_twitter(2000, seed=4)
    dp = DistributedPartitioner(0.1, 4, 2)
    result = dp.run(ps, 4, workdir=tmp_path)
    assert result.file_set is not None
    own, shadow = result.file_set.read_partition(0)
    want_own, want_shadow = result.partitions[0]
    assert np.array_equal(own.ids, want_own.ids)
    assert np.array_equal(shadow.ids, want_shadow.ids)


def test_more_nodes_than_points_clamps():
    ps = PointSet.from_coords([[0.05, 0.05], [5.0, 5.0]])
    dp = DistributedPartitioner(1.0, 1, 50)
    result = dp.run(ps, 2)
    assert result.n_partition_nodes == 2


def test_rebalance_flag_propagates():
    ps = generate_twitter(5000, seed=5)
    reb = DistributedPartitioner(0.1, 4, 2).run(ps, 8)
    raw = DistributedPartitioner(0.1, 4, 2, rebalance=False).run(ps, 8)
    assert raw.plan.size_imbalance() >= reb.plan.size_imbalance() - 1e-9
