"""Tests for kernel cost-accounting primitives."""

from __future__ import annotations

import numpy as np

from repro.dbscan import GridIndex
from repro.data import uniform_noise
from repro.gpu import SimulatedDevice
from repro.gpu.kernels import bulk_launches, candidate_counts, charge_pass, expected_scan_ops
from repro.points import PointSet


def test_candidate_counts_match_stencil():
    # 4 points in one cell, 2 in an adjacent cell, 1 far away
    coords = np.array(
        [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [1.1, 0.1], [1.2, 0.2], [10, 10]]
    )
    gi = GridIndex(PointSet.from_coords(coords), 1.0)
    c = candidate_counts(gi)
    assert list(c[:4]) == [6, 6, 6, 6]  # own cell 4 + neighbor cell 2
    assert list(c[4:6]) == [6, 6]
    assert c[6] == 1


def test_candidate_counts_total_equals_pairwise_work():
    ps = uniform_noise(300, box=(0, 0, 5, 5), seed=0)
    gi = GridIndex(ps, 1.0)
    c = candidate_counts(gi)
    # Sum of candidates == total distance evaluations of a full scan; must
    # be at least n (self) and at most n^2.
    assert len(ps) <= c.sum() <= len(ps) ** 2


def test_expected_scan_ops_cap_behaviour():
    cand = np.array([100.0, 100.0, 400.0, 3.0])
    is_core = np.array([False, True, True, True])
    ops = expected_scan_ops(cand, is_core, minpts=10)
    assert ops[0] == 100.0  # non-core: full scan
    # Core: c * minpts / (pi/9 * c + 1), the disk share of the stencil
    # standing in for the neighbor count a saturating pass 1 never learns.
    assert ops[1] == 100.0 * 10 / (np.pi / 9.0 * 100.0 + 1.0) < 100.0
    assert ops[2] / 400.0 < ops[1] / 100.0  # denser stencil terminates sooner
    assert ops[3] == 3.0  # the cap never exceeds the candidates there are


def test_expected_scan_ops_never_exceed_full_scan():
    rng = np.random.default_rng(0)
    cand = rng.integers(1, 1000, 50).astype(float)
    is_core = rng.random(50) < 0.5
    ops = expected_scan_ops(cand, is_core, minpts=40)
    assert np.all(ops <= cand + 1e-9)
    assert np.all(ops >= 0)
    np.testing.assert_array_equal(ops[~is_core], cand[~is_core])


def test_bulk_launches():
    assert bulk_launches(0, 1024) == 0
    assert bulk_launches(1, 1024) == 1
    assert bulk_launches(1024, 1024) == 1
    assert bulk_launches(1025, 1024) == 2


def test_charge_pass_accounting():
    dev = SimulatedDevice()
    charge_pass(dev, n_seeds=5000, distance_ops=12345)
    assert dev.stats.distance_ops == 12345
    assert dev.stats.kernel_launches == bulk_launches(5000, dev.config.n_blocks)
    assert dev.stats.sync_points == 0  # bulk launches are asynchronous


def test_charge_pass_zero_seeds():
    dev = SimulatedDevice()
    charge_pass(dev, n_seeds=0, distance_ops=0)
    assert dev.stats.kernel_launches == 0
