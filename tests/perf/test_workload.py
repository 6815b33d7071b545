"""Tests for workload scaling and the per-cell GPU work law."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_twitter
from repro.errors import SimulationError
from repro.gpu import mrscan_gpu
from repro.perf.workload import (
    DENSEBOX_FULL_FACTOR,
    ScaledWorkload,
    cell_gpu_work,
    leaf_gpu_work,
)
from repro.points import PointSet


@pytest.fixture(scope="module")
def sample():
    return generate_twitter(40_000, seed=5)


def test_scaling_preserves_total(sample):
    wl = ScaledWorkload.from_sample(sample, 0.1, 1_000_000)
    assert wl.n_points == 1_000_000
    assert wl.histogram.total_points == 1_000_000


def test_scaling_preserves_shares(sample):
    from repro.partition.grid import GridHistogram

    base = GridHistogram.from_points(sample, 0.1)
    wl = ScaledWorkload.from_sample(sample, 0.1, 4_000_000)
    top_base = int(base.counts.max()) / base.total_points
    top_scaled = wl.max_cell_count() / wl.n_points
    assert top_scaled == pytest.approx(top_base, rel=0.05)


def test_scaling_down_also_works(sample):
    wl = ScaledWorkload.from_sample(sample, 0.1, 5_000)
    assert wl.n_points == 5_000


def test_scaling_rejects_bad_input(sample):
    with pytest.raises(SimulationError):
        ScaledWorkload.from_sample(PointSet.empty(), 0.1, 100)
    with pytest.raises(SimulationError):
        ScaledWorkload.from_sample(sample, 0.1, 0)


def test_cell_work_zero_count():
    assert cell_gpu_work(0, 0, 5) == (0.0, 0.0, 0.0)


def test_cell_work_dense_cell_fully_eliminated():
    minpts = 10
    p1, p2, elim = cell_gpu_work(
        minpts * DENSEBOX_FULL_FACTOR * 2, 10_000, minpts
    )
    assert elim == minpts * DENSEBOX_FULL_FACTOR * 2
    assert p1 == 0.0 and p2 == 0.0


def test_cell_work_sparse_cell_untouched():
    p1, p2, elim = cell_gpu_work(5, 50, 10)
    assert elim == 0.0
    assert p1 > 0


def test_cell_work_densebox_off():
    p1_on, _, elim_on = cell_gpu_work(1000, 5000, 10, use_densebox=True)
    p1_off, _, elim_off = cell_gpu_work(1000, 5000, 10, use_densebox=False)
    assert elim_on > elim_off == 0.0
    assert p1_off > p1_on


def test_cell_work_minpts_monotone_pass1():
    """Higher MinPts scans more candidates before terminating (for cells
    outside the dense-box window)."""
    ops = [cell_gpu_work(30, 3000, m, use_densebox=False)[0] for m in (4, 40, 400)]
    assert ops[0] < ops[1] < ops[2]


def test_leaf_work_matches_real_run_within_factor(sample):
    """The analytic law must track the simulated device's real operation
    counts within a small constant factor (it feeds the figures)."""
    eps, minpts = 0.1, 40
    wl = ScaledWorkload.from_sample(sample, eps, len(sample))
    plan = wl.partition(1, minpts)
    predicted = leaf_gpu_work(wl, plan, minpts)[0]
    real = mrscan_gpu(sample, eps, minpts).stats
    ratio = predicted.distance_ops / max(real.total_distance_ops, 1)
    assert 0.2 < ratio < 5.0, f"work law off by {ratio:.2f}x"


def test_leaf_work_elimination_tracks_real_run(sample):
    eps, minpts = 0.1, 4
    wl = ScaledWorkload.from_sample(sample, eps, len(sample))
    plan = wl.partition(1, minpts)
    predicted = leaf_gpu_work(wl, plan, minpts)[0]
    real = mrscan_gpu(sample, eps, minpts).stats
    pred_frac = predicted.eliminated / len(sample)
    real_frac = real.eliminated_fraction
    assert abs(pred_frac - real_frac) < 0.25


def test_leaf_work_sums_to_total(sample):
    wl = ScaledWorkload.from_sample(sample, 0.1, 2_000_000)
    plan = wl.partition(8, 40)
    work = leaf_gpu_work(wl, plan, 40)
    own_total = sum(p.point_count for p in plan.partitions)
    # leaf n_points include shadows, so the sum exceeds the input total
    assert sum(w.n_points for w in work) >= own_total
    assert len(work) == 8


def test_shadow_fraction_positive(sample):
    wl = ScaledWorkload.from_sample(sample, 0.1, 2_000_000)
    plan = wl.partition(16, 40)
    frac = wl.shadow_fraction(plan)
    assert 0.0 < frac < 3.0


def test_stencil_counts_geometry():
    coords = np.array([[0.05, 0.05], [0.15, 0.05], [5.0, 5.0]])
    wl = ScaledWorkload.from_sample(PointSet.from_coords(coords), 0.1, 3)
    st = dict(zip(map(tuple, wl.histogram.cells.tolist()), wl.stencil_counts().tolist()))
    assert st[(0, 0)] == 2  # self + adjacent cell
    assert st[(1, 0)] == 2
    assert st[(50, 50)] == 1
