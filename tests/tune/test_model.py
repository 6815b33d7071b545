"""Cost-model calibration: least-squares fits, prior fallback, crossover."""

from __future__ import annotations

from repro.tune import PlannerCostModel, RunProfile, calibrate
from repro.tune.model import PRIOR_CLUSTER_RATE, PRIOR_PARTITION


def _synthetic_profiles(*, rate=4e-5, part=(0.01, 2e-6)) -> list[RunProfile]:
    """Local-run history manufactured from exact linear phase laws."""
    out = []
    for n in (10_000, 40_000, 100_000, 250_000):
        out.append(
            RunProfile(
                n_points=n,
                transport="local",
                n_leaves=8,
                partition_seconds=part[0] + part[1] * n,
                cluster_seconds=2e-3 * 8 + rate * n,
                merge_seconds=1e-3 + 3e-3 * 8,
                sweep_seconds=1e-3 + 3e-7 * n,
                max_leaf_points=n // 8,
                median_leaf_points=n / 8,
            )
        )
    return out


def test_calibration_recovers_linear_coefficients():
    model = calibrate(_synthetic_profiles())
    assert model.calibrated["partition"]
    assert model.calibrated["cluster_rate"]
    assert model.calibrated["sweep"]
    a, b = model.partition
    assert abs(a - 0.01) < 1e-6 and abs(b - 2e-6) < 1e-9
    assert abs(model.cluster_rate - 4e-5) < 1e-9
    # merge rows all share n_leaves=8 (zero spread) -> prior fallback.
    assert not model.calibrated["merge"]


def test_empty_history_falls_back_to_priors():
    model = calibrate([])
    assert model.history_rows == 0
    assert model.partition == PRIOR_PARTITION
    assert model.cluster_rate == PRIOR_CLUSTER_RATE
    assert not any(model.calibrated.values())


def test_single_row_is_not_enough_to_fit():
    model = calibrate(_synthetic_profiles()[:1])
    assert not model.calibrated["partition"]
    assert model.partition == PRIOR_PARTITION


def test_predict_total_is_sum_of_phases():
    model = PlannerCostModel(cpu_count=4)
    walls = model.predict(
        n_points=100_000, n_leaves=8, transport="shm", workers=4
    )
    total = (
        walls.partition + walls.cluster + walls.merge + walls.sweep + walls.overhead
    )
    assert walls.total == total
    assert walls.overhead > 0  # pools pay spawn + dispatch
    local = model.predict(n_points=100_000, n_leaves=8, transport="local")
    assert local.overhead == 0.0


def test_effective_workers_clamped_to_cpu_count():
    model = PlannerCostModel(cpu_count=2)
    assert model.effective_workers("local", 16) == 1
    assert model.effective_workers("shm", 16) == 2
    assert model.effective_workers("shm", None) == 2
    assert model.effective_workers("process", 1) == 1


def test_break_even_never_on_single_core():
    """With one CPU a pool can't out-compute local; only overhead remains."""
    model = PlannerCostModel(cpu_count=1)
    assert model.break_even_points(transport="shm") is None
    assert model.break_even_points(transport="local") == 0


def test_break_even_exists_with_many_cores():
    model = PlannerCostModel(cpu_count=16)
    be = model.break_even_points(transport="shm", workers=16)
    assert be is not None
    # Below the crossover local must win, at/above it the pool must win.
    below = model.predict(n_points=be // 2, n_leaves=8, transport="shm", workers=16)
    local_below = model.predict(n_points=be // 2, n_leaves=8, transport="local")
    assert local_below.total <= below.total


def test_transport_overhead_calibrates_from_residuals():
    profiles = _synthetic_profiles()
    # One shm row that ran 3s slower than its compute should: the lump
    # must land in the calibrated spawn coefficient.
    base = profiles[0]
    slow = RunProfile(
        n_points=base.n_points,
        transport="shm",
        transport_workers=1,
        n_leaves=8,
        partition_seconds=base.partition_seconds,
        cluster_seconds=base.cluster_seconds + 3.0,
        merge_seconds=base.merge_seconds,
        sweep_seconds=base.sweep_seconds,
        max_leaf_points=base.max_leaf_points,
        dispatch_bytes=1_000_000,
    )
    model = calibrate(profiles + [slow])
    assert model.calibrated["transport.shm"]
    spawn, _, _ = model.transport["shm"]
    assert 1.0 < spawn < 4.0
