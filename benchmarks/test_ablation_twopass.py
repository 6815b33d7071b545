"""Ablation: Mr. Scan's two-pass GPU algorithm vs the CUDA-DClust baseline.

§3.2.2's claim: CUDA-DClust performs 2 x points/blocks synchronous
host<->GPU copies, while Mr. Scan's restructured algorithm does exactly
one round trip each way regardless of point count.  We measure both on
the simulated device and compare transfer counts and wall time.
"""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust

from repro.data import gaussian_blobs, uniform_noise
from repro.dbscan.labels import core_sets_equal
from repro.gpu import SimulatedDevice, mrscan_gpu
from repro.gpu.device import DeviceConfig
from repro.points import PointSet


@pytest.fixture(scope="module")
def dataset():
    blobs = gaussian_blobs(2_500, centers=4, spread=0.3, seed=3)
    noise = uniform_noise(300, seed=4)
    return PointSet.from_coords(np.concatenate([blobs.coords, noise.coords]))


@pytest.mark.benchmark(group="ablation-twopass")
def test_mrscan_two_pass(benchmark, dataset, emit):
    ours = benchmark.pedantic(
        mrscan_gpu, args=(dataset, 0.25, 8), rounds=3, iterations=1
    )

    dev = SimulatedDevice(DeviceConfig(n_blocks=64))
    labels, core, base_stats = cuda_dclust(dataset, 0.25, 8, device=dev)

    emit(
        "ablation_twopass",
        "\n".join(
            [
                f"Two-pass ablation ({len(dataset):,} points, 64 blocks):",
                f"  CUDA-DClust : {base_stats.sync_round_trips} sync round trips "
                f"({base_stats.n_iterations} iterations, "
                f"{base_stats.n_collisions} collisions)",
                f"  Mr. Scan    : {ours.stats.sync_round_trips} sync round trips "
                f"({ours.stats.kernel_launches} bulk launches)",
                "  paper: 2 x (points/blocks) copies reduced to a single round trip",
            ]
        ),
    )

    # The §3.2.2 claim, literally.
    assert ours.stats.sync_round_trips == 2
    assert base_stats.sync_round_trips == 2 * base_stats.n_iterations + 2
    assert base_stats.sync_round_trips > 10 * ours.stats.sync_round_trips

    # And both compute the same clusters.
    assert np.array_equal(core, ours.core_mask)
    assert core_sets_equal(labels, ours.labels, core, ours.core_mask)


@pytest.mark.benchmark(group="ablation-twopass")
def test_cuda_dclust_baseline(benchmark, dataset):
    def run():
        dev = SimulatedDevice(DeviceConfig(n_blocks=64))
        return cuda_dclust(dataset, 0.25, 8, device=dev)

    labels, core, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.n_iterations > 1
