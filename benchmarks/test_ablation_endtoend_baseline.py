"""Ablation: the whole pipeline with CUDA-DClust leaves vs Mr. Scan leaves.

The paper's GPU contribution (§3.2.2–3.2.3) in system context: identical
clustering, but the baseline pays per-iteration host↔GPU synchronisation
and gets no dense-box elimination.  The baseline leaves are swapped in
in-process (``cuda_dclust_leaves``), so its runs pin ``transport="local"``.
"""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust_leaves

from repro.core.pipeline import mrscan
from repro.data import gaussian_blobs, uniform_noise
from repro.dbscan.labels import clustering_signature
from repro.points import PointSet


@pytest.fixture(scope="module")
def dataset():
    blobs = gaussian_blobs(4000, centers=4, spread=0.25, seed=61)
    noise = uniform_noise(400, seed=62)
    return PointSet.from_coords(np.concatenate([blobs.coords, noise.coords]))


@pytest.mark.benchmark(group="ablation-endtoend")
def test_pipeline_mrscan_leaves(benchmark, dataset, emit):
    ours = benchmark.pedantic(
        mrscan, args=(dataset, 0.25, 8), kwargs={"n_leaves": 4}, rounds=3, iterations=1
    )
    with cuda_dclust_leaves():
        base = mrscan(dataset, 0.25, 8, n_leaves=4, transport="local")
    assert clustering_signature(base.labels) == clustering_signature(ours.labels)

    ours_rt = max(s.sync_round_trips for s in ours.gpu_stats)
    base_rt = max(s.sync_round_trips for s in base.gpu_stats)
    emit(
        "ablation_endtoend_baseline",
        "\n".join(
            [
                f"End-to-end leaf-algorithm ablation ({len(dataset):,} points, 4 leaves):",
                f"  Mr. Scan leaves   : {ours_rt} host<->GPU round trips/leaf, "
                f"{ours.total_densebox_eliminated:,} points dense-box eliminated, "
                f"cluster phase {ours.timings.cluster:.2f}s",
                f"  CUDA-DClust leaves: {base_rt} round trips/leaf, no elimination, "
                f"cluster phase {base.timings.cluster:.2f}s",
                "  identical clusterings (asserted)",
            ]
        ),
    )
    assert base_rt > 10 * ours_rt


@pytest.mark.benchmark(group="ablation-endtoend")
def test_pipeline_cuda_dclust_leaves(benchmark, dataset):
    with cuda_dclust_leaves():
        base = benchmark.pedantic(
            mrscan,
            args=(dataset, 0.25, 8),
            kwargs={"n_leaves": 4, "transport": "local"},
            rounds=1,
            iterations=1,
        )
    assert base.n_clusters >= 2  # blob centers are random; some may touch
