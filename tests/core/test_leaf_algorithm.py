"""The pipeline end to end with CUDA-DClust leaves (the §3.2.1 baseline).

The baseline is no pipeline option: ``cuda_dclust_leaves()`` swaps it in
for ``mrscan_gpu``, in-process, so every baseline run pins
``transport="local"``.
"""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust_leaves

from repro.core import MrScanConfig
from repro.core.pipeline import mrscan
from repro.data import gaussian_blobs, uniform_noise
from repro.dbscan.labels import clustering_signature
from repro.points import NOISE, PointSet


@pytest.fixture(scope="module")
def dataset():
    blobs = gaussian_blobs(1200, centers=3, spread=0.3, seed=41)
    noise = uniform_noise(150, seed=42)
    return PointSet.from_coords(np.concatenate([blobs.coords, noise.coords]))


@pytest.fixture(scope="module")
def base(dataset):
    with cuda_dclust_leaves():
        return mrscan(dataset, 0.25, 8, n_leaves=4, transport="local")


def test_config_rejects_unknown_algorithm():
    """There is no leaf-algorithm knob to set."""
    with pytest.raises(TypeError):
        MrScanConfig(eps=1, minpts=1, n_leaves=1, leaf_algorithm="cuda-dclust")


def test_baseline_same_clustering(dataset, base):
    ours = mrscan(dataset, 0.25, 8, n_leaves=4)
    assert [s.engine for s in base.gpu_stats] == ["cuda-dclust"] * 4
    assert base.n_clusters == ours.n_clusters
    assert clustering_signature(base.labels) == clustering_signature(ours.labels)
    assert np.array_equal(base.labels == NOISE, ours.labels == NOISE)


def test_baseline_pays_more_round_trips(dataset, base):
    ours = mrscan(dataset, 0.25, 8, n_leaves=4)
    ours_rt = max(s.sync_round_trips for s in ours.gpu_stats)
    base_rt = max(s.sync_round_trips for s in base.gpu_stats)
    assert ours_rt == 2
    assert base_rt > ours_rt


def test_baseline_no_densebox_elimination(base):
    assert base.total_densebox_eliminated == 0


def test_baseline_works_with_model_run(base):
    from repro.perf import model_run

    m = model_run(base)
    assert m.gpu > 0
