"""Cross-module integration tests: files in, files out, mixed workloads."""

from __future__ import annotations

import numpy as np
import pytest
from fuzz_cases import assert_exact_dbscan

from repro.core import MrScanConfig
from repro.core.pipeline import mrscan, run_pipeline
from repro.data import (
    gaussian_blobs,
    generate_sdss,
    generate_twitter,
    ring_cluster,
    two_moons,
    uniform_noise,
)
from repro.dbscan import dbscan_reference
from repro.dbscan.labels import clustering_signature
from repro.io.formats import read_points_binary, write_points_binary
from repro.io.partition_files import PartitionFileSet
from repro.points import NOISE, PointSet
from repro.quality import dbdc_quality_score


def test_file_roundtrip_end_to_end(tmp_path):
    """Binary file -> pipeline (with materialised partition file) -> labels."""
    points = generate_twitter(4000, seed=13)
    input_path = tmp_path / "input.bin"
    write_points_binary(input_path, points)

    loaded = read_points_binary(input_path)
    assert np.array_equal(loaded.ids, points.ids)

    cfg = MrScanConfig(
        eps=0.1, minpts=8, n_leaves=4, materialize_dir=str(tmp_path / "work")
    )
    result = run_pipeline(loaded, cfg)

    # The partition file on disk must contain every point exactly once
    # across partition (non-shadow) sections.
    fs = PartitionFileSet(tmp_path / "work" / "partitions.bin")
    all_ids = []
    for pid in range(len(fs)):
        own, shadow = fs.read_partition(pid)
        all_ids.append(own.ids)
    all_ids = np.concatenate(all_ids)
    assert len(np.unique(all_ids)) == len(points)

    ref = dbscan_reference(points, 0.1, 8)
    assert dbdc_quality_score(ref.labels, result.labels).score >= 0.995


def test_mixed_shapes_across_boundaries():
    """Rings, moons, blobs and noise spanning many partitions."""
    ring = ring_cluster(800, center=(5.0, 5.0), radius=3.0, thickness=0.08, seed=1)
    moons = two_moons(600, noise=0.05, seed=2)
    moons = PointSet.from_coords(moons.coords * 2.0 + np.array([14.0, 4.0]))
    blob = gaussian_blobs(400, centers=np.array([[5.0, 12.0]]), spread=0.3, seed=3)
    noise = uniform_noise(200, box=(-2, -2, 20, 16), seed=4)
    points = PointSet.from_coords(
        np.concatenate([ring.coords, moons.coords, blob.coords, noise.coords])
    )
    eps, minpts = 0.35, 5
    ref = dbscan_reference(points, eps, minpts)
    res = mrscan(points, eps, minpts, n_leaves=9)
    assert res.n_clusters == ref.n_clusters >= 4  # ring + 2 moons + blob
    assert_exact_dbscan(points, eps, minpts, res.labels, res.core_mask)
    assert clustering_signature(res.labels) == clustering_signature(ref.labels)


def test_two_datasets_same_pipeline():
    """Twitter and SDSS parameters differ by three orders of magnitude in
    eps; the same pipeline must handle both back to back."""
    tw = generate_twitter(3000, seed=21)
    sd = generate_sdss(3000, seed=22)
    res_tw = mrscan(tw, 0.1, 10, n_leaves=4)
    res_sd = mrscan(sd, 0.00015, 5, n_leaves=4)
    assert res_tw.n_clusters > 0
    assert res_sd.n_clusters > 100  # many micro-objects


def test_cluster_weights_aggregation():
    blob_a = gaussian_blobs(100, centers=np.array([[0.0, 0.0]]), spread=0.05, seed=5)
    blob_b = gaussian_blobs(100, centers=np.array([[10.0, 10.0]]), spread=0.05, seed=6)
    points = PointSet.from_coords(np.concatenate([blob_a.coords, blob_b.coords]))
    points.weights[:100] = 2.0
    points.weights[100:] = 0.5
    res = mrscan(points, 0.5, 5, n_leaves=2)
    assert res.n_clusters == 2
    weights = res.cluster_weights(points.weights)
    assert sorted(weights.values()) == [pytest.approx(50.0), pytest.approx(200.0)]


def test_cluster_weights_rejects_mismatch():
    points = gaussian_blobs(50, centers=1, spread=0.05, seed=7)
    res = mrscan(points, 0.5, 5, n_leaves=1)
    with pytest.raises(ValueError):
        res.cluster_weights(np.ones(3))


def test_single_leaf_degenerate_tree():
    points = gaussian_blobs(500, centers=2, spread=0.2, seed=8)
    res = mrscan(points, 0.5, 5, n_leaves=1, n_partition_nodes=1)
    ref = dbscan_reference(points, 0.5, 5)
    assert res.n_clusters == ref.n_clusters
    assert np.array_equal(res.labels == NOISE, ref.labels == NOISE)


def test_huge_eps_single_cluster():
    points = uniform_noise(300, box=(0, 0, 1, 1), seed=9)
    res = mrscan(points, 5.0, 3, n_leaves=3)
    assert res.n_clusters == 1
    assert res.n_noise == 0


def test_tiny_eps_all_noise():
    points = uniform_noise(300, box=(0, 0, 100, 100), seed=10)
    res = mrscan(points, 1e-6, 2, n_leaves=3)
    assert res.n_clusters == 0
    assert res.n_noise == 300
