"""End-to-end pipeline tests: Mr. Scan output vs exact DBSCAN."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from fuzz_cases import assert_exact_dbscan

from repro.core import MrScanConfig, mrscan, run_pipeline
from repro.data import gaussian_blobs, generate_sdss, generate_twitter, uniform_noise
from repro.dbscan import dbscan_reference
from repro.errors import ConfigError
from repro.points import NOISE, PointSet
from repro.runtime import ShmTransport


def test_blobs_multiple_leaf_counts(blobs_with_noise):
    for n_leaves in (1, 2, 5, 13):
        res = mrscan(blobs_with_noise, 0.25, 8, n_leaves=n_leaves)
        assert_exact_dbscan(blobs_with_noise, 0.25, 8, res.labels, res.core_mask)


def test_twitter_end_to_end(small_twitter):
    res = mrscan(small_twitter, 0.1, 10, n_leaves=8)
    assert_exact_dbscan(small_twitter, 0.1, 10, res.labels, res.core_mask)


def test_sdss_end_to_end(small_sdss):
    res = mrscan(small_sdss, 0.00015, 5, n_leaves=8)
    assert_exact_dbscan(small_sdss, 0.00015, 5, res.labels, res.core_mask)


def test_two_tree_sorts_per_leaf(small_twitter, monkeypatch):
    """A leaf sorts its points into two ``FlatTree``s: the eps/√2 box tree
    (dense boxes, core components) and the eps/8 counting tree, whose
    coarsened view is the Eps-cell tree the border pass walks; the
    summariser reuses that walk's claims and sorts nothing."""
    from repro.gpu.treeindex import FlatTree

    eps, built = 0.1, []
    init = FlatTree.__init__

    def counting_init(self, coords, cell, **kw):
        built.append(cell)
        init(self, coords, cell, **kw)

    monkeypatch.setattr(FlatTree, "__init__", counting_init)
    res = mrscan(small_twitter, eps, 10, n_leaves=5, transport="local")
    assert res.n_leaves == 5 and len(built) <= 2 * res.n_leaves
    assert eps not in built  # the Eps-cell tree is never sorted on its own


def test_one_noncore_walk_per_leaf(small_twitter, monkeypatch):
    """The border pass is the only walk of non-core rows × core columns:
    one ``iter_class_pairs`` sweep per leaf, labelling the borders and
    carrying the claims ``summarize_leaf`` needs, at the batch size the
    leaf allocated — a device too small for the default scratch shrinks
    the claims' batches too."""
    import repro.gpu.kernels as kernels_mod
    from repro.gpu.device import DeviceConfig, SimulatedDevice

    walks, scratch = [], []
    sweep, alloc = kernels_mod.iter_class_pairs, SimulatedDevice.alloc

    def counting_sweep(tree, row_mask, col_mask, *, batch_pairs=kernels_mod.DEFAULT_BATCH_PAIRS):
        walks.append(batch_pairs)
        return sweep(tree, row_mask, col_mask, batch_pairs=batch_pairs)

    def recording_alloc(self, name, nbytes):
        if name == "csr":
            scratch.append(nbytes // 16)
        return alloc(self, name, nbytes)

    monkeypatch.setattr(kernels_mod, "iter_class_pairs", counting_sweep)
    monkeypatch.setattr(SimulatedDevice, "alloc", recording_alloc)
    res = mrscan(small_twitter, 0.1, 10, n_leaves=5, transport="local")
    assert res.n_leaves == 5 and len(walks) == 5

    walks.clear()
    scratch.clear()
    tiny = DeviceConfig(memory_bytes=2_000_000)
    mrscan(small_twitter, 0.1, 10, n_leaves=5, transport="local", device=tiny)
    assert len(walks) == 5 and walks == scratch
    assert max(walks) < kernels_mod.DEFAULT_BATCH_PAIRS


def test_no_kdtree_on_the_leaf_path():
    """The CUDA-DClust baseline and its ``RegionKDTree`` live beside the
    tests (``cuda_dclust_reference``); no module of the package names them."""
    import repro

    modules = sorted(Path(repro.__file__).parent.rglob("*.py"))
    assert len(modules) > 50
    hits = [
        (p.name, token)
        for p in modules
        for token in ("kdtree", "cuda_dclust")
        if token in p.read_text(encoding="utf-8").lower()
    ]
    assert hits == []


def test_empty_input_rejected():
    with pytest.raises(ConfigError):
        mrscan(PointSet.empty(), 1.0, 5)


def test_densebox_off_matches_reference(blobs_with_noise):
    res = mrscan(blobs_with_noise, 0.25, 8, n_leaves=4, use_densebox=False)
    ref = dbscan_reference(blobs_with_noise, 0.25, 8)
    assert np.array_equal(res.labels == NOISE, ref.labels == NOISE)
    assert res.n_clusters == ref.n_clusters


def test_result_accounting(small_twitter):
    res = mrscan(small_twitter, 0.1, 10, n_leaves=6)
    assert res.n_points == len(small_twitter)
    assert res.n_leaves == 6
    assert len(res.gpu_stats) == 6
    assert len(res.leaf_point_counts) == 6
    assert res.timings.total > 0
    assert res.timings.cluster_merge_sweep > 0
    assert sum(res.cluster_sizes().values()) + res.n_noise == res.n_points
    assert res.partition_io.n_ops > 0
    assert res.output_io.total_bytes("write") > 0
    assert "merge_reduce" in res.network_traces
    assert res.slowest_leaf_ops > 0
    assert "clusters" in res.summary()


def test_labels_align_with_input_order():
    """Input point ids need not be 0..n-1; labels follow input order."""
    base = gaussian_blobs(400, centers=2, spread=0.2, seed=0)
    ps = PointSet(
        ids=np.arange(1000, 1400, dtype=np.int64),
        coords=base.coords,
    )
    res = mrscan(ps, 0.5, 5, n_leaves=3)
    ref = dbscan_reference(base, 0.5, 5)
    assert res.n_clusters == ref.n_clusters
    assert np.array_equal(res.labels == NOISE, ref.labels == NOISE)


def test_deterministic_across_runs(small_twitter):
    a = mrscan(small_twitter, 0.1, 10, n_leaves=5)
    b = mrscan(small_twitter, 0.1, 10, n_leaves=5)
    assert np.array_equal(a.labels, b.labels)


def test_leaf_count_does_not_change_clusters(small_twitter):
    counts = {
        mrscan(small_twitter, 0.1, 40, n_leaves=k).n_clusters for k in (1, 3, 9)
    }
    assert len(counts) == 1


def test_run_pipeline_with_explicit_config(blobs_with_noise):
    cfg = MrScanConfig(
        eps=0.25,
        minpts=8,
        n_leaves=4,
        n_partition_nodes=2,
        fanout=2,  # forces a 3-level tree even at 4 leaves
        use_densebox=True,
    )
    res = run_pipeline(blobs_with_noise, cfg)
    assert_exact_dbscan(blobs_with_noise, 0.25, 8, res.labels, res.core_mask)
    assert res.n_partition_nodes == 2


def test_process_transport_end_to_end(blobs_with_noise):
    """The whole pipeline on the spawn-pool transport."""
    with ShmTransport(n_workers=2) as transport:
        res = mrscan(blobs_with_noise, 0.25, 8, n_leaves=4, transport=transport)
    assert_exact_dbscan(blobs_with_noise, 0.25, 8, res.labels, res.core_mask)


def test_materialize_dir_writes_partition_file(tmp_path, small_twitter):
    res = mrscan(
        small_twitter, 0.1, 10, n_leaves=4, materialize_dir=str(tmp_path)
    )
    assert (tmp_path / "partitions.bin").exists()
    assert res.n_clusters > 0


def test_config_validation():
    with pytest.raises(ConfigError):
        MrScanConfig(eps=0, minpts=1, n_leaves=1)
    with pytest.raises(ConfigError):
        MrScanConfig(eps=1, minpts=0, n_leaves=1)
    with pytest.raises(ConfigError):
        MrScanConfig(eps=1, minpts=1, n_leaves=0)
    with pytest.raises(ConfigError):
        MrScanConfig(eps=1, minpts=1, n_leaves=1, fanout=1)


def test_table1_partition_nodes():
    from repro.core.config import table1_partition_nodes

    assert table1_partition_nodes(2) == 2
    assert table1_partition_nodes(128) == 16
    assert table1_partition_nodes(8192) == 128
    assert table1_partition_nodes(1) == 1
    # interpolation stays monotone
    vals = [table1_partition_nodes(k) for k in (2, 8, 32, 64, 128, 512, 1000, 2048)]
    assert vals == sorted(vals)
