"""The everything-at-once integration test: deep tree + process transport
+ network partition output + dense box, against exact DBSCAN."""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust_leaves

from repro.core import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.data import generate_twitter
from repro.dbscan import dbscan_reference
from repro.dbscan.labels import clustering_signature, core_sets_equal
from repro.mrnet import LocalTransport
from repro.points import NOISE
from repro.runtime import ShmTransport


@pytest.fixture(scope="module")
def dataset():
    return generate_twitter(8000, seed=99)


@pytest.fixture(scope="module")
def reference(dataset):
    return dbscan_reference(dataset, 0.1, 10)


def _config(**over):
    base = dict(
        eps=0.1,
        minpts=10,
        n_leaves=27,
        fanout=3,  # a 4-level tree: root, 3, 9, 27 leaves
        partition_output="network",
        n_partition_nodes=5,
    )
    base.update(over)
    return MrScanConfig(**base)


def test_deep_tree_network_output_matches_reference(dataset, reference):
    res = run_pipeline(dataset, _config())
    assert res.n_clusters == reference.n_clusters
    assert np.array_equal(res.core_mask, reference.core_mask)
    diffs = np.count_nonzero((res.labels == NOISE) != (reference.labels == NOISE))
    assert diffs <= 0.005 * len(dataset)


def test_process_transport_identical_to_local(dataset):
    """The spawn-pool transport reproduces the in-process run."""
    local = run_pipeline(dataset, _config(), transport=LocalTransport())
    with ShmTransport(n_workers=2) as t:
        proc = run_pipeline(dataset, _config(), transport=t)
    assert np.array_equal(local.labels, proc.labels)
    assert np.array_equal(local.core_mask, proc.core_mask)


def test_all_knobs_consistent(dataset):
    """Flip every quality-neutral knob; the clustering must not move."""
    baseline = run_pipeline(dataset, _config())
    variants = [
        _config(partition_output="lustre"),
        _config(fanout=256),
        _config(n_partition_nodes=1),
    ]
    base_sig = clustering_signature(baseline.labels)
    for cfg in variants:
        res = run_pipeline(dataset, cfg)
        assert clustering_signature(res.labels) == base_sig, cfg
        assert np.array_equal(res.core_mask, baseline.core_mask)

    # The CUDA-DClust baseline assigns borders by first claim rather than
    # nearest core — DBSCAN's documented order freedom — so only cores and
    # noise must agree exactly.  Its leaves are swapped in in-process.
    with cuda_dclust_leaves():
        base_leaf = run_pipeline(
            dataset, _config(n_leaves=9, fanout=3, transport="local")
        )
    assert core_sets_equal(
        base_leaf.labels, baseline.labels, base_leaf.core_mask, baseline.core_mask
    )
    assert np.array_equal(base_leaf.labels == NOISE, baseline.labels == NOISE)
