"""Tests for the sklearn-style estimator facade and the global core mask."""

from __future__ import annotations

import numpy as np
import pytest
from fuzz_cases import assert_exact_dbscan

import repro
from repro.dbscan import dbscan_reference
from repro.errors import ConfigError
from repro.estimator import MrScanClusterer


def _blob_data(seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(scale=0.2, size=(200, 2)),
            rng.normal(loc=5.0, scale=0.2, size=(200, 2)),
            rng.uniform(-2, 7, size=(40, 2)),
        ]
    )


def test_fit_predict_matches_reference():
    X = _blob_data()
    est = MrScanClusterer(eps=0.4, min_samples=5, n_leaves=4)
    labels = est.fit_predict(X)
    ref = dbscan_reference(repro.PointSet.from_coords(X), 0.4, 5)
    assert est.n_clusters_ == ref.n_clusters == 2
    # Dense box is on by default: borders of box-only cores may stay noise.
    assert_exact_dbscan(repro.PointSet.from_coords(X), 0.4, 5, labels, est.result_.core_mask)


def test_core_sample_attributes_match_reference():
    X = _blob_data(1)
    est = MrScanClusterer(eps=0.4, min_samples=5).fit(X)
    ref = dbscan_reference(repro.PointSet.from_coords(X), 0.4, 5)
    assert np.array_equal(est.core_sample_indices_, np.flatnonzero(ref.core_mask))
    assert np.array_equal(est.components_, X[ref.core_mask])


def test_result_attribute_exposed():
    X = _blob_data(2)
    est = MrScanClusterer(eps=0.4, min_samples=5).fit(X)
    assert est.result_ is not None
    assert est.result_.n_points == len(X)
    assert np.array_equal(est.result_.labels, est.labels_)


def test_rejects_non_2d():
    with pytest.raises(ConfigError, match="2-D"):
        MrScanClusterer().fit(np.zeros((10, 3)))
    with pytest.raises(ConfigError):
        MrScanClusterer().fit(np.zeros(10))


def test_get_params_roundtrip():
    est = MrScanClusterer(eps=0.3, min_samples=7, n_leaves=2, fanout=4)
    params = est.get_params()
    est2 = MrScanClusterer(
        params.pop("eps"), params.pop("min_samples"),
        n_leaves=params.pop("n_leaves"), **params,
    )
    labels1 = est.fit_predict(_blob_data(3))
    labels2 = est2.fit_predict(_blob_data(3))
    assert np.array_equal(labels1, labels2)


def test_lazy_import_from_package():
    assert repro.MrScanClusterer is MrScanClusterer


def test_pipeline_core_mask_matches_reference(small_twitter):
    """The new global core mask is exact (owner classification)."""
    res = repro.mrscan(small_twitter, 0.1, 10, n_leaves=6)
    ref = dbscan_reference(small_twitter, 0.1, 10)
    assert np.array_equal(res.core_mask, ref.core_mask)
