"""Scikit-learn-style estimator facade.

:class:`MrScanClusterer` mirrors ``sklearn.cluster.DBSCAN``'s interface
(``eps`` / ``min_samples`` / ``fit`` / ``fit_predict`` / trailing-
underscore attributes) so existing DBSCAN call sites can switch to the
distributed pipeline by changing one import.  No scikit-learn dependency
— just the same conventions.
"""

from __future__ import annotations

import numpy as np

from .core.pipeline import mrscan
from .core.result import MrScanResult
from .errors import ConfigError
from .points import PointSet

__all__ = ["MrScanClusterer"]


class MrScanClusterer:
    """DBSCAN-compatible estimator running the Mr. Scan pipeline.

    Parameters
    ----------
    eps, min_samples:
        The DBSCAN parameters (sklearn naming; ``min_samples`` counts the
        point itself, matching both sklearn and this package).
    n_leaves:
        Simulated GPGPU leaves for the clustering tree.
    **pipeline_kwargs:
        Forwarded to :class:`repro.core.MrScanConfig` (``fanout``,
        ``use_densebox``, ``partition_output``, ...).

    Attributes (after ``fit``)
    --------------------------
    ``labels_`` — cluster per sample (-1 noise); ``core_sample_indices_``
    — indices of core samples; ``components_`` — core sample coordinates;
    ``n_clusters_`` — cluster count; ``result_`` — the full
    :class:`MrScanResult`.
    """

    def __init__(
        self,
        eps: float = 0.5,
        min_samples: int = 5,
        *,
        n_leaves: int = 4,
        **pipeline_kwargs,
    ) -> None:
        self.eps = eps
        self.min_samples = min_samples
        self.n_leaves = n_leaves
        self.pipeline_kwargs = pipeline_kwargs
        self.labels_: np.ndarray | None = None
        self.core_sample_indices_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.n_clusters_: int | None = None
        self.result_: MrScanResult | None = None

    def fit(self, X: np.ndarray) -> "MrScanClusterer":
        """Cluster ``X`` (array-like of shape ``(n_samples, 2)``)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ConfigError(
                f"the distributed pipeline is 2-D; got shape {X.shape} "
                "(examples/dbscan_nd.py clusters other dimensions)"
            )
        points = PointSet.from_coords(X)
        result = mrscan(
            points,
            self.eps,
            self.min_samples,
            n_leaves=self.n_leaves,
            **self.pipeline_kwargs,
        )
        self.result_ = result
        self.labels_ = result.labels
        self.core_sample_indices_ = np.flatnonzero(result.core_mask)
        self.components_ = X[result.core_mask]
        self.n_clusters_ = result.n_clusters
        return self

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """``fit(X)`` and return ``labels_``."""
        return self.fit(X).labels_

    def get_params(self) -> dict:
        """sklearn-style parameter introspection."""
        return {
            "eps": self.eps,
            "min_samples": self.min_samples,
            "n_leaves": self.n_leaves,
            **self.pipeline_kwargs,
        }
