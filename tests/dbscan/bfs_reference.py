"""Textbook DBSCAN — the oracle ``dbscan_reference`` is held to.

``dbscan_bfs`` is the literal Ester et al. (1996) formulation: pick an
unvisited point, expand its Eps-neighborhood breadth-first.
Unambiguously correct, O(n · query), so it is ground truth only at small
n; ``test_reference.py`` checks the vectorised ``dbscan_reference``
against it.  It is not a test module, and nothing under ``src/`` imports
it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.dbscan import DBSCANResult, GridIndex
from repro.dbscan.reference import _validate
from repro.points import NOISE, PointSet


def dbscan_bfs(points: PointSet, eps: float, minpts: int) -> DBSCANResult:
    """Textbook DBSCAN (Ester et al. 1996), breadth-first expansion.

    The Eps-neighborhood includes the query point itself, so a point is
    core when ``len(neighbors) >= minpts`` with itself counted — the
    convention every module in this package shares.
    """
    _validate(eps, minpts)
    n = len(points)
    index = GridIndex(points, eps)
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    next_cluster = 0
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        neigh = index.neighbors_of(seed)
        if len(neigh) < minpts:
            continue  # stays noise unless some cluster later claims it
        cluster = next_cluster
        next_cluster += 1
        core_mask[seed] = True
        labels[seed] = cluster
        queue = deque(int(j) for j in neigh if j != seed)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border or about-to-expand core
            if visited[j]:
                continue
            visited[j] = True
            jn = index.neighbors_of(j)
            if len(jn) >= minpts:
                core_mask[j] = True
                labels[j] = cluster
                for k in jn:
                    k = int(k)
                    if labels[k] == NOISE or not visited[k]:
                        if labels[k] == NOISE:
                            labels[k] = cluster
                        if not visited[k]:
                            queue.append(k)
    return DBSCANResult(labels=labels, core_mask=core_mask)
