"""Micro-benchmarks for the substrate data structures.

Perf-regression guards for the hot paths every phase relies on: grid-index
construction and neighbor counting, region-KD-tree build and radius
queries, histogram reduction, union-find at scale, and per-leaf summary
construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from cuda_dclust_reference import RegionKDTree

from repro.dbscan import DisjointSet, GridIndex, dbscan_reference
from repro.merge.summary import summarize_leaf
from repro.partition.grid import GridHistogram


@pytest.mark.benchmark(group="micro")
def test_grid_index_build(benchmark, twitter_60k):
    index = benchmark(GridIndex, twitter_60k, 0.1)
    assert index.n_cells > 100


@pytest.mark.benchmark(group="micro")
def test_grid_index_count_neighbors(benchmark, twitter_30k):
    index = GridIndex(twitter_30k, 0.1)
    counts = benchmark(index.count_neighbors)
    assert counts.sum() >= len(twitter_30k)


@pytest.mark.benchmark(group="micro")
def test_kdtree_build(benchmark, twitter_60k):
    tree = benchmark(RegionKDTree, twitter_60k, leaf_size=64)
    assert len(tree.leaves()) > 100


@pytest.mark.benchmark(group="micro")
def test_kdtree_radius_queries(benchmark, twitter_30k):
    tree = RegionKDTree(twitter_30k, leaf_size=64)
    coords = twitter_30k.coords[:200]

    def run():
        return sum(len(tree.query_radius(c, 0.1)) for c in coords)

    total = benchmark(run)
    assert total >= 200


@pytest.mark.benchmark(group="micro")
def test_histogram_build_and_merge(benchmark, twitter_60k):
    def run():
        a = GridHistogram.from_points(twitter_60k.take(np.arange(30_000)), 0.1)
        b = GridHistogram.from_points(
            twitter_60k.take(np.arange(30_000, 60_000)), 0.1
        )
        return a.merge(b)

    merged = benchmark(run)
    assert merged.total_points == 60_000


@pytest.mark.benchmark(group="micro")
def test_union_find_throughput(benchmark):
    n = 200_000
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, n, size=(n, 2))

    def run():
        ds = DisjointSet(n)
        for a, b in pairs:
            ds.union(int(a), int(b))
        return ds.n_components

    comps = benchmark.pedantic(run, rounds=3, iterations=1)
    assert 1 <= comps < n


@pytest.mark.benchmark(group="micro")
def test_leaf_summary_build(benchmark, twitter_30k):
    res = dbscan_reference(twitter_30k, 0.1, 10)
    cells = {
        (int(cx), int(cy))
        for cx, cy in np.floor(twitter_30k.coords / 0.1).astype(np.int64)
    }
    summary = benchmark.pedantic(
        summarize_leaf,
        args=(0, twitter_30k, res.labels, res.core_mask, 0.1, cells),
        rounds=3,
        iterations=1,
    )
    assert summary.n_clusters == res.n_clusters
