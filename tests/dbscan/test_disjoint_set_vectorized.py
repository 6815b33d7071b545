"""Vectorized union-find vs the sequential DisjointSet oracle.

The csr engine unions whole edge batches with min-root hooking + pointer
jumping (``union_edges``); labels are byte-identical to the block engine
only if the streaming batched form always lands on the same components
— and the same first-appearance numbering — as the element-at-a-time
``DisjointSet``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dbscan.disjoint_set import (
    DisjointSet,
    first_appearance_labels,
    union_edges,
    vectorized_components,
    vectorized_union,
)


def _random_edges(rng: np.random.Generator, n: int, m: int):
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m)


def _oracle_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ds = DisjointSet(n)
    ds.union_pairs(a, b)
    return ds.component_labels()


@pytest.mark.parametrize("trial", range(10))
def test_components_match_sequential(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(1, 400))
    m = int(rng.integers(0, 3 * n))
    a, b = _random_edges(rng, n, m)
    np.testing.assert_array_equal(
        vectorized_components(n, a, b), _oracle_labels(n, a, b)
    )


def test_roots_are_component_minimum():
    rng = np.random.default_rng(5)
    n = 200
    a, b = _random_edges(rng, n, 300)
    roots, rounds = vectorized_union(n, a, b)
    assert rounds >= 1
    # Fully compressed and each root is its component's minimum element.
    np.testing.assert_array_equal(roots[roots], roots)
    ds = DisjointSet(n)
    ds.union_pairs(a, b)
    seq_roots = ds.roots()
    for root in np.unique(seq_roots):
        members = np.flatnonzero(seq_roots == root)
        assert np.all(roots[members] == members.min())


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_streaming_batches_equal_one_shot(batch_size):
    """Feeding edges in any batch granularity converges to the same roots."""
    rng = np.random.default_rng(9)
    n = 250
    a, b = _random_edges(rng, n, 500)
    one_shot, _ = vectorized_union(n, a, b)
    parent = np.arange(n, dtype=np.int64)
    for s in range(0, len(a), batch_size):
        parent, _ = union_edges(parent, a[s : s + batch_size], b[s : s + batch_size])
        # Entry invariant for the next batch: fully compressed.
        np.testing.assert_array_equal(parent[parent], parent)
    np.testing.assert_array_equal(parent, one_shot)


def test_pathological_chains():
    """A long path unions in O(log n) rounds, not O(n)."""
    n = 1024
    a = np.arange(n - 1)
    b = np.arange(1, n)
    roots, rounds = vectorized_union(n, a, b)
    assert np.all(roots == 0)
    assert rounds <= 12  # log2(1024) + slack; a sequential hook would be ~n


def test_self_loops_and_duplicates_are_noops():
    n = 50
    a = np.array([3, 3, 7, 7, 7, 10])
    b = np.array([3, 3, 8, 8, 8, 10])
    roots, _ = vectorized_union(n, a, b)
    expect = np.arange(n)
    expect[8] = 7
    np.testing.assert_array_equal(roots, expect)


def test_empty_inputs():
    roots, rounds = vectorized_union(0, np.empty(0, int), np.empty(0, int))
    assert len(roots) == 0 and rounds == 0
    roots, rounds = vectorized_union(5, np.empty(0, int), np.empty(0, int))
    np.testing.assert_array_equal(roots, np.arange(5))
    assert rounds == 0
    np.testing.assert_array_equal(
        vectorized_components(4, np.empty(0, int), np.empty(0, int)), np.arange(4)
    )
    assert len(first_appearance_labels(np.empty(0))) == 0


def test_mismatched_edge_arrays_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        union_edges(np.arange(4), np.array([0, 1]), np.array([2]))
    with pytest.raises(ValueError, match="non-negative"):
        vectorized_union(-1, np.empty(0, int), np.empty(0, int))


def test_first_appearance_numbering():
    vals = np.array([42, 7, 42, 9, 7, 7])
    np.testing.assert_array_equal(
        first_appearance_labels(vals), [0, 1, 0, 2, 1, 1]
    )
    # Matches DisjointSet.component_labels numbering on the same structure.
    rng = np.random.default_rng(2)
    n = 120
    a, b = _random_edges(rng, n, 180)
    roots, _ = vectorized_union(n, a, b)
    np.testing.assert_array_equal(
        first_appearance_labels(roots), _oracle_labels(n, a, b)
    )


def _unique_first_appearance(values: np.ndarray) -> np.ndarray:
    """The ``np.unique`` body ``first_appearance_labels`` had before it
    became one packed-key sort."""
    _, first_idx, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(len(first_idx), dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(len(first_idx), dtype=np.int64)
    return rank[inverse]


@given(
    values=st.lists(st.integers(0, 40), min_size=1, max_size=200),
    scale=st.sampled_from([1, 7, 2**40, -3, 2**56]),
)
def test_first_appearance_labels_match_the_unique_oracle(values, scale):
    """Roots below the length (the engine's case), sparse and negative
    values, and ranges too wide to pack; the bounded table path on the
    small non-negative draws."""
    values = np.array(values, dtype=np.int64) * scale
    want = _unique_first_appearance(values)
    np.testing.assert_array_equal(first_appearance_labels(values), want)
    if scale in (1, 7):  # small non-negative: the table path too
        np.testing.assert_array_equal(
            first_appearance_labels(values, bound=int(values.max()) + 1), want
        )
