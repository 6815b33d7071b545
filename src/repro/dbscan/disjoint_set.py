"""Array-backed disjoint-set (union-find) with path compression.

Used wherever clusters must be merged transitively: collision resolution in
the simulated-GPU algorithms (block chains that touch are the same cluster,
§3.2.1), the per-leaf expansion pass, and the tree merge — the same role
the distributed disjoint-set plays in PDSDBSCAN, the strongest prior work
the paper compares against (§2.2).
"""

from __future__ import annotations

import numpy as np

from ..sorting import packed_key, stable_order

__all__ = [
    "DisjointSet",
    "union_edges",
    "vectorized_union",
    "vectorized_components",
    "first_appearance_labels",
]


class DisjointSet:
    """Union-find over the integers ``0..n-1``.

    Union by rank plus iterative path compression (no recursion, safe for
    millions of elements).  ``find`` is amortised near-O(1).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)
        self._n_components = n

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def n_components(self) -> int:
        """Current number of disjoint sets."""
        return self._n_components

    def find(self, i: int) -> int:
        """Root of ``i``'s set, compressing the path walked."""
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        # Second pass: point every node on the path at the root.
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return int(root)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self._n_components -= 1
        return int(ra)

    def union_pairs(self, pairs_a: np.ndarray, pairs_b: np.ndarray) -> None:
        """Union many ``(a, b)`` pairs (bulk form used by the kernels)."""
        for a, b in zip(np.asarray(pairs_a, dtype=np.int64), np.asarray(pairs_b, dtype=np.int64)):
            self.union(int(a), int(b))

    def connected(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def roots(self) -> np.ndarray:
        """Root of every element (fully compressed), as an array.

        After this call ``parent[i]`` is the root for every ``i``.
        """
        parent = self.parent
        # Repeated halving until fixpoint: each step replaces parent with
        # grandparent, which converges in O(log n) vectorised passes.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        self.parent = parent
        return parent.copy()

    def component_labels(self) -> np.ndarray:
        """Dense labels ``0..k-1``, numbered by first appearance of a root."""
        roots = self.roots()
        _, labels = np.unique(roots, return_inverse=True)
        # np.unique numbers by root value; renumber by first appearance so
        # labels are stable under element order.
        first_pos = {}
        remap = np.empty(labels.max() + 1 if len(labels) else 0, dtype=np.int64)
        next_id = 0
        for lab in labels:
            if lab not in first_pos:
                first_pos[lab] = next_id
                next_id += 1
        for lab, new in first_pos.items():
            remap[lab] = new
        return remap[labels] if len(labels) else labels


def union_edges(
    parent: np.ndarray, edges_a: np.ndarray, edges_b: np.ndarray
) -> tuple[np.ndarray, int]:
    """Merge one batch of edges into a flattened parent array, in-place style.

    ``parent`` must be fully compressed on entry (``parent[parent] ==
    parent``), as produced by a previous call or ``np.arange``.  Returns
    the new fully-compressed parent array and the number of hook+jump
    rounds the batch needed.  Streaming callers feed edge batches one at
    a time and never materialise the whole edge set.
    """
    a = np.asarray(edges_a, dtype=np.int64)
    b = np.asarray(edges_b, dtype=np.int64)
    if len(a) != len(b):
        raise ValueError("edge endpoint arrays differ in length")
    rounds = 0
    while len(a):
        ra, rb = parent[a], parent[b]
        live = ra != rb
        a, b = a[live], b[live]
        if not len(a):
            break
        ra, rb = ra[live], rb[live]
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        # Hook: each high root adopts the smallest low root that claims it
        # this round.  lo < hi everywhere, so no cycles can form.
        np.minimum.at(parent, hi, lo)
        # Pointer jumping to a full compress: roots only ever decrease, so
        # the fixpoint is the per-component minimum.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        rounds += 1
    return parent, rounds


def vectorized_union(n: int, edges_a: np.ndarray, edges_b: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of ``0..n-1`` after unioning all edges, in whole-array passes.

    The data-parallel union-find of Wang/Gu/Shun (*Theoretically-Efficient
    and Practical Parallel DBSCAN*): every round hooks each live edge's
    higher root onto its lower root (min wins on write collisions via
    ``np.minimum.at``), then compresses with pointer jumping
    (``parent = parent[parent]``) until flat.  Hooking strictly decreases
    the root of every touched tree, so the pointer graph stays acyclic and
    the loop terminates in O(log n) rounds.

    Returns ``(roots, rounds)`` where ``roots[i]`` is the minimum element
    of ``i``'s component — the vectorised counterpart of running
    :class:`DisjointSet` over the same edges.  ``rounds`` is the number of
    hook+jump iterations, which the simulated device charges as kernel
    launches.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return union_edges(np.arange(n, dtype=np.int64), edges_a, edges_b)


def first_appearance_labels(values: np.ndarray, bound: int | None = None) -> np.ndarray:
    """Dense labels ``0..k-1`` numbered by each integer value's first
    appearance.

    With ``bound``, the values are known to lie in ``0..bound-1`` (union-find
    roots, say): each one's first position is one ``minimum.at`` into a
    table of that length, and nothing is sorted but the distinct values.
    Without it, any integers: a stable sort of the values.
    """
    values = np.asarray(values)
    n = len(values)
    if not n:
        return np.empty(0, dtype=np.int64)
    if bound is not None:
        first = np.full(bound, n)
        np.minimum.at(first, values, np.arange(n))
        present = np.flatnonzero(first < n)
        rank = np.empty(bound, dtype=np.int64)
        rank[present[np.argsort(first[present])]] = np.arange(len(present))
        return rank[values]
    packed = packed_key([values])
    order = stable_order(values, 64) if packed is None else stable_order(*packed)
    # Runs of equal values in stable order: each run's head is the value's
    # first appearance, and heads numbered in position order are the labels.
    ranked = values[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    first = order[new]
    head = np.zeros(n, dtype=bool)
    head[first] = True
    labels = np.empty(n, dtype=np.int64)
    labels[order] = (np.cumsum(head) - 1)[first][np.cumsum(new) - 1]
    return labels


def vectorized_components(n: int, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Dense component labels ``0..k-1`` numbered by first appearance.

    Matches ``DisjointSet.component_labels()`` run over the same edges:
    element 0's component gets label 0, the next element in a new
    component gets 1, and so on — the numbering every engine's final
    relabel pass relies on.
    """
    roots, _ = vectorized_union(n, edges_a, edges_b)
    return first_appearance_labels(roots, bound=n)
