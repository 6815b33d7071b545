"""Packed-key orderings equal the stable numpy sorts they replace.

``stable_order`` packs ``(key << index_bits) | index`` into one int64 and
sorts it plainly; past 62 bits it falls back to ``argsort(kind="stable")``.
Both sides of that cut-over must give the very same permutation, since
every per-point sort on the leaf path (tree builds, class grouping, the
summary's row order, first-appearance labels) goes through it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, strategies as st

from repro.sorting import lex_order, packed_key, stable_order


def _index_bits(n: int) -> int:
    return max(n - 1, 0).bit_length()


@st.composite
def _keys(draw):
    n = draw(st.integers(0, 300))
    key_bits = draw(st.integers(0, 64 - _index_bits(n)))
    # Narrow value pools make long runs of equal keys, which is where a
    # non-stable sort would show.
    pool = draw(st.lists(st.integers(0, 2**key_bits - 1), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=np.uint64), key_bits


@given(case=_keys())
@example(case=(np.empty(0, dtype=np.uint64), 0))
@example(case=(np.array([7], dtype=np.uint64), 3))
@example(case=(np.full(50, 5, dtype=np.uint64), 3))  # all equal
@example(case=(np.array([2**56 - 1, 0, 2**56 - 1, 1] * 16, dtype=np.uint64), 56))  # largest that packs
@example(case=(np.array([2**57 - 1, 0, 2**57 - 1, 1] * 16, dtype=np.uint64), 57))  # one bit too wide
def test_stable_order_is_the_stable_argsort(case):
    keys, key_bits = case
    got = stable_order(keys, key_bits)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))


def test_the_examples_sit_either_side_of_the_cut_over():
    n = 64
    assert 56 + _index_bits(n) == 62 and 57 + _index_bits(n) == 63


_column = st.integers(-(2**12), 2**12)


@given(
    rows=st.lists(st.tuples(_column, st.integers(-3, 3), st.booleans(), _column), max_size=60),
    wide=st.booleans(),
)
def test_lex_order_is_lexsort(rows, wide):
    """Like the summary's ``(label, cx, cy, is_claim, point)`` sort: signed
    columns, a boolean one, repeated rows."""
    rows = rows + rows[: len(rows) // 3]
    cols = [np.array([r[k] for r in rows], dtype=bool if k == 2 else np.int64) for k in range(4)]
    if wide:  # spread rows' bounding box past 2^62 cells: the lexsort path
        cols[0] = cols[0] * 2**40
    np.testing.assert_array_equal(lex_order(*cols), np.lexsort(cols[::-1]))


def test_packed_key_is_lexicographic_and_knows_its_width():
    a = np.array([3, -1, 3, 0])
    b = np.array([0, 9, -2, 9])
    key, bits = packed_key([a, b])
    assert bits == (5 * 12 - 1).bit_length()
    np.testing.assert_array_equal(np.argsort(key, kind="stable"), np.lexsort((b, a)))
    assert packed_key([np.array([0, 2**31]), np.array([0, 2**31])]) is None
