"""Stable orderings of integer keys as one plain sort of packed keys.

numpy's stable ``argsort`` is a radix/merge sort several times slower than
``np.sort`` of the same number of int64 values.  When a key and a row index
fit one int64 together, ``(key << index_bits) | index`` is unique, sorts by
key and then by index, and its low bits *are* the stable permutation — so
every per-point sort on the leaf path is one ``np.sort``.  Wider keys fall
back to the stable ``argsort``/``lexsort`` they replace, with the same
result.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["stable_order", "packed_key", "lex_order"]

#: Bits a packed key may use: 62 keeps every shift and product clear of the
#: int64 sign bit.
_PACK_BITS = 62


def stable_order(keys: np.ndarray, key_bits: int) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns, as int64.

    ``keys`` are non-negative integers below ``2**key_bits``.
    """
    n = len(keys)
    index_bits = max(n - 1, 0).bit_length()
    if key_bits + index_bits > _PACK_BITS:
        return np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    packed = np.asarray(keys).astype(np.int64)
    packed <<= index_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << index_bits) - 1
    return packed


def packed_key(columns) -> tuple[np.ndarray, int] | None:
    """One int64 key per row, ascending in the lexicographic order of
    ``columns`` (integer arrays of one length, the first most significant),
    and its bit width; ``None`` when the columns' bounding box has 2⁶² cells
    or more.  Each column is offset by its minimum, so only the ranges
    count."""
    columns = [np.asarray(c).astype(np.int64, copy=False) for c in columns]
    if not len(columns[0]):
        return np.empty(0, dtype=np.int64), 0
    lo = [int(c.min()) for c in columns]
    size = [int(c.max()) - low + 1 for c, low in zip(columns, lo)]
    bits = (math.prod(size) - 1).bit_length()
    if bits > _PACK_BITS:
        return None
    key = columns[0] - lo[0]
    for column, low, n in zip(columns[1:], lo[1:], size[1:]):
        key *= n
        key += column - low
    return key, bits


def lex_order(*columns: np.ndarray) -> np.ndarray:
    """The stable order of rows sorted by ``columns[0]``, then
    ``columns[1]``, ...: ``np.lexsort(columns[::-1])``, through one packed
    sort whenever the key ranges allow."""
    packed = packed_key(columns)
    if packed is None:
        return np.lexsort(columns[::-1])
    return stable_order(*packed)
