"""Unit tests for the PointSet container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FormatError
from repro.points import NOISE, PointSet


def test_from_coords_sequential_ids():
    ps = PointSet.from_coords(np.zeros((5, 2)))
    assert list(ps.ids) == [0, 1, 2, 3, 4]
    assert np.all(ps.weights == 1.0)


def test_from_coords_id_offset():
    ps = PointSet.from_coords(np.zeros((3, 2)), id_offset=100)
    assert list(ps.ids) == [100, 101, 102]


def test_len_and_bool():
    assert len(PointSet.empty()) == 0
    assert not PointSet.empty()
    ps = PointSet.from_coords([[1.0, 2.0]])
    assert len(ps) == 1
    assert ps


def test_shape_validation_rejects_bad_coords():
    with pytest.raises(FormatError):
        PointSet(ids=np.arange(3), coords=np.zeros((3, 3)))


def test_mismatched_ids_rejected():
    with pytest.raises(FormatError):
        PointSet(ids=np.arange(2), coords=np.zeros((3, 2)))


def test_mismatched_weights_rejected():
    with pytest.raises(FormatError):
        PointSet(ids=np.arange(3), coords=np.zeros((3, 2)), weights=np.ones(2))


def test_take_boolean_mask():
    ps = PointSet.from_coords([[0, 0], [1, 1], [2, 2]])
    sub = ps.take(np.array([True, False, True]))
    assert list(sub.ids) == [0, 2]
    assert sub.coords[1, 0] == 2.0


def test_take_positional():
    ps = PointSet.from_coords([[0, 0], [1, 1], [2, 2]])
    sub = ps.take(np.array([2, 0]))
    assert list(sub.ids) == [2, 0]


@pytest.mark.parametrize(
    "index",
    [
        np.array([7, 0, 3, 3, -1]),  # repeats and a negative index
        np.arange(10)[::-1],
        np.empty(0, dtype=np.int64),
        np.array([True, False] * 5),
        np.zeros(10, dtype=bool),
    ],
    ids=["index", "reversed", "empty", "mask", "empty-mask"],
)
def test_take_equals_fancy_indexing(index):
    """``take`` gathers with ``np.take`` (a mask goes through
    ``np.flatnonzero``); the columns must be fancy indexing's, byte for
    byte."""
    rng = np.random.default_rng(0)
    ps = PointSet(ids=rng.permutation(10) + 5, coords=rng.random((10, 2)), weights=rng.random(10))
    sub = ps.take(index)
    for name in ("ids", "coords", "weights"):
        got, want = getattr(sub, name), getattr(ps, name)[index]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_take_rejects_a_mask_of_another_length():
    ps = PointSet.from_coords(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        ps.take(np.array([True, False]))


def test_concat_preserves_columns():
    a = PointSet.from_coords([[0, 0]], id_offset=0)
    b = PointSet.from_coords([[1, 1]], id_offset=10)
    c = a.concat(b)
    assert list(c.ids) == [0, 10]
    assert c.coords.shape == (2, 2)


def test_concat_preserves_weights():
    """The generator-metadata column must survive concatenation —
    rebuilding via ``from_coords`` on raw coords silently resets it."""
    a = PointSet(
        ids=np.array([0, 1]),
        coords=np.zeros((2, 2)),
        weights=np.array([2.5, 0.5]),
    )
    b = PointSet(
        ids=np.array([2]), coords=np.ones((1, 2)), weights=np.array([7.0])
    )
    c = a.concat(b)
    assert list(c.weights) == [2.5, 0.5, 7.0]
    assert list(c.ids) == [0, 1, 2]


def test_concat_of_generators_keeps_metadata():
    """Concatenating generator outputs (the ``blobs_with_noise`` fixture
    shape) keeps ids unique and carries per-point weights through."""
    from repro.data import gaussian_blobs, generate_sdss

    blobs = gaussian_blobs(50, seed=1)
    sdss = generate_sdss(30, seed=2, id_offset=50)  # log-normal weights
    both = blobs.concat(sdss)
    assert len(both) == 80
    both.validate_unique_ids()
    assert np.array_equal(both.weights[:50], blobs.weights)
    assert np.array_equal(both.weights[50:], sdss.weights)
    assert not np.allclose(both.weights[50:], 1.0)  # metadata, not filler


def test_concat_with_empty():
    ps = PointSet.from_coords([[1, 2], [3, 4]])
    assert len(PointSet.empty().concat(ps)) == 2
    assert len(ps.concat(PointSet.empty())) == 2


def test_bounds():
    ps = PointSet.from_coords([[0, -1], [2, 5], [-3, 1]])
    assert ps.bounds() == (-3.0, -1.0, 2.0, 5.0)


def test_bounds_empty_raises():
    with pytest.raises(FormatError):
        PointSet.empty().bounds()


def test_nbytes_matches_columns():
    ps = PointSet.from_coords(np.zeros((7, 2)))
    assert ps.nbytes() == 7 * (8 + 16 + 8)


def test_validate_unique_ids():
    ps = PointSet(ids=np.array([1, 1]), coords=np.zeros((2, 2)))
    with pytest.raises(FormatError):
        ps.validate_unique_ids()
    PointSet.from_coords(np.zeros((4, 2))).validate_unique_ids()


@pytest.mark.parametrize(
    "ids, unique",
    [
        (np.arange(1000), True),  # sorted: the linear fast path
        (np.arange(1000)[::-1], True),  # unique but not increasing: fallback
        (np.random.default_rng(0).permutation(1000), True),
        (np.array([0, 1, 2, 2, 3]), False),  # sorted with an adjacent repeat
        (np.array([5, 3, 9, 3]), False),  # repeat only the fallback can see
        (np.array([7]), True),
        (np.empty(0, dtype=np.int64), True),
    ],
)
def test_validate_unique_ids_sorted_shuffled_duplicated(ids, unique):
    ps = PointSet(ids=ids, coords=np.zeros((len(ids), 2)))
    if unique:
        ps.validate_unique_ids()
    else:
        with pytest.raises(FormatError, match="not unique"):
            ps.validate_unique_ids()


def test_noise_constant_is_negative():
    assert NOISE == -1


def test_validate_finite_rejects_nan():
    ps = PointSet.from_coords([[0.0, np.nan]])
    with pytest.raises(FormatError, match="non-finite"):
        ps.validate_finite()


def test_validate_finite_rejects_inf_weight():
    ps = PointSet.from_coords([[0.0, 0.0]])
    ps.weights[0] = np.inf
    with pytest.raises(FormatError, match="weights"):
        ps.validate_finite()


def test_validate_finite_passes_clean_data():
    PointSet.from_coords([[1.0, -2.0]]).validate_finite()


def test_pipeline_rejects_nan_coordinates():
    from repro.core.pipeline import mrscan

    coords = np.zeros((10, 2))
    coords[3, 0] = np.nan
    ps = PointSet.from_coords(coords)
    with pytest.raises(FormatError, match="non-finite"):
        mrscan(ps, 1.0, 2, n_leaves=2)


def test_xs_ys_are_views():
    ps = PointSet.from_coords([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ps.xs, [1.0, 3.0])
    assert np.array_equal(ps.ys, [2.0, 4.0])
    ps.xs[0] = 9.0
    assert ps.coords[0, 0] == 9.0


@given(
    n=st.integers(min_value=1, max_value=50),
    offset=st.integers(min_value=0, max_value=10**6),
)
def test_property_sequential_ids_unique(n: int, offset: int):
    ps = PointSet.from_coords(np.zeros((n, 2)), id_offset=offset)
    ps.validate_unique_ids()
    assert ps.ids[0] == offset
    assert ps.ids[-1] == offset + n - 1


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40))
def test_property_bounds_contain_all_points(pts):
    ps = PointSet.from_coords(np.array(pts))
    xmin, ymin, xmax, ymax = ps.bounds()
    assert np.all(ps.xs >= xmin) and np.all(ps.xs <= xmax)
    assert np.all(ps.ys >= ymin) and np.all(ps.ys <= ymax)
