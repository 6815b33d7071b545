"""Adversarial numerics for the csr engine's pass 1.

Pass 1 decides core / non-core from cell geometry (bulk credit, far
prune) plus a centred-float32 distance test whose near-``eps`` band is
re-checked in float64.  Every one of those shortcuts must leave the core
mask *bit-equal* to the pure-float64 ``dx*dx + dy*dy <= eps*eps`` that
``GridIndex.count_neighbors`` (the ``block`` engine's pass 1) evaluates:
large coordinate offsets, span/eps on both sides of the 2^15 float32
cut-over, duplicate-heavy sets, pairs at exactly ``eps`` and one ulp
either side, and the counting grid's Morton-budget fallback divisors.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import numpy as np
import pytest

from repro.dbscan.grid_index import GridIndex
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.points import PointSet

# ``repro.gpu`` re-exports the function under the module's name.
_mod = importlib.import_module("repro.gpu.mrscan_gpu")


def _grid_counts(coords: np.ndarray, eps: float) -> np.ndarray:
    return GridIndex(PointSet.from_coords(coords), eps).count_neighbors()


def _counts(coords, eps, minpts, in_box, batch_pairs):
    """Pass-1 evidence on the counting tree the engine itself builds."""
    tree, _ = _mod._leaf_trees(coords, eps)
    return _mod._csr_counts(tree, coords, eps, minpts, in_box, batch_pairs)


def _assert_core_mask_exact(coords: np.ndarray, eps: float, minpts: int) -> np.ndarray:
    """csr core mask (densebox on and off) and the pass-1 evidence itself
    against the float64 grid counts; returns those counts."""
    coords = np.asarray(coords, dtype=np.float64)
    want = _grid_counts(coords, eps)
    points = PointSet.from_coords(coords)
    for use_densebox in (False, True):
        res = mrscan_gpu(points, eps, minpts, use_densebox=use_densebox)
        np.testing.assert_array_equal(res.core_mask, want >= minpts)
    no_box = np.zeros(len(coords), dtype=bool)
    for batch_pairs in (257, 4_194_304):
        got, _ = _counts(coords, eps, minpts, no_box, batch_pairs)
        low = want < minpts
        np.testing.assert_array_equal(got[low], want[low])  # exact below MinPts
        assert np.all(got[~low] >= minpts) and np.all(got <= want)  # a lower bound above
    return want


def _blobs(rng: np.random.Generator, n: int, k: int, extent: float, sigma: float):
    """Tight blobs (saturating rows) over a sparse uniform field (rows that
    never reach MinPts), so both kinds of evidence are exercised."""
    centres = rng.uniform(0.0, extent, size=(k, 2))
    blobs = centres[rng.integers(0, k, size=n)] + rng.normal(0.0, sigma, size=(n, 2))
    return np.vstack([blobs, rng.uniform(0.0, extent, size=(n // 4, 2))])


# ---------------------------------------------------------------------- #
# Large offsets: centring must absorb them
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("offset", [1e6, -3e7, 1e9])
@pytest.mark.parametrize("minpts", [3, 12])
def test_core_mask_exact_under_large_offsets(offset, minpts):
    rng = np.random.default_rng(int(abs(offset)) % 9973 + minpts)
    coords = _blobs(rng, 700, 6, 4.0, 0.08) + np.array([offset, -offset / 3.0])
    counts = _assert_core_mask_exact(coords, 0.125, minpts)
    assert (counts >= minpts).any() and (counts < minpts).any()


# ---------------------------------------------------------------------- #
# The float32 cut-over: span/eps just below and just above 2^15
# ---------------------------------------------------------------------- #


def _uses_float32(coords: np.ndarray, eps: float) -> bool:
    """The kernel's own rule, restated: band * 8 < eps^2."""
    span = float((coords.max(axis=0) - coords.min(axis=0)).max())
    return (eps * span + eps * eps) * 2.0**-18 * 8.0 < eps * eps


@pytest.mark.parametrize("ratio, want32", [(2**15 - 40, True), (2**15 + 40, False)])
def test_core_mask_exact_either_side_of_the_float32_cutover(ratio, want32):
    rng = np.random.default_rng(ratio)
    eps = 0.01
    # Two blob fields ``ratio * eps`` apart: the span sets the rounding
    # band, the blobs supply near-eps pairs at both ends of it.
    near = _blobs(rng, 400, 4, 0.3, 0.01)
    far = _blobs(rng, 400, 4, 0.3, 0.01) + np.array([ratio * eps, 0.0])
    coords = np.vstack([near, far])
    assert _uses_float32(coords, eps) is want32
    counts = _assert_core_mask_exact(coords, eps, 6)
    assert (counts >= 6).any() and (counts < 6).any()


# ---------------------------------------------------------------------- #
# Duplicates
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("minpts", [2, 5, 9])
def test_core_mask_exact_on_duplicate_heavy_sets(minpts):
    rng = np.random.default_rng(minpts)
    base = rng.uniform(0.0, 2.0, size=(60, 2))
    coords = base[rng.integers(0, len(base), size=500)]
    # Stacks of identical points saturate at a single location; exact
    # multiples of eps between stacks add ties on top.
    coords = np.vstack([coords, coords[:40] + np.array([0.25, 0.0])])
    _assert_core_mask_exact(coords, 0.25, minpts)


# ---------------------------------------------------------------------- #
# Exactly eps, and one ulp either side
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_lattice_at_exactly_eps(offset):
    """Spacing == eps (a power of two, so every coordinate is exact): an
    interior point has itself + 4 neighbours at *exactly* eps, so with
    MinPts 5 the core mask is the lattice interior iff ties count."""
    eps = 0.25
    side = 14
    gx, gy = np.meshgrid(np.arange(side) * eps, np.arange(side) * eps, indexing="ij")
    coords = np.column_stack([gx.ravel(), gy.ravel()]) + offset
    counts = _assert_core_mask_exact(coords, eps, 5)
    interior = np.zeros((side, side), dtype=bool)
    interior[1:-1, 1:-1] = True
    np.testing.assert_array_equal(counts >= 5, interior.ravel())


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.3])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_lattice_of_accumulated_steps(eps, offset):
    """Spacing ``eps`` by repeated addition: coordinates sit ulps off the
    counting grid's cell boundaries, so a neighbour at (float64) distance
    exactly eps can fall in a cell whose nominal gap is a whole eps.  The
    counting walk's far prune must give way there (it did not before PR 19:
    one neighbour in four went missing on the lattice's edge rows)."""
    axis = np.cumsum(np.full(12, eps)) + offset
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    coords = np.column_stack([gx.ravel(), gy.ravel()])
    counts = _assert_core_mask_exact(coords, eps, 4)
    d2 = (coords[:, None, :] - coords[None, :, :]) ** 2
    brute = np.count_nonzero(d2[..., 0] + d2[..., 1] <= eps * eps, axis=1)
    np.testing.assert_array_equal(counts, brute)
    got, _ = _counts(coords, eps, len(coords) + 1, np.zeros(len(coords), bool), 4096)
    np.testing.assert_array_equal(got, brute)  # never saturating: exact everywhere


@pytest.mark.parametrize("eps", [0.25, 0.1, 0.3])
def test_pairs_at_eps_and_one_ulp_either_side(eps):
    """Isolated anchor/satellite pairs, MinPts 2: a pair is core iff the
    satellite is within eps, so each pair's core bit *is* the tie decision."""
    inside = np.nextafter(eps, 0.0)  # eps * (1 - 2^-53) or (1 - 2^-52)
    outside = np.nextafter(eps, 1.0)  # eps * (1 + 2^-52)
    rows = []
    for k, d in enumerate([eps, inside, outside, -eps, -inside, -outside]):
        x = 4.0 * k  # exact, far from every other pair
        rows += [[x, 0.0], [x, d], [x + 2.0, 0.0], [x + 2.0 + d, 0.0]]
    # A far-away pair widens the span so the float32 band is not trivial.
    rows += [[900.0, 900.0], [900.0, 900.0 + eps]]
    coords = np.array(rows)
    counts = _assert_core_mask_exact(coords, eps, 2)
    d2 = (coords[:, None, :] - coords[None, :, :]) ** 2
    brute = np.count_nonzero(d2[..., 0] + d2[..., 1] <= eps * eps, axis=1)
    np.testing.assert_array_equal(counts, brute)
    # dx is exactly the satellite offset for the vertical pairs at x = 4k.
    want = np.array([True, True, False, True, True, False])
    np.testing.assert_array_equal(counts[0:24:4] >= 2, want)


# ---------------------------------------------------------------------- #
# Morton-budget fallback divisors and the stencil table
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("ratio, divisor", [(1e3, 8), (5e7, 4), (1e8, 2), (1.6e8, 1)])
def test_core_mask_exact_on_every_count_grid_divisor(ratio, divisor):
    """A span too wide for eps/8 cells in the 28-bit Morton budget falls
    back to eps/4, eps/2, then eps; counting is exact on each, and the
    Eps-cell tree is the counting tree's view at every step."""
    rng = np.random.default_rng(divisor)
    eps = 0.05
    near = _blobs(rng, 300, 3, 0.5, 0.04)
    coords = np.vstack([near, near[:150] + np.array([ratio * eps, 0.0])])
    tree, eps_tree = _mod._leaf_trees(coords, eps)
    assert tree.cell_width == eps / divisor and tree.radius == eps
    assert eps_tree.cell_width == eps_tree.radius == eps and eps_tree.order is tree.order
    assert tree.n_levels - eps_tree.n_levels == divisor.bit_length() - 1
    counts = _assert_core_mask_exact(coords, eps, 5)
    assert (counts >= 5).any() and (counts < 5).any()


def test_no_full_test_can_tie_at_any_level():
    """A box pair ``(a - 1, b - 1)`` boxes apart at a level ``k`` above the
    leaves is *full* iff ``a^2 + b^2 <= D^2 / 4^k`` (``D`` the divisor, in
    units of the level's edge).  No integer pair sits on that boundary —
    64, 16, 4 and 1 are not sums of two positive squares, and neither is
    any ``D^2 / 4^k`` below them — and the nearest miss is far outside
    float rounding, so the float comparison in ``saturating_pairs`` always
    lands on the side exact arithmetic would."""
    for divisor in (8, 4, 2, 1):
        for k in range(0, 8):
            bound = Fraction(divisor * divisor, 4**k)
            table = [
                Fraction(a * a + b * b)
                for a in range(1, 2 * divisor + 3)
                for b in range(1, 2 * divisor + 3)
            ]
            assert bound not in table
            assert min(abs(t - bound) / bound for t in table) > Fraction(1, 100)
