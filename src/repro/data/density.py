"""Density-profile statistics over the Eps grid.

The performance model (``repro.perf``) needs scale-free facts about a
dataset's spatial density: how skewed the Eps×Eps cell histogram is, what
fraction of points sit in cells dense enough for the dense-box optimization
at a given MinPts, and how large the single densest cell is relative to an
even share.  These statistics are measured on an affordable sample and then
applied at paper scale, because they are properties of the underlying
distribution, not of the sample size (cell *counts* scale linearly with n;
cell *shares* do not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..points import PointSet

__all__ = ["DENSEBOX_FULL_FACTOR", "DensityProfile", "densebox_ramp", "profile_density"]

#: An Eps cell is eliminated in full from this many times MinPts points.
#: It covers two eps/√2 boxes; 2.5 is fitted to the detector (Twitter
#: 40k/60k at MinPts 4/5/10: law within 0.03 of the measured share; SDSS
#: 80k, whose objects are tighter than a cell: 0.02-0.14 under).
DENSEBOX_FULL_FACTOR: float = 2.5


def densebox_ramp(count, minpts: int):
    """Share of an Eps cell's ``count`` points that dense box (§3.2.3: the
    cells of the eps/√2 grid holding >= MinPts points) eliminates: none
    below ``minpts`` (even all in one box is too few), all from
    ``DENSEBOX_FULL_FACTOR * minpts``, linear in between."""
    full = DENSEBOX_FULL_FACTOR * minpts
    return np.clip((count - minpts) / max(full - minpts, 1.0), 0.0, 1.0)


@dataclass(frozen=True)
class DensityProfile:
    """Scale-free summary of a dataset's Eps-grid density histogram.

    Attributes
    ----------
    eps:
        Cell edge length the histogram was computed with.
    n_points:
        Sample size the profile was measured from.
    n_occupied_cells:
        Number of non-empty Eps×Eps cells.
    max_cell_share:
        Fraction of all points in the single densest cell.  This bounds
        strong scaling: the slowest leaf ends up clustering one dense cell
        (§5.1.2), so no partitioning can beat ``max_cell_share * n``.
    top_cell_shares:
        Shares of the 32 densest cells (descending), padded with zeros.
    gini:
        Gini coefficient of the cell-count histogram (0 = uniform).
    mean_cell_count, p50_cell_count, p99_cell_count:
        Absolute per-cell counts at the sampled n (rescale linearly in n).
    """

    eps: float
    n_points: int
    n_occupied_cells: int
    max_cell_share: float
    top_cell_shares: tuple[float, ...]
    gini: float
    mean_cell_count: float
    p50_cell_count: float
    p99_cell_count: float

    def cell_count_at(self, n_points: int, share_rank: int = 0) -> float:
        """Expected count of the ``share_rank``-th densest cell at scale n."""
        if share_rank < len(self.top_cell_shares):
            return self.top_cell_shares[share_rank] * n_points
        return self.mean_cell_count * (n_points / self.n_points)

    def densebox_eliminated_fraction(self, minpts: int) -> float:
        """Estimate the fraction of points the dense-box pass removes:
        :func:`densebox_ramp` over the top cells, with the cells beyond
        them approximated by one bulk at the mean density."""
        shares = np.asarray(self.top_cell_shares)
        top = float(np.sum(shares * densebox_ramp(shares * self.n_points, minpts)))
        bulk = max(0.0, 1.0 - shares.sum()) * float(densebox_ramp(self.mean_cell_count, minpts))
        return min(top + bulk, 1.0)


def profile_density(points: PointSet, eps: float, *, top_k: int = 32) -> DensityProfile:
    """Measure a :class:`DensityProfile` from a point sample."""
    if len(points) == 0:
        return DensityProfile(
            eps=eps,
            n_points=0,
            n_occupied_cells=0,
            max_cell_share=0.0,
            top_cell_shares=(0.0,) * top_k,
            gini=0.0,
            mean_cell_count=0.0,
            p50_cell_count=0.0,
            p99_cell_count=0.0,
        )
    cx = np.floor(points.xs / eps).astype(np.int64)
    cy = np.floor(points.ys / eps).astype(np.int64)
    # Collapse 2-D cell coordinates into one key for bincount-style counting.
    key = (cx - cx.min()).astype(np.int64) * (cy.max() - cy.min() + 1) + (cy - cy.min())
    _, counts = np.unique(key, return_counts=True)
    counts = np.sort(counts)[::-1].astype(np.float64)
    n = float(len(points))
    shares = counts[:top_k] / n
    if len(shares) < top_k:
        shares = np.pad(shares, (0, top_k - len(shares)))

    sorted_asc = counts[::-1]
    cum = np.cumsum(sorted_asc)
    gini = float(1.0 - 2.0 * np.sum(cum) / (len(counts) * cum[-1]) + 1.0 / len(counts)) if cum[-1] > 0 else 0.0

    return DensityProfile(
        eps=float(eps),
        n_points=int(n),
        n_occupied_cells=int(len(counts)),
        max_cell_share=float(counts[0] / n),
        top_cell_shares=tuple(float(s) for s in shares),
        gini=gini,
        mean_cell_count=float(counts.mean()),
        p50_cell_count=float(np.median(counts)),
        p99_cell_count=float(np.percentile(counts, 99)),
    )
