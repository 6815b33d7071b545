"""Paper-scale workload synthesis and per-leaf GPU work laws.

The key observation enabling paper-scale simulation: the partitioner and
the GPU work model only need the Eps-grid *histogram*, never individual
points, and for a fixed spatial distribution the histogram's cell counts
scale linearly with n.  So we histogram an affordable sample once, scale
the counts to the target n, run the *real* partitioning algorithm over the
scaled histogram, and evaluate each leaf's GPU work from its cells.

The per-cell work law mirrors what the simulated device charges in real
runs (``repro.gpu.kernels``):

* candidates per point = the 3×3 stencil count;
* expected true neighbors ≈ (π/9) × stencil (area ratio of the Eps disk
  to the stencil);
* pass 1 scans ``stencil × minpts/(neighbors+1)`` candidates for core
  points (MinPts-capped early termination) and everything for non-cores —
  :func:`repro.gpu.kernels.expected_scan_ops`, the very function real
  runs are charged by;
* the core fraction is Poissonian: ``P[Poisson(neighbors) >= minpts]``;
* dense box eliminates a cell fraction that ramps from 0 when the cell
  holds ``minpts`` points to 1 when it holds ``2.5 × minpts`` (a cell
  covers two eps/√2 boxes; fitted, see ``DENSEBOX_FULL_FACTOR``);
* pass 2 expands surviving cores at full stencil cost.

``tests/perf/test_workload.py`` validates this law against the operation
counts of real ``mrscan_gpu`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import special

from ..data.density import DENSEBOX_FULL_FACTOR, densebox_ramp
from ..errors import SimulationError
from ..gpu.kernels import DISK_STENCIL_RATIO, expected_scan_ops
from ..partition.grid import GridHistogram, cell_array
from ..partition.partitioner import form_partitions
from ..partition.plan import PartitionPlan
from ..points import PointSet

__all__ = ["DENSEBOX_FULL_FACTOR", "ScaledWorkload", "LeafWork", "leaf_gpu_work", "cell_gpu_work"]


@dataclass
class LeafWork:
    """Predicted GPU work for one leaf's partition (+shadow)."""

    n_points: float
    pass1_ops: float
    pass2_ops: float
    eliminated: float
    transfer_bytes: float
    launches: float

    @property
    def distance_ops(self) -> float:
        return self.pass1_ops + self.pass2_ops


def cell_gpu_work(
    count: float, stencil: float, minpts: int, *, use_densebox: bool = True
) -> tuple[float, float, float]:
    """Work law for one Eps cell: ``(pass1_ops, pass2_ops, eliminated)``."""
    work = _vector_cell_work(
        np.array([count], dtype=np.float64), np.array([stencil], dtype=np.float64),
        minpts, use_densebox,
    )
    return tuple(float(v[0]) for v in work)


@dataclass
class ScaledWorkload:
    """A paper-scale dataset stand-in: the scaled Eps-grid histogram."""

    histogram: GridHistogram
    n_points: int
    eps: float
    sample_points: int

    @classmethod
    def from_sample(
        cls, sample: PointSet, eps: float, n_target: int
    ) -> "ScaledWorkload":
        """Scale ``sample``'s histogram to ``n_target`` points.

        Counts multiply by ``n_target / len(sample)`` with largest-
        remainder rounding so the scaled total is exactly ``n_target``.
        """
        if len(sample) == 0:
            raise SimulationError("cannot scale an empty sample")
        if n_target <= 0:
            raise SimulationError("n_target must be positive")
        base = GridHistogram.from_points(sample, eps)
        factor = n_target / len(sample)
        # Column-major cell order, as the unstable argsort's ties expect.
        raw = base.counts.astype(np.float64) * factor
        floors = np.floor(raw).astype(np.int64)
        deficit = int(n_target - floors.sum())
        if deficit > 0:
            order = np.argsort(-(raw - floors))
            floors[order[:deficit]] += 1
        kept = floors > 0
        scaled = GridHistogram(eps=eps, cells=base.cells[kept], counts=floors[kept])
        return cls(
            histogram=scaled,
            n_points=int(scaled.total_points),
            eps=eps,
            sample_points=len(sample),
        )

    # ------------------------------------------------------------------ #

    def stencil_counts(self) -> np.ndarray:
        """3×3-neighborhood point count of every non-empty cell, aligned
        with ``histogram.cells``."""
        hist = self.histogram
        neighbors = hist.neighbor_rows()
        return hist.counts + np.where(neighbors >= 0, hist.counts[neighbors], 0).sum(axis=1)

    def partition(self, n_leaves: int, minpts: int) -> PartitionPlan:
        """Run the real partitioning algorithm over the scaled histogram."""
        return form_partitions(self.histogram, n_leaves, minpts)

    def max_cell_count(self) -> int:
        return int(self.histogram.counts.max(initial=0))

    def shadow_fraction(self, plan: PartitionPlan) -> float:
        """Shadow points as a fraction of partition points."""
        shadow = sum(p.shadow_count for p in plan.partitions)
        return shadow / max(self.n_points, 1)


def _vector_cell_work(
    counts: np.ndarray, stencils: np.ndarray, minpts: int, use_densebox: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The work law of the module docstring, over all cells at once."""
    neighbors = np.maximum(DISK_STENCIL_RATIO * stencils, 1.0)
    elim_frac = densebox_ramp(counts, minpts) if use_densebox else np.zeros_like(counts)
    survivors = counts * (1.0 - elim_frac)
    core_frac = special.gammainc(minpts, neighbors)  # P[Poisson >= m]
    capped = expected_scan_ops(stencils, True, minpts)
    per_point_pass1 = core_frac * capped + (1.0 - core_frac) * stencils
    pass1 = survivors * per_point_pass1
    pass2 = survivors * core_frac * stencils
    return pass1, pass2, counts * elim_frac


def leaf_gpu_work(
    workload: ScaledWorkload,
    plan: PartitionPlan,
    minpts: int,
    *,
    use_densebox: bool = True,
    n_blocks: int = 1024,
    record_bytes: int = 32,
    stencils: np.ndarray | None = None,
) -> list[LeafWork]:
    """Predict each leaf's GPU work from its partition's cells.

    ``stencils`` is :meth:`ScaledWorkload.stencil_counts` (computed when
    omitted)."""
    if stencils is None:
        stencils = workload.stencil_counts()
    hist = workload.histogram
    count_v = hist.counts.astype(np.float64)
    stencil_v = np.asarray(stencils, dtype=np.float64)
    pass1_v, pass2_v, elim_v = _vector_cell_work(count_v, stencil_v, minpts, use_densebox)

    # Each leaf sums its cells, then its sorted shadow cells — one lookup
    # for every partition's listing.
    listings = [list(spec.cells) + sorted(spec.shadow_cells) for spec in plan.partitions]
    rows = hist.rows_of(cell_array(chain.from_iterable(listings)))
    bounds = np.cumsum([len(listing) for listing in listings])[:-1]

    out: list[LeafWork] = []
    for idx in np.split(rows, bounds):
        idx = idx[idx >= 0]
        if len(idx):
            pass1 = float(pass1_v[idx].sum())
            pass2 = float(pass2_v[idx].sum())
            elim = float(elim_v[idx].sum())
            n_pts = float(count_v[idx].sum())
        else:
            pass1 = pass2 = elim = n_pts = 0.0
        launches = max(1.0, 2.0 * n_pts / n_blocks) if n_pts else 0.0
        out.append(
            LeafWork(
                n_points=n_pts,
                pass1_ops=pass1,
                pass2_ops=pass2,
                eliminated=elim,
                transfer_bytes=n_pts * record_bytes + 9 * n_pts,
                launches=launches,
            )
        )
    return out
