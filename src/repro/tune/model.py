"""Calibrated planner cost model.

:class:`repro.perf.TitanCostModel` predicts the *paper's* hardware —
Titan's GPUs, MRNet trees, and Lustre.  The planner needs predictions for
*this* machine, so this module keeps the same phase-law structure
(partition and sweep linear in points, merge linear in leaves, cluster
dominated by the slowest leaf) but fits the coefficients to measured
:class:`~repro.tune.history.RunProfile` rows by per-phase least squares
(:func:`numpy.linalg.lstsq` — deterministic, so same history ⇒ same
model ⇒ byte-identical plans).

When history is too thin to fit a phase (< :data:`MIN_FIT_ROWS` usable
rows, or a degenerate fit), that phase falls back to priors measured on
the repo's own benchmarks, recorded per
coefficient in ``calibrated`` so ``mrscan tune --explain`` can say which
numbers are evidence and which are defaults.

The model's makespan law for the cluster phase with ``W`` effective
workers over ``L`` leaves::

    compute  = leaf_overhead·L + rate·max(max_leaf_points, n/W)
    overhead = 0                          (local)
             = pool_spawn + per_task·L + per_byte·dispatch_bytes  (pools)

``max(max_leaf_points, n/W)`` is the classic longest-processing-time
bound: perfect balance gives ``n/W``, and no schedule beats the biggest
single leaf.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .history import RunProfile

__all__ = ["PlannerCostModel", "PredictedWalls", "calibrate", "MIN_FIT_ROWS"]

#: Minimum usable history rows before a least-squares fit replaces priors.
MIN_FIT_ROWS = 2

#: Phase priors measured on this repo's benchmarks (seconds).
PRIOR_PARTITION = (5e-3, 1.2e-6)  # base, per point
PRIOR_LEAF_OVERHEAD = 2e-3  # per leaf
PRIOR_CLUSTER_RATE = 2.5e-5  # per point
PRIOR_MERGE = (1e-3, 2.5e-3)  # base, per leaf
PRIOR_SWEEP = (1e-3, 2e-7)  # base, per point

#: Transport overhead priors: (pool spawn s, per dispatched task s,
#: per dispatched byte s).  local is the zero by definition; the pool
#: spawns are a measured warm-up cost, per-byte from data-plane dispatch rounds.
PRIOR_TRANSPORT = {
    "local": (0.0, 0.0, 0.0),
    "process": (0.5, 0.02, 4e-8),
    "shm": (0.5, 0.01, 2e-9),
    "tcp": (1.0, 0.03, 4e-8),
}


@dataclass
class PredictedWalls:
    """Predicted wall seconds per phase for one candidate config."""

    partition: float
    cluster: float
    merge: float
    sweep: float
    overhead: float

    @property
    def total(self) -> float:
        return self.partition + self.cluster + self.merge + self.sweep + self.overhead

    def as_dict(self) -> dict:
        return {
            "partition": self.partition,
            "cluster": self.cluster,
            "merge": self.merge,
            "sweep": self.sweep,
            "overhead": self.overhead,
            "total": self.total,
        }


def _fit_line(rows: list[tuple[float, float]]) -> tuple[float, float] | None:
    """Least-squares ``y = a + b·x`` fit; None when degenerate."""
    if len(rows) < MIN_FIT_ROWS:
        return None
    xs = np.array([x for x, _ in rows], dtype=np.float64)
    ys = np.array([y for _, y in rows], dtype=np.float64)
    if np.ptp(xs) == 0.0:
        return None
    A = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    if b < 0.0:
        return None  # a negative marginal cost is noise, not physics
    return max(a, 0.0), b


@dataclass
class PlannerCostModel:
    """Phase coefficients, with provenance per coefficient group."""

    partition: tuple[float, float] = PRIOR_PARTITION
    leaf_overhead: float = PRIOR_LEAF_OVERHEAD
    cluster_rate: float = PRIOR_CLUSTER_RATE
    merge: tuple[float, float] = PRIOR_MERGE
    sweep: tuple[float, float] = PRIOR_SWEEP
    transport: dict[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(PRIOR_TRANSPORT)
    )
    #: Which coefficient groups were fitted from history (vs priors).
    calibrated: dict[str, bool] = field(default_factory=dict)
    #: History rows the calibration consumed.
    history_rows: int = 0
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    # ------------------------------------------------------------------ #

    def effective_workers(self, transport: str, workers: int | None) -> int:
        """Workers that actually shorten the cluster makespan."""
        if transport == "local":
            return 1
        w = workers if workers is not None else self.cpu_count
        return max(1, min(int(w), self.cpu_count))

    def predict(
        self,
        *,
        n_points: int,
        n_leaves: int,
        transport: str,
        workers: int | None = None,
        max_leaf_points: int | None = None,
        dispatch_bytes: int | None = None,
    ) -> PredictedWalls:
        """Predicted per-phase walls for one candidate configuration."""
        n = float(max(n_points, 0))
        leaves = float(max(n_leaves, 1))
        max_leaf = float(
            max_leaf_points
            if max_leaf_points is not None
            else (n / leaves if leaves else n)
        )
        max_leaf = min(max(max_leaf, n / leaves if leaves else n), n)
        nbytes = float(
            dispatch_bytes if dispatch_bytes is not None else 40.0 * n
        )
        w_eff = self.effective_workers(transport, workers)
        p0, p1 = self.partition
        m0, m1 = self.merge
        s0, s1 = self.sweep
        spawn, per_task, per_byte = self.transport.get(
            transport, PRIOR_TRANSPORT["process"]
        )
        compute = self.leaf_overhead * leaves + self.cluster_rate * max(
            max_leaf, n / w_eff
        )
        overhead = 0.0
        if transport != "local":
            overhead = spawn + per_task * leaves + per_byte * nbytes
        return PredictedWalls(
            partition=p0 + p1 * n,
            cluster=compute,
            merge=m0 + m1 * leaves,
            sweep=s0 + s1 * n,
            overhead=overhead,
        )

    def break_even_points(
        self,
        *,
        transport: str,
        workers: int | None = None,
        n_leaves: int = 8,
        max_points: int = 100_000_000,
    ) -> int | None:
        """Smallest dataset size where ``transport`` beats ``local``.

        Scans a geometric size grid (deterministic); None when the
        transport never wins below ``max_points`` — on a single-core
        host that is the expected answer for every pool transport.
        """
        if transport == "local":
            return 0
        n = 1_000
        while n <= max_points:
            par = self.predict(
                n_points=n, n_leaves=n_leaves, transport=transport,
                workers=workers,
            ).total
            loc = self.predict(
                n_points=n, n_leaves=n_leaves, transport="local"
            ).total
            if par < loc:
                return n
            n = int(n * 1.25) + 1
        return None


def calibrate(profiles: list[RunProfile]) -> PlannerCostModel:
    """Fit a :class:`PlannerCostModel` to measured history.

    Per-phase least squares over the usable rows; any phase that cannot
    be fit keeps its priors (flagged in ``model.calibrated``).  The
    transport overhead lump is the mean positive residual of each
    transport's measured totals over the already-calibrated compute
    prediction — evidence of what the pool actually cost on this host.
    """
    model = PlannerCostModel(history_rows=len(profiles))

    part_rows = [
        (float(p.n_points), p.partition_seconds)
        for p in profiles
        if p.partition_seconds > 0 and p.n_points > 0
    ]
    fit = _fit_line(part_rows)
    model.calibrated["partition"] = fit is not None
    if fit is not None:
        model.partition = fit

    # Cluster rate: local rows are serial, so cluster_seconds ≈
    # leaf_overhead·L + rate·n.  Fold the leaf term into the intercept
    # by fitting against n with the prior L-term removed.
    rows = [
        (
            float(p.n_points),
            p.cluster_seconds - PRIOR_LEAF_OVERHEAD * max(p.n_leaves, 1),
        )
        for p in profiles
        if p.transport == "local" and p.cluster_seconds > 0 and p.n_points > 0
    ]
    fit = _fit_line(rows)
    model.calibrated["cluster_rate"] = fit is not None
    if fit is not None:
        model.cluster_rate = fit[1]

    merge_rows = [
        (float(max(p.n_leaves, 1)), p.merge_seconds)
        for p in profiles
        if p.merge_seconds > 0
    ]
    fit = _fit_line(merge_rows)
    model.calibrated["merge"] = fit is not None
    if fit is not None:
        model.merge = fit

    sweep_rows = [
        (float(p.n_points), p.sweep_seconds)
        for p in profiles
        if p.sweep_seconds > 0 and p.n_points > 0
    ]
    fit = _fit_line(sweep_rows)
    model.calibrated["sweep"] = fit is not None
    if fit is not None:
        model.sweep = fit

    # Transport overhead: measured total minus the calibrated zero-
    # overhead prediction, averaged per transport (clipped at zero).
    for name in sorted({p.transport for p in profiles} - {"local"}):
        rows = [p for p in profiles if p.transport == name and p.total_seconds > 0]
        if not rows:
            continue
        residuals = []
        for p in rows:
            base = model.predict(
                n_points=p.n_points,
                n_leaves=max(p.n_leaves, 1),
                transport="local",
                max_leaf_points=p.max_leaf_points or None,
                dispatch_bytes=p.dispatch_bytes or None,
            )
            w_eff = model.effective_workers(name, p.transport_workers)
            parallel_compute = model.leaf_overhead * max(
                p.n_leaves, 1
            ) + model.cluster_rate * max(
                float(p.max_leaf_points or 0), p.n_points / w_eff
            )
            expected = base.total - base.cluster + parallel_compute
            residuals.append(max(0.0, p.total_seconds - expected))
        spawn_prior, per_task, per_byte = PRIOR_TRANSPORT.get(
            name, PRIOR_TRANSPORT["process"]
        )
        mean_leaves = float(np.mean([max(p.n_leaves, 1) for p in rows]))
        mean_bytes = float(np.mean([p.dispatch_bytes for p in rows]))
        lump = float(np.mean(residuals))
        # Attribute the measured lump to the spawn term; keep the finer-
        # grained per-task/per-byte priors (one run cannot separate them).
        spawn = max(0.0, lump - per_task * mean_leaves - per_byte * mean_bytes)
        model.transport[name] = (spawn if spawn > 0 else spawn_prior, per_task, per_byte)
        model.calibrated[f"transport.{name}"] = spawn > 0
    return model
