"""The plan: search the discrete config space with the calibrated model.

``plan()`` is a pure function of (workload fingerprint, profile store
contents, defaults, search options): the calibration is least-squares,
the search is an exhaustive walk of a deterministically-ordered candidate
grid, and ties break by candidate order — so the same store and the same
fingerprint produce a byte-identical :meth:`TunePlan.to_json`.  That
property is load-bearing (the determinism test pins it): a planner that
flaps between configs on identical evidence is worse than no planner.

Two tiers of output, split by label safety:

* ``apply`` — transport, workers.  Provably label-neutral (transports
  move bytes), so ``MrScanConfig.auto_tune`` fills them silently for any
  knob the user left unset.
* ``advise`` — leaf count, fanout, partition-split hints.  These change
  partition boundaries and hence label *numbering* (clusterings stay
  DBSCAN-equivalent), so they are only applied by an explicit
  ``mrscan tune --apply`` / ``cluster --tune-plan``.

The "don't parallelize at all" crossover falls out of the model: below
the break-even size the pool's spawn+dispatch overhead exceeds the
compute it saves, and the planner picks ``local`` — a decision instead
of a footnote.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import TuneError
from .history import ProfileStore, RunProfile
from .model import PlannerCostModel, calibrate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import MrScanConfig
    from ..points import PointSet

__all__ = [
    "PLAN_SCHEMA",
    "WorkloadFingerprint",
    "TunePlan",
    "fingerprint_workload",
    "plan",
    "suggest_partition_hints",
    "auto_tune_config",
]

PLAN_SCHEMA = "mrscan-tune-plan/1"

#: Default skew factor: split the slowest leaf when its wall exceeds
#: k× the median leaf wall.
DEFAULT_SKEW_FACTOR = 2.0

#: Cap on how many chunks one skewed partition is split into.
MAX_SPLIT_CHUNKS = 4


@dataclass(frozen=True)
class WorkloadFingerprint:
    """The workload features the planner conditions on."""

    n_points: int
    eps: float
    dataset_fingerprint: str | None = None
    #: Non-empty Eps-grid cells — the partitioner's planning universe.
    nonempty_cells: int = 0
    #: Heaviest cell's share of all points: the skew signal (a uniform
    #: grid is ~1/cells; a hotspot dataset approaches 1).
    max_cell_fraction: float = 0.0

    def as_dict(self) -> dict:
        return {
            "n_points": self.n_points,
            "eps": self.eps,
            "dataset_fingerprint": self.dataset_fingerprint,
            "nonempty_cells": self.nonempty_cells,
            "max_cell_fraction": self.max_cell_fraction,
        }


def fingerprint_workload(points: "PointSet", eps: float) -> WorkloadFingerprint:
    """Fingerprint a dataset: size, identity, and Eps-grid skew."""
    from ..durability.rundir import dataset_fingerprint
    from ..partition.grid import GridHistogram

    hist = GridHistogram.from_points(points, eps)
    total = max(hist.total_points, 1)
    return WorkloadFingerprint(
        n_points=len(points),
        eps=float(eps),
        dataset_fingerprint=dataset_fingerprint(points),
        nonempty_cells=hist.n_cells,
        max_cell_fraction=int(hist.counts.max(initial=0)) / total,
    )


@dataclass
class TunePlan:
    """The planner's recommendation, split by label safety."""

    fingerprint: WorkloadFingerprint
    #: Label-neutral knobs, safe for silent auto-apply.
    apply: dict = field(default_factory=dict)
    #: Label-numbering-affecting advice, explicit apply only.
    advise: dict = field(default_factory=dict)
    #: Predicted per-phase walls for the chosen and the baseline config.
    predicted: dict = field(default_factory=dict)
    #: Break-even dataset size per pool transport (None = never wins).
    break_even: dict = field(default_factory=dict)
    explain: list = field(default_factory=list)
    model_info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "fingerprint": self.fingerprint.as_dict(),
            "apply": self.apply,
            "advise": self.advise,
            "predicted": self.predicted,
            "break_even": self.break_even,
            "explain": self.explain,
            "model": self.model_info,
        }

    def to_json(self) -> str:
        """Canonical serialisation — the determinism test's byte target."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "TunePlan":
        if payload.get("schema") != PLAN_SCHEMA:
            raise TuneError(
                f"not a {PLAN_SCHEMA} document (schema={payload.get('schema')!r})"
            )
        return cls(
            fingerprint=WorkloadFingerprint(**payload.get("fingerprint", {})),
            # Plans written while ``block`` was selectable also name an engine.
            apply={
                k: v for k, v in payload.get("apply", {}).items() if k != "cluster_engine"
            },
            advise=dict(payload.get("advise", {})),
            predicted=dict(payload.get("predicted", {})),
            break_even=dict(payload.get("break_even", {})),
            explain=list(payload.get("explain", [])),
            model_info=dict(payload.get("model", {})),
        )

    @classmethod
    def load(cls, path) -> "TunePlan":
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _candidate_grid(
    model: PlannerCostModel, *, allow_tcp: bool
) -> list[tuple[str, int | None]]:
    """Deterministically-ordered (transport, workers) candidates."""
    cands: list[tuple[str, int | None]] = [("local", None)]
    worker_opts = sorted({1, 2, 4, model.cpu_count})
    worker_opts = [w for w in worker_opts if w <= model.cpu_count]
    pools = ["process", "shm"] + (["tcp"] if allow_tcp else [])
    for t in pools:
        for w in worker_opts:
            cands.append((t, w))
    return cands


def plan(
    fingerprint: WorkloadFingerprint,
    profiles: list[RunProfile] | ProfileStore,
    *,
    n_leaves: int = 8,
    fanout: int = 256,
    baseline: dict | None = None,
    allow_tcp: bool = False,
    skew_factor: float = DEFAULT_SKEW_FACTOR,
) -> TunePlan:
    """Choose a configuration for ``fingerprint`` from measured history.

    ``baseline`` names the config the run would use without tuning
    (``{"transport", "transport_workers"}``) — the comparison column of
    ``--explain``.  Defaults to the fixed scale-out default (shm + full
    pool).
    """
    if hasattr(profiles, "load"):  # a ProfileStore (or anything store-shaped)
        profiles = profiles.load()
    model = calibrate(profiles)
    if baseline is None:
        baseline = {"transport": "shm", "transport_workers": model.cpu_count}

    n = fingerprint.n_points
    # Expected slowest-leaf size under the Fig-2 balanced partitioner:
    # near-equal shares, inflated by observed grid skew (one cell is
    # indivisible, so the heaviest cell floors the slowest leaf).
    max_leaf = max(
        int(n / max(n_leaves, 1)),
        int(fingerprint.max_cell_fraction * n),
    )

    def predict(transport: str, workers: int | None):
        return model.predict(
            n_points=n,
            n_leaves=n_leaves,
            transport=transport,
            workers=workers,
            max_leaf_points=max_leaf,
        )

    best = None
    for transport, workers in _candidate_grid(model, allow_tcp=allow_tcp):
        walls = predict(transport, workers)
        key = walls.total
        if best is None or key < best[0] - 1e-12:
            best = (key, transport, workers, walls)
    assert best is not None
    _, transport, workers, walls = best

    base_walls = predict(
        baseline.get("transport", "shm"), baseline.get("transport_workers")
    )

    # Advisory leaf count: smallest candidate that keeps every effective
    # worker busy — extra leaves only add per-leaf and merge overhead.
    w_eff = model.effective_workers(transport, workers)
    leaf_cands = sorted({n_leaves, w_eff, 2 * w_eff, 4 * w_eff})
    best_leaves = min(
        leaf_cands,
        key=lambda leaves: (
            model.predict(
                n_points=n,
                n_leaves=leaves,
                transport=transport,
                workers=workers,
                max_leaf_points=max(
                    int(n / max(leaves, 1)),
                    int(fingerprint.max_cell_fraction * n),
                ),
            ).total,
            leaves,
        ),
    )

    break_even = {
        t: model.break_even_points(
            transport=t, workers=model.cpu_count, n_leaves=n_leaves
        )
        for t in (["process", "shm"] + (["tcp"] if allow_tcp else []))
    }

    hints = suggest_partition_hints(
        profiles, fingerprint, skew_factor=skew_factor
    )

    explain = [
        f"history: {model.history_rows} profile(s); calibrated "
        + (
            ", ".join(k for k, v in sorted(model.calibrated.items()) if v)
            or "nothing (paper-prior fallback)"
        ),
        f"workload: {n:,} points, {fingerprint.nonempty_cells} non-empty "
        f"Eps-cells, heaviest cell {100 * fingerprint.max_cell_fraction:.1f}% "
        f"of points",
        f"chosen {transport}"
        + (f" x{workers}" if workers is not None else "")
        + f": predicted {walls.total:.3f}s vs baseline "
        f"{baseline.get('transport')}: {base_walls.total:.3f}s",
    ]
    for t, be in sorted(break_even.items()):
        explain.append(
            f"break-even vs local for {t}: "
            + (f"~{be:,} points" if be is not None else
               f"never below 100M points on this host ({model.cpu_count} CPU)")
        )
    if hints is not None:
        explain.append(
            "skew: recorded slowest leaf exceeds "
            f"{skew_factor:.1f}x median — advising split "
            f"{hints.as_dict()['split']} (explicit --apply only)"
        )

    advise: dict = {"n_leaves": int(best_leaves), "fanout": int(fanout)}
    if hints is not None:
        advise["partition_hints"] = hints.as_dict()

    return TunePlan(
        fingerprint=fingerprint,
        apply={"transport": transport, "transport_workers": workers},
        advise=advise,
        predicted={
            "chosen": walls.as_dict(),
            "baseline": base_walls.as_dict(),
        },
        break_even=break_even,
        explain=explain,
        model_info={
            "calibrated": dict(sorted(model.calibrated.items())),
            "history_rows": model.history_rows,
            "cpu_count": model.cpu_count,
        },
    )


def suggest_partition_hints(
    profiles: list[RunProfile],
    fingerprint: WorkloadFingerprint,
    *,
    skew_factor: float = DEFAULT_SKEW_FACTOR,
):
    """Skew-aware rebalancer: split the recorded slowest leaf.

    Walks history newest-first for a run of this dataset (matching
    ``dataset_fingerprint``, falling back to equal ``n_points``) with
    per-leaf walls; when its slowest leaf's wall exceeds ``skew_factor``×
    the median, returns :class:`~repro.partition.PartitionHints` cutting
    that leaf's Eps-cell run into ``min(ceil(slowest/median), 4)``
    chunks.  None when history shows no such skew.
    """
    from ..partition.plan import PartitionHints

    for p in reversed(profiles):
        if p.slowest_leaf_seconds <= 0 or p.median_leaf_seconds <= 0:
            continue
        if fingerprint.dataset_fingerprint and p.dataset_fingerprint:
            if p.dataset_fingerprint != fingerprint.dataset_fingerprint:
                continue
        elif p.n_points != fingerprint.n_points:
            continue
        ratio = p.slowest_leaf_seconds / p.median_leaf_seconds
        if ratio <= skew_factor or p.slowest_leaf_id < 0:
            return None  # latest matching evidence shows no skew
        chunks = min(MAX_SPLIT_CHUNKS, max(2, round(ratio)))
        return PartitionHints.splitting({p.slowest_leaf_id: chunks})
    return None


def auto_tune_config(
    config: "MrScanConfig",
    points: "PointSet",
    *,
    store: ProfileStore | None = None,
) -> tuple["MrScanConfig", TunePlan]:
    """Fill the label-neutral knobs ``config`` left unset from a plan.

    Only ``transport`` and ``transport_workers`` are ever touched, and
    only when neither the config field nor its environment override was
    set — an explicit user choice always wins.
    Advisory (label-affecting) recommendations are returned on the plan
    but never applied here.
    """
    from dataclasses import replace

    if store is None:
        store = ProfileStore(config.tune_dir)
    fp = fingerprint_workload(points, config.eps)
    tplan = plan(
        fp,
        store,
        n_leaves=config.n_leaves,
        fanout=config.fanout,
        baseline={
            "transport": config.resolved_transport(),
            "transport_workers": config.transport_workers,
        },
    )
    updates: dict = {}
    if config.transport is None and not os.environ.get("MRSCAN_TRANSPORT", "").strip():
        updates["transport"] = tplan.apply["transport"]
        if config.transport_workers is None:
            updates["transport_workers"] = tplan.apply["transport_workers"]
    return (replace(config, **updates) if updates else config), tplan
