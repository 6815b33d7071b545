"""Seeded differential + metamorphic fuzz harness.

Randomized-but-reproducible end-to-end testing in the style parallel
DBSCAN implementations are validated against an exact sequential oracle:
each :class:`FuzzCase` (derived entirely from one integer seed) fixes a
dataset × tree topology × pipeline config × optional fault plan; running
it

1. **differential** — clusters the dataset with the distributed pipeline
   (under ``--validate`` invariant checking) and with the sequential
   reference DBSCAN, then compares the labelings with the
   relabeling/tie-break-aware comparator
   (:func:`repro.validate.equivalence.labels_equivalent`);
2. **metamorphic** — re-runs the pipeline under label-preserving input
   transformations and checks the output transforms accordingly:

   * *permutation*: shuffling point order must not change the clustering
     of any point;
   * *transform*: translating and uniformly scaling coordinates (with
     Eps scaled alike) must preserve cluster structure — skipped when
     the transform flips a floating-point distance tie in the oracle
     itself;
   * *duplicates*: appending exact copies of existing points must give
     each copy its twin's label, and can only ever promote points to
     core, never demote them.

A failing case is shrunk (:func:`shrink_case`) to a minimal still-failing
seed configuration — drop the fault plan, halve the points, collapse the
tree — and saved as a JSON repro artifact that ``mrscan fuzz --replay``
re-executes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..errors import MrScanError
from ..points import PointSet
from .equivalence import EquivalenceReport, labels_equivalent

__all__ = [
    "DATASETS",
    "FuzzCase",
    "CaseOutcome",
    "SweepReport",
    "generate_case",
    "run_case",
    "run_sweep",
    "shrink_case",
    "write_repro_artifact",
    "load_case",
]

#: Dataset families the generator draws from.
DATASETS: tuple[str, ...] = ("blobs", "uniform", "ring", "moons", "twitter", "sdss")


def _make_points(dataset: str, n_points: int, seed: int) -> PointSet:
    """Deterministically materialize one case's dataset."""
    from ..data import generate_sdss, generate_twitter
    from ..data.synthetic import gaussian_blobs, ring_cluster, two_moons, uniform_noise

    s = (seed * 2654435761 + 97) % (2**31)
    if dataset == "blobs":
        n_main = max(1, int(n_points * 0.9))
        blobs = gaussian_blobs(n_main, centers=4, spread=0.35, seed=s)
        noise = uniform_noise(n_points - n_main, seed=s + 1, id_offset=n_main)
        return blobs.concat(noise)
    if dataset == "uniform":
        return uniform_noise(n_points, seed=s)
    if dataset == "ring":
        n_ring = max(1, int(n_points * 0.8))
        ring = ring_cluster(n_ring, radius=3.0, thickness=0.15, seed=s)
        noise = uniform_noise(
            n_points - n_ring, box=(-4.0, -4.0, 4.0, 4.0), seed=s + 1,
            id_offset=n_ring,
        )
        return ring.concat(noise)
    if dataset == "moons":
        return two_moons(n_points, seed=s)
    if dataset == "twitter":
        return generate_twitter(n_points, seed=s)
    if dataset == "sdss":
        return generate_sdss(n_points, seed=s)
    raise ValueError(f"unknown fuzz dataset {dataset!r}")


@dataclass(frozen=True)
class FuzzCase:
    """One fully-seeded pipeline configuration (reconstructible anywhere)."""

    seed: int
    dataset: str
    n_points: int
    eps: float
    minpts: int
    n_leaves: int
    fanout: int
    use_densebox: bool = True
    fault_seed: int | None = None
    n_faults: int = 3

    def points(self) -> PointSet:
        return _make_points(self.dataset, self.n_points, self.seed)

    def fault_plan(self):
        """The case's seeded fault plan over the clustering tree (or None)."""
        if self.fault_seed is None:
            return None
        from ..mrnet.topology import Topology
        from ..resilience.faults import FaultPlan

        topo = Topology.paper_style(self.n_leaves, self.fanout)
        nodes = list(range(1, topo.n_nodes)) or [0]
        return FaultPlan.seeded(
            self.fault_seed,
            nodes,
            phases=("cluster", "merge", "sweep"),
            n_faults=self.n_faults,
            max_delay=0.002,
        )

    def config(self, validate: str = "full", **overrides):
        from ..core.config import MrScanConfig

        kwargs = dict(
            eps=self.eps,
            minpts=self.minpts,
            n_leaves=self.n_leaves,
            fanout=self.fanout,
            use_densebox=self.use_densebox,
            fault_plan=self.fault_plan(),
            max_retries=2,
            backoff_base=0.0,
            validate=validate,
        )
        kwargs.update(overrides)
        return MrScanConfig(**kwargs)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dataset": self.dataset,
            "n_points": self.n_points,
            "eps": self.eps,
            "minpts": self.minpts,
            "n_leaves": self.n_leaves,
            "fanout": self.fanout,
            "use_densebox": self.use_densebox,
            "fault_seed": self.fault_seed,
            "n_faults": self.n_faults,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        return cls(
            seed=int(payload["seed"]),
            dataset=str(payload["dataset"]),
            n_points=int(payload["n_points"]),
            eps=float(payload["eps"]),
            minpts=int(payload["minpts"]),
            n_leaves=int(payload["n_leaves"]),
            fanout=int(payload["fanout"]),
            use_densebox=bool(payload.get("use_densebox", True)),
            fault_seed=(
                int(payload["fault_seed"])
                if payload.get("fault_seed") is not None
                else None
            ),
            n_faults=int(payload.get("n_faults", 3)),
        )

    def describe(self) -> str:
        faults = f" faults(seed={self.fault_seed})" if self.fault_seed is not None else ""
        return (
            f"seed={self.seed} {self.dataset} n={self.n_points} "
            f"eps={self.eps:.4g} minpts={self.minpts} "
            f"leaves={self.n_leaves} fanout={self.fanout}"
            f"{' densebox' if self.use_densebox else ''}{faults}"
        )


def generate_case(
    seed: int,
    *,
    max_points: int = 1200,
    min_points: int = 250,
    fault_fraction: float = 0.5,
) -> FuzzCase:
    """Derive one reproducible case from an integer seed."""
    rng = np.random.default_rng(seed)
    dataset = str(DATASETS[int(rng.integers(len(DATASETS)))])
    n_points = int(rng.integers(min_points, max_points + 1))
    probe = _make_points(dataset, n_points, seed)
    xmin, ymin, xmax, ymax = probe.bounds()
    span = max(xmax - xmin, ymax - ymin) or 1.0
    eps = float(span * rng.uniform(0.02, 0.08))
    minpts = int(rng.integers(3, 13))
    n_leaves = int(rng.choice([1, 2, 3, 4, 6, 8]))
    fanout = int(rng.choice([2, 3, 4]))
    use_densebox = bool(rng.random() < 0.7)
    fault_seed = (
        int(rng.integers(1_000_000)) if rng.random() < fault_fraction else None
    )
    return FuzzCase(
        seed=seed,
        dataset=dataset,
        n_points=n_points,
        eps=eps,
        minpts=minpts,
        n_leaves=n_leaves,
        fanout=fanout,
        use_densebox=use_densebox,
        fault_seed=fault_seed,
    )


@dataclass
class CaseOutcome:
    """What one fuzz case found."""

    case: FuzzCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    differential: dict = field(default_factory=dict)
    metamorphic: dict = field(default_factory=dict)  # property -> "ok"/"skipped.."/msg
    n_clusters_ref: int = 0
    n_clusters_got: int = 0
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "case": self.case.as_dict(),
            "ok": self.ok,
            "failures": list(self.failures),
            "differential": dict(self.differential),
            "metamorphic": dict(self.metamorphic),
            "n_clusters_ref": self.n_clusters_ref,
            "n_clusters_got": self.n_clusters_got,
            "error": self.error,
        }

    def describe(self) -> str:
        state = "ok" if self.ok else "FAIL: " + "; ".join(self.failures[:2])
        return f"{self.case.describe()} -> {state}"


def _compare(case: FuzzCase, points: PointSet, eps: float, ref, labels, core) -> EquivalenceReport:
    """A pipeline labelling against the reference, with the one deviation
    the case's config allows: dense-box noise, each point witness-checked."""
    return labels_equivalent(
        points, eps, ref.labels, ref.core_mask, np.asarray(labels), np.asarray(core),
        allow_densebox_noise=case.use_densebox, minpts=case.minpts,
    )


def _unpermute(values: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[perm] = values
    return out


def _check_permutation(case: FuzzCase, points: PointSet, ref, validate: str) -> str:
    """Point-order permutation invariance."""
    from ..core.pipeline import run_pipeline

    rng = np.random.default_rng(case.seed + 101)
    perm = rng.permutation(len(points))
    shuffled = PointSet(
        ids=np.arange(len(points), dtype=np.int64),
        coords=points.coords[perm],
        weights=points.weights[perm],
    )
    try:
        res = run_pipeline(shuffled, case.config(validate))
    except MrScanError as exc:
        return f"pipeline failed on permuted input: {type(exc).__name__}: {exc}"
    labels = _unpermute(np.asarray(res.labels), perm)
    core = _unpermute(np.asarray(res.core_mask), perm)
    eq = _compare(case, points, case.eps, ref, labels, core)
    return "ok" if eq.ok else "; ".join(eq.failures)


def _check_transform(case: FuzzCase, points: PointSet, ref, validate: str) -> str:
    """Translation + uniform scale (with Eps scaled) invariance.

    The scale is a power of two (exact in floating point); the oracle is
    recomputed on the transformed input, and the property is skipped when
    the transform itself flips a distance tie in the oracle (the standard
    metamorphic-validity guard).
    """
    from ..core.pipeline import run_pipeline
    from ..dbscan.reference import dbscan_reference

    rng = np.random.default_rng(case.seed + 202)
    scale = float(rng.choice([0.5, 2.0, 4.0]))
    shift = rng.integers(-64, 65, size=2).astype(np.float64)
    moved = PointSet(
        ids=points.ids.copy(),
        coords=points.coords * scale + shift,
        weights=points.weights.copy(),
    )
    eps = case.eps * scale
    ref2 = dbscan_reference(moved, eps, case.minpts)
    if not np.array_equal(ref2.core_mask, np.asarray(ref.core_mask)):
        return "skipped: transform flips a distance tie in the oracle"
    try:
        res = run_pipeline(moved, case.config(validate, eps=eps))
    except MrScanError as exc:
        return f"pipeline failed on transformed input: {type(exc).__name__}: {exc}"
    eq = _compare(case, moved, eps, ref2, res.labels, res.core_mask)
    return "ok" if eq.ok else "; ".join(eq.failures)


def _check_duplicates(case: FuzzCase, points: PointSet, ref, validate: str) -> str:
    """Duplicate-point idempotence: twins agree, core status is monotone."""
    from ..core.pipeline import run_pipeline

    n = len(points)
    rng = np.random.default_rng(case.seed + 303)
    k = min(40, max(1, n // 5))
    idx = rng.choice(n, size=k, replace=False)
    twins = PointSet(
        ids=np.arange(n, n + k, dtype=np.int64),
        coords=points.coords[idx].copy(),
        weights=points.weights[idx].copy(),
    )
    augmented = points.concat(twins)
    try:
        res = run_pipeline(augmented, case.config(validate))
    except MrScanError as exc:
        return f"pipeline failed on duplicated input: {type(exc).__name__}: {exc}"
    labels = np.asarray(res.labels)
    core = np.asarray(res.core_mask)
    bad_label = int(np.count_nonzero(labels[idx] != labels[n:]))
    bad_core = int(np.count_nonzero(core[idx] != core[n:]))
    if bad_label or bad_core:
        return (
            f"{bad_label} duplicate(s) got a different label and {bad_core} "
            "a different core status than their twin"
        )
    demoted = int(np.count_nonzero(np.asarray(ref.core_mask) & ~core[:n]))
    if demoted:
        return f"{demoted} point(s) demoted from core by adding duplicates"
    return "ok"


def run_case(
    case: FuzzCase, *, validate: str = "full", metamorphic: bool = True
) -> CaseOutcome:
    """Execute one case: differential comparison + metamorphic checks."""
    from ..core.pipeline import run_pipeline
    from ..dbscan.reference import dbscan_reference

    points = case.points()
    ref = dbscan_reference(points, case.eps, case.minpts)
    try:
        result = run_pipeline(points, case.config(validate))
    except MrScanError as exc:
        failures = [f"pipeline failed: {type(exc).__name__}: {exc}"]
        failures += [str(v) for v in getattr(exc, "violations", [])[:5]]
        return CaseOutcome(
            case=case,
            ok=False,
            failures=failures,
            n_clusters_ref=ref.n_clusters,
            error=f"{type(exc).__name__}: {exc}",
        )
    eq = _compare(case, points, case.eps, ref, result.labels, result.core_mask)
    failures = [f"differential: {f}" for f in eq.failures]
    meta: dict[str, str] = {}
    if metamorphic:
        meta["permutation"] = _check_permutation(case, points, ref, validate)
        meta["transform"] = _check_transform(case, points, ref, validate)
        meta["duplicates"] = _check_duplicates(case, points, ref, validate)
        failures += [
            f"metamorphic {name}: {msg}"
            for name, msg in meta.items()
            if msg != "ok" and not msg.startswith("skipped")
        ]
    return CaseOutcome(
        case=case,
        ok=not failures,
        failures=failures,
        differential=eq.as_dict(),
        metamorphic=meta,
        n_clusters_ref=ref.n_clusters,
        n_clusters_got=result.n_clusters,
    )


# --------------------------------------------------------------------- #
# Shrinking + repro artifacts
# --------------------------------------------------------------------- #


def _reductions(case: FuzzCase):
    """Candidate simplifications, most valuable first."""
    if case.fault_seed is not None:
        yield replace(case, fault_seed=None)
    if case.n_points > 64:
        yield replace(case, n_points=case.n_points // 2)
    if case.n_leaves > 1:
        yield replace(case, n_leaves=max(1, case.n_leaves // 2))
    if case.fanout > 2:
        yield replace(case, fanout=2)
    if case.use_densebox:
        yield replace(case, use_densebox=False)
    if case.minpts > 3:
        yield replace(case, minpts=max(3, case.minpts // 2))


def shrink_case(
    case: FuzzCase,
    still_failing: Callable[[FuzzCase], bool],
    *,
    max_steps: int = 32,
) -> FuzzCase:
    """Greedy shrink: apply reductions while the case keeps failing.

    ``still_failing`` must be deterministic (fuzz cases are fully seeded,
    so re-running one is).  Stops at a local minimum or after
    ``max_steps`` predicate evaluations.
    """
    current = case
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _reductions(current):
            steps += 1
            if still_failing(candidate):
                current = candidate
                progress = True
                break
            if steps >= max_steps:
                break
    return current


def write_repro_artifact(
    path: str | Path, case: FuzzCase, outcome: CaseOutcome
) -> Path:
    """Persist a minimized failing case as a JSON repro artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": "mrscan-fuzz-repro-v1",
        "case": case.as_dict(),
        "original_case": outcome.case.as_dict(),
        "failures": outcome.failures,
        "differential": outcome.differential,
        "metamorphic": outcome.metamorphic,
        "replay": f"mrscan fuzz --replay {path}",
    }
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def load_case(path: str | Path) -> FuzzCase:
    """Load the (minimized) case of a repro artifact."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return FuzzCase.from_dict(payload["case"])


# --------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------- #


@dataclass
class SweepReport:
    """Aggregate outcome of a seeded case sweep."""

    outcomes: list[CaseOutcome] = field(default_factory=list)

    @property
    def n_cases(self) -> int:
        return len(self.outcomes)

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def failed(self) -> list[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def describe(self) -> str:
        lines = [o.describe() for o in self.outcomes]
        n_skip = sum(
            1
            for o in self.outcomes
            for msg in o.metamorphic.values()
            if msg.startswith("skipped")
        )
        lines.append(
            f"{self.n_cases} fuzz case(s): "
            + ("all equivalent" if self.ok else f"{self.n_failed} FAILED")
            + (f" ({n_skip} metamorphic check(s) skipped)" if n_skip else "")
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_failed": self.n_failed,
            "outcomes": [o.as_dict() for o in self.outcomes],
        }


def run_sweep(
    n_cases: int,
    *,
    seed: int = 0,
    validate: str = "full",
    metamorphic: bool = True,
    max_points: int = 1200,
    min_points: int = 250,
    fault_fraction: float = 0.5,
    on_case: Callable[[CaseOutcome], None] | None = None,
) -> SweepReport:
    """Run ``n_cases`` seeded cases (seeds ``seed .. seed+n_cases-1``)."""
    report = SweepReport()
    for i in range(int(n_cases)):
        case = generate_case(
            seed + i,
            max_points=max_points,
            min_points=min_points,
            fault_fraction=fault_fraction,
        )
        outcome = run_case(case, validate=validate, metamorphic=metamorphic)
        report.outcomes.append(outcome)
        if on_case is not None:
            on_case(outcome)
    return report


def minimize_failures(
    report: SweepReport,
    artifact_dir: str | Path,
    *,
    validate: str = "full",
    metamorphic: bool = True,
    max_artifacts: int = 3,
) -> list[Path]:
    """Shrink each failing case of a sweep and write repro artifacts."""
    paths: list[Path] = []
    artifact_dir = Path(artifact_dir)
    for outcome in report.failed()[:max_artifacts]:
        def still_failing(c: FuzzCase) -> bool:
            return not run_case(c, validate=validate, metamorphic=metamorphic).ok

        minimal = shrink_case(outcome.case, still_failing)
        path = artifact_dir / f"fuzz-repro-seed{outcome.case.seed}.json"
        paths.append(write_repro_artifact(path, minimal, outcome))
    return paths
