"""Runtime phase-boundary invariant checkers.

Mr. Scan's correctness argument is a chain of per-phase invariants the
paper states but a reproduction can silently break:

* **partition** (§3.1) — the plan is a disjoint exact cover of the
  non-empty Eps-grid cells, every point is owned by exactly one
  partition, and the shadow region completes every owned point's
  Eps-neighborhood (§3.1.1: "the shadow region ... becomes the set of
  grid neighbors not already in the partition");
* **cluster** (§3.3.1, Fig 5) — at most :data:`N_REPRESENTATIVES`
  representatives per (cluster, cell), and every in-cell core point of a
  cluster lies within Eps of one of that cell's representatives (the
  eps/2 reachability lemma that makes merges detectable from
  representatives alone);
* **merge** (§3.4) — global-ID assignment is a bijection between merged
  cluster groups and ``0..k-1``, total over every leaf-reported cluster;
* **sweep** (§3.3.2) — duplicate removal leaves exactly one
  authoritative label per owned point, with owner precedence respected
  and competing shadow claims resolved to the smallest global ID.

Each checker is registered with a *phase* (where in the pipeline it can
run) and a *level*: ``cheap`` checkers are O(n) bookkeeping that a
production run can afford; ``full`` adds the quadratic-ish geometric
re-verifications (Eps-ball completeness, Fig-5 coverage, sweep
recombination).  :func:`run_phase_checks` executes every applicable
checker at a boundary, records ``validate.*`` metrics and trace events
through the telemetry layer, and raises a structured
:class:`~repro.errors.ValidationError` if anything is violated.

Checkers read a :class:`ValidationContext` the pipeline fills in as
phases complete; they never mutate it (beyond the cached grid index).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import ValidationError
from ..merge.representatives import N_REPRESENTATIVES
from ..merge.summary import any_within, row_ranks, rows_in, run_flags, starts
from ..points import NOISE, UNCLASSIFIED, PointSet

__all__ = [
    "LEVELS",
    "Violation",
    "CheckOutcome",
    "ValidationReport",
    "ValidationContext",
    "InvariantChecker",
    "REGISTRY",
    "register_checker",
    "checkers_for",
    "run_phase_checks",
    "invariant_catalog",
]

#: Validation levels, in increasing cost: ``off`` skips everything,
#: ``cheap`` runs the linear bookkeeping checks, ``full`` adds the
#: geometric re-verifications.
LEVELS: tuple[str, ...] = ("off", "cheap", "full")

#: Cap on per-checker violation records (the first ones are the repro).
MAX_VIOLATIONS_PER_CHECK = 20


@dataclass(frozen=True)
class Violation:
    """One concrete invariant breach, with enough context to reproduce."""

    invariant: str  # checker name, e.g. "cluster.representative_coverage"
    phase: str  # pipeline phase it was detected after
    message: str  # human-readable description
    context: dict = field(default_factory=dict)  # small, JSON-able detail

    def as_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "phase": self.phase,
            "message": self.message,
            "context": dict(self.context),
        }

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass
class CheckOutcome:
    """One checker execution: what ran, how long, what it found."""

    name: str
    phase: str
    level: str
    seconds: float
    n_violations: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "phase": self.phase,
            "level": self.level,
            "seconds": self.seconds,
            "n_violations": self.n_violations,
        }


@dataclass
class ValidationReport:
    """Accumulated validation activity of one pipeline run."""

    level: str = "off"
    checks: list[CheckOutcome] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def n_checks(self) -> int:
        return len(self.checks)

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "n_checks": self.n_checks,
            "n_violations": self.n_violations,
            "checks": [c.as_dict() for c in self.checks],
            "violations": [v.as_dict() for v in self.violations],
        }

    def summary(self) -> str:
        state = "ok" if self.ok else f"{self.n_violations} VIOLATION(S)"
        lines = [f"validation ({self.level}): {self.n_checks} check(s), {state}"]
        lines += [f"  {v}" for v in self.violations[:10]]
        return "\n".join(lines)


@dataclass
class ValidationContext:
    """Everything the checkers may inspect, filled in as phases finish.

    The pipeline sets ``phase1`` after partitioning, ``outputs`` after
    clustering, ``assignment`` after the merge, and
    ``sweep_results``/``labels``/``core_mask`` after the sweep.  Fields
    are duck-typed so unit tests can hand-build minimal stand-ins.
    """

    points: PointSet  # internal point set, ids normalised to 0..n-1
    eps: float
    minpts: int
    config: Any = None
    phase1: Any = None  # partition.distributed.PartitionPhaseResult
    outputs: list | None = None  # leaf outputs: .leaf_id/.labels/.core_mask/.summary/.n_owned
    assignment: Any = None  # merge.global_ids.GlobalIdAssignment
    sweep_results: list | None = None  # sweep.sweep.SweepResult per leaf
    labels: np.ndarray | None = None  # final combined labels
    core_mask: np.ndarray | None = None  # final combined core mask
    _index: Any = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self):
        """Cached Eps grid index over the full internal point set."""
        if self._index is None:
            from ..dbscan.grid_index import GridIndex

            self._index = GridIndex(self.points, self.eps)
        return self._index

    def point_cells(self) -> np.ndarray:
        """(n, 2) Eps-grid cell of every internal point."""
        return np.floor(self.points.coords / self.eps).astype(np.int64)

    def leaf_views(self) -> Iterator[tuple[int, PointSet, PointSet]]:
        """Yield ``(leaf_id, own, shadow)`` for every partition."""
        for pid, (own, shadow) in enumerate(self.phase1.partitions):
            yield pid, own, shadow


@dataclass(frozen=True)
class InvariantChecker:
    """A registered phase-boundary invariant."""

    name: str
    phase: str  # "partition" | "cluster" | "merge" | "sweep"
    level: str  # "cheap" | "full"
    paper: str  # paper section the invariant comes from
    func: Callable[[ValidationContext], list[Violation]]


REGISTRY: list[InvariantChecker] = []


def register_checker(name: str, phase: str, level: str, paper: str = ""):
    """Decorator adding a checker function to :data:`REGISTRY`."""

    def deco(func: Callable[[ValidationContext], list[Violation]]):
        REGISTRY.append(
            InvariantChecker(name=name, phase=phase, level=level, paper=paper, func=func)
        )
        return func

    return deco


def checkers_for(phase: str, level: str) -> list[InvariantChecker]:
    """Checkers applicable at ``phase`` under validation ``level``."""
    if level not in LEVELS:
        raise ValidationError(f"unknown validation level {level!r}")
    if level == "off":
        return []
    wanted = ("cheap",) if level == "cheap" else ("cheap", "full")
    return [c for c in REGISTRY if c.phase == phase and c.level in wanted]


def invariant_catalog() -> list[dict[str, str]]:
    """The registered invariants as rows (docs and ``--help`` material)."""
    return [
        {"name": c.name, "phase": c.phase, "level": c.level, "paper": c.paper}
        for c in REGISTRY
    ]


def run_phase_checks(
    phase: str,
    ctx: ValidationContext,
    level: str,
    report: ValidationReport | None = None,
    telemetry=None,
) -> list[Violation]:
    """Run every applicable checker at one phase boundary.

    Records per-check outcomes on ``report`` and ``validate.*`` metrics /
    trace instants on ``telemetry`` (when given and enabled), then raises
    :class:`ValidationError` carrying all violations found at this
    boundary.  Returns the (empty) violation list otherwise.
    """
    checks = checkers_for(phase, level)
    all_violations: list[Violation] = []
    tracer = getattr(telemetry, "tracer", None)
    metrics = getattr(telemetry, "metrics", None)
    for checker in checks:
        t0 = time.perf_counter()
        violations = checker.func(ctx) or []
        seconds = time.perf_counter() - t0
        outcome = CheckOutcome(
            name=checker.name,
            phase=phase,
            level=checker.level,
            seconds=seconds,
            n_violations=len(violations),
        )
        if report is not None:
            report.checks.append(outcome)
            report.violations.extend(violations)
        all_violations.extend(violations)
        if metrics is not None:
            metrics.counter("validate.checks").inc()
            if violations:
                metrics.counter("validate.violations").inc(len(violations))
            metrics.histogram("validate.check_seconds").observe(seconds)
        if tracer is not None:
            tracer.instant(
                f"validate.{checker.name}",
                cat="validate",
                violations=len(violations),
                seconds=seconds,
            )
    if all_violations:
        first = all_violations[0]
        raise ValidationError(
            f"{len(all_violations)} invariant violation(s) after {phase} "
            f"(first: {first})",
            violations=all_violations,
        )
    return all_violations


def _cap(violations: list[Violation]) -> list[Violation]:
    return violations[:MAX_VIOLATIONS_PER_CHECK]


# --------------------------------------------------------------------- #
# Phase 1 — partition
# --------------------------------------------------------------------- #


@register_checker(
    "partition.cover", "partition", "cheap", paper="§3.1.2-3.1.3"
)
def check_partition_cover(ctx: ValidationContext) -> list[Violation]:
    """Plan cells and owned points form a disjoint exact cover.

    * every non-empty grid cell is owned by exactly one partition and no
      partition owns a cell outside the histogram;
    * the partitions' *own* point sets are disjoint and union to the
      whole input;
    * every owned point falls inside one of its partition's cells;
    * no partition shadows a cell it owns.
    """
    from ..partition.grid import CellIndex, GridHistogram, cell_array, cell_of_coords

    out: list[Violation] = []
    plan = ctx.phase1.plan
    owner: dict[tuple[int, int], int] = {}
    for spec in plan.partitions:
        for cell in spec.cells:
            if cell in owner:
                out.append(
                    Violation(
                        "partition.cover",
                        "partition",
                        f"cell {cell} owned by partitions {owner[cell]} and "
                        f"{spec.partition_id}",
                        {"cell": list(cell)},
                    )
                )
            owner[cell] = spec.partition_id
        overlap = spec.shadow_cells & spec.cell_set()
        if overlap:
            out.append(
                Violation(
                    "partition.cover",
                    "partition",
                    f"partition {spec.partition_id} shadows "
                    f"{len(overlap)} cell(s) it owns",
                    {"partition": spec.partition_id, "n_overlap": len(overlap)},
                )
            )
    # The owned cells indexed by key, with the partition that owns each:
    # one lookup tells any cell's owner (row -1: nobody's).
    owned = cell_array(owner)
    index = CellIndex(owned, ctx.n)
    row_owner = np.fromiter(owner.values(), dtype=np.int64, count=len(owner))
    nonempty = GridHistogram.from_points(ctx.points, ctx.eps).cells  # sorted
    rows = index.rows(nonempty)
    missing = nonempty[rows < 0]
    held = np.zeros(len(owned), dtype=bool)
    held[rows[rows >= 0]] = True
    spurious = owned[~held]
    if len(missing):
        out.append(
            Violation(
                "partition.cover",
                "partition",
                f"{len(missing)} non-empty cell(s) owned by no partition",
                {"n_missing": len(missing), "sample": list(map(tuple, missing[:3].tolist()))},
            )
        )
    if len(spurious):
        out.append(
            Violation(
                "partition.cover",
                "partition",
                f"{len(spurious)} owned cell(s) hold no points",
                {"n_spurious": len(spurious), "sample": list(map(tuple, spurious[:3].tolist()))},
            )
        )

    # Point-level exact cover + membership.
    seen = np.zeros(ctx.n, dtype=np.int64)
    for pid, own, _shadow in ctx.leaf_views():
        if len(own) == 0:
            continue
        ids = own.ids
        if ids.min() < 0 or ids.max() >= ctx.n:
            out.append(
                Violation(
                    "partition.cover",
                    "partition",
                    f"partition {pid} owns point ids outside 0..{ctx.n - 1}",
                    {"partition": pid},
                )
            )
            continue
        np.add.at(seen, ids, 1)
        rows = index.rows(cell_of_coords(own.coords, ctx.eps))
        outside = ids[(rows < 0) | (row_owner[rows] != pid)]
        if len(outside):
            out.append(
                Violation(
                    "partition.cover",
                    "partition",
                    f"partition {pid} owns {len(outside)} point(s) outside "
                    "its cells",
                    {"partition": pid, "sample_ids": outside[:5].tolist()},
                )
            )
    dup = int(np.count_nonzero(seen > 1))
    unowned = int(np.count_nonzero(seen == 0))
    if dup:
        out.append(
            Violation(
                "partition.cover",
                "partition",
                f"{dup} point(s) owned by more than one partition",
                {"n_duplicate": dup},
            )
        )
    if unowned:
        out.append(
            Violation(
                "partition.cover",
                "partition",
                f"{unowned} point(s) owned by no partition",
                {"n_unowned": unowned},
            )
        )
    return _cap(out)


@register_checker(
    "partition.shadow_cells", "partition", "cheap", paper="§3.1.1"
)
def check_partition_shadow_cells(ctx: ValidationContext) -> list[Violation]:
    """Each partition's shadow is exactly the non-empty grid neighbors.

    Recomputes the shadow from scratch and compares against the plan,
    then checks the materialised shadow *points* are exactly the points of
    those cells.
    """
    from ..partition.grid import GridHistogram
    from ..partition.shadow import shadow_rows

    out: list[Violation] = []
    histogram = GridHistogram.from_points(ctx.points, ctx.eps)
    plan = ctx.phase1.plan
    point_rows = histogram.rows_of(ctx.point_cells())
    for pid, _own, shadow in ctx.leaf_views():
        spec = plan.partitions[pid]
        rows = shadow_rows(spec.cells, histogram)
        expected = set(map(tuple, histogram.cells[rows].tolist()))
        if expected != spec.shadow_cells:
            out.append(
                Violation(
                    "partition.shadow_cells",
                    "partition",
                    f"partition {pid} shadow cells diverge from the grid "
                    f"neighbors ({len(expected ^ spec.shadow_cells)} cell(s))",
                    {"partition": pid},
                )
            )
        # Shadow *points* must be exactly the points of the shadow cells.
        in_shadow = np.zeros(histogram.n_cells, dtype=bool)
        in_shadow[rows] = True
        want_ids = np.flatnonzero(in_shadow[point_rows])
        got_ids = np.unique(shadow.ids)
        missing = np.setdiff1d(want_ids, got_ids, assume_unique=True)
        extra = np.setdiff1d(got_ids, want_ids, assume_unique=True)
        if len(missing) or len(extra):
            out.append(
                Violation(
                    "partition.shadow_cells",
                    "partition",
                    f"partition {pid} shadow points diverge: "
                    f"{len(missing)} missing, {len(extra)} extra",
                    {"partition": pid},
                )
            )
    return _cap(out)


@register_checker(
    "partition.shadow_completeness", "partition", "full", paper="§3.1.1/§3.2"
)
def check_shadow_completeness(ctx: ValidationContext) -> list[Violation]:
    """Every owned point's full Eps-ball is present in its leaf's view.

    The geometric form of the shadow guarantee: for each point p owned by
    partition P, every input point within Eps of p is in P's own∪shadow
    view — so the leaf computes p's exact neighborhood count and core
    status (§3.2: owner classification is authoritative).
    """
    out: list[Violation] = []
    index = ctx.index()
    membership: dict[int, np.ndarray] = {}
    owner_of = np.full(ctx.n, -1, dtype=np.int64)
    for pid, own, shadow in ctx.leaf_views():
        m = np.zeros(ctx.n, dtype=bool)
        if len(own):
            m[own.ids] = True
            owner_of[own.ids] = pid
        if len(shadow):
            m[shadow.ids] = True
        membership[pid] = m
    for p in range(ctx.n):
        pid = int(owner_of[p])
        if pid < 0:
            continue  # partition.cover reports unowned points
        neigh = index.neighbors_of(p)
        missing = neigh[~membership[pid][neigh]]
        if len(missing):
            out.append(
                Violation(
                    "partition.shadow_completeness",
                    "partition",
                    f"point {p} (partition {pid}) is missing "
                    f"{len(missing)} Eps-neighbor(s) from its leaf view",
                    {
                        "point": p,
                        "partition": pid,
                        "missing_sample": [int(i) for i in missing[:5]],
                    },
                )
            )
            if len(out) >= MAX_VIOLATIONS_PER_CHECK:
                break
    return _cap(out)


# --------------------------------------------------------------------- #
# Phase 2 — cluster
# --------------------------------------------------------------------- #


@register_checker("cluster.labels_sane", "cluster", "cheap", paper="§3.2")
def check_cluster_labels_sane(ctx: ValidationContext) -> list[Violation]:
    """Leaf outputs are structurally consistent with their views.

    Label/core arrays align with the own+shadow view, nothing is left
    ``UNCLASSIFIED``, core points always belong to a cluster, and every
    non-noise label appears in the leaf's upstream summary.
    """
    out: list[Violation] = []
    views = {pid: (own, shadow) for pid, own, shadow in ctx.leaf_views()}
    for o in ctx.outputs or []:
        own, shadow = views[o.leaf_id]
        n_view = len(own) + len(shadow)
        labels = np.asarray(o.labels)
        core = np.asarray(o.core_mask)
        if len(labels) != n_view or len(core) != n_view:
            out.append(
                Violation(
                    "cluster.labels_sane",
                    "cluster",
                    f"leaf {o.leaf_id}: labels ({len(labels)}) / core "
                    f"({len(core)}) disagree with view ({n_view})",
                    {"leaf": o.leaf_id},
                )
            )
            continue
        if o.n_owned != len(own):
            out.append(
                Violation(
                    "cluster.labels_sane",
                    "cluster",
                    f"leaf {o.leaf_id}: n_owned {o.n_owned} != |own| {len(own)}",
                    {"leaf": o.leaf_id},
                )
            )
        if np.any(labels == UNCLASSIFIED):
            out.append(
                Violation(
                    "cluster.labels_sane",
                    "cluster",
                    f"leaf {o.leaf_id}: {int(np.count_nonzero(labels == UNCLASSIFIED))} "
                    "point(s) left UNCLASSIFIED",
                    {"leaf": o.leaf_id},
                )
            )
        if np.any(core & (labels == NOISE)):
            out.append(
                Violation(
                    "cluster.labels_sane",
                    "cluster",
                    f"leaf {o.leaf_id}: core point(s) labelled NOISE",
                    {"leaf": o.leaf_id},
                )
            )
        missing = np.setdiff1d(labels[labels != NOISE], o.summary.keys[:, 1])
        if len(missing):
            out.append(
                Violation(
                    "cluster.labels_sane",
                    "cluster",
                    f"leaf {o.leaf_id}: clusters {missing[:5].tolist()} "
                    "missing from the upstream summary",
                    {"leaf": o.leaf_id},
                )
            )
    return _cap(out)


def _cell_violations(name: str, leaf_id: int, summary, rows: np.ndarray, what) -> list[Violation]:
    """One violation per flagged cell row of a leaf summary, up to the cap;
    ``what(row)`` says what is wrong with it."""
    cluster = np.repeat(np.arange(summary.n_clusters), summary.n_cells)
    out = []
    for row in rows[:MAX_VIOLATIONS_PER_CHECK].tolist():
        key = tuple(summary.keys[cluster[row]].tolist())
        cell = summary.cell_xy[row].tolist()
        out.append(
            Violation(
                name,
                "cluster",
                f"leaf {leaf_id} cluster {key} cell {tuple(cell)}: {what(row)}",
                {"leaf": leaf_id, "cell": cell},
            )
        )
    return out


@register_checker(
    "cluster.representative_bound", "cluster", "cheap", paper="§3.3.1"
)
def check_representative_bound(ctx: ValidationContext) -> list[Violation]:
    """≤ 8 unique representatives per (cluster, cell), inside the cell."""
    name = "cluster.representative_bound"
    tol = ctx.eps * 1e-9
    out: list[Violation] = []
    for o in ctx.outputs or []:
        s = o.summary
        rep_row = np.repeat(np.arange(len(s.cell_xy)), s.n_rep)
        order = np.lexsort((s.rep_ids, rep_row))
        repeated = rep_row[order][~run_flags(rep_row[order], s.rep_ids[order])]
        xy = s.cell_xy[rep_row]
        outside = (
            (s.rep_coords < xy * ctx.eps - tol) | (s.rep_coords > (xy + 1) * ctx.eps + tol)
        ).any(axis=1)
        for rows, what in (
            (
                np.flatnonzero(s.n_rep > N_REPRESENTATIVES),
                lambda row: f"{s.n_rep[row]} representatives > {N_REPRESENTATIVES}",
            ),
            (np.unique(repeated), lambda row: "duplicate representative ids"),
            (np.unique(rep_row[outside]), lambda row: "representative outside its cell"),
        ):
            out += _cell_violations(name, o.leaf_id, s, rows, what)
    return _cap(out)


@register_checker(
    "cluster.representative_coverage", "cluster", "full", paper="§3.3.1 Fig 5"
)
def check_representative_coverage(ctx: ValidationContext) -> list[Violation]:
    """Fig 5 lemma: every in-cell core point of a cluster is within Eps
    of one of that (cluster, cell)'s representatives.

    This is what makes merges detectable from representatives alone — a
    remote cluster reaching any core point of the cell also reaches a
    representative within 2·(eps/2) = Eps.
    """
    name = "cluster.representative_coverage"
    eps2 = ctx.eps * ctx.eps
    views = {pid: (own, shadow) for pid, own, shadow in ctx.leaf_views()}
    out: list[Violation] = []
    for o in ctx.outputs or []:
        own, shadow = views[o.leaf_id]
        view = own.concat(shadow)
        s = o.summary
        labels = np.asarray(o.labels)
        member = np.flatnonzero(np.asarray(o.core_mask, dtype=bool) & (labels != NOISE))
        # Each core member's (cluster, cell) row of the summary, if any.
        cluster = np.repeat(np.arange(s.n_clusters), s.n_cells)
        rows = np.column_stack((s.keys[cluster, 1], s.cell_xy))
        cells = np.floor(view.coords[member] / ctx.eps).astype(np.int64)
        rank = row_ranks(np.concatenate((rows, np.column_stack((labels[member], cells)))))
        row_of = np.full(len(rank), -1)
        row_of[rank[: len(rows)]] = np.arange(len(rows))
        row = row_of[rank[len(rows) :]]
        member, row = member[row >= 0], row[row >= 0]
        covered = any_within(
            np.arange(len(member)), np.ones(len(member), dtype=np.int64), view.coords[member],
            starts(s.n_rep)[row], s.n_rep[row], s.rep_coords, eps2,
        )
        bare = np.bincount(row, minlength=len(rows)) * (s.n_rep == 0)
        far = np.bincount(row[~covered & (s.n_rep[row] > 0)], minlength=len(rows))
        out += _cell_violations(
            name, o.leaf_id, s, np.flatnonzero(bare),
            lambda r: f"{bare[r]} core point(s) but no representatives",
        )
        out += _cell_violations(
            name, o.leaf_id, s, np.flatnonzero(far),
            lambda r: f"{far[r]} core point(s) farther than Eps from every representative",
        )
        if len(out) >= MAX_VIOLATIONS_PER_CHECK:
            break
    return _cap(out)


# --------------------------------------------------------------------- #
# Phase 3 — merge
# --------------------------------------------------------------------- #


@register_checker("merge.global_id_bijection", "merge", "cheap", paper="§3.4")
def check_global_id_bijection(ctx: ValidationContext) -> list[Violation]:
    """Global-ID assignment is a bijection onto merged components.

    * every constituent key maps to one global ID;
    * the mapping's keys are exactly the clusters the leaves reported
      (total, so the sweep orphans no point, and nothing spurious);
    * the IDs used are exactly ``0..n_clusters-1``, numbered in canonical
      key order: ID ``g``'s smallest key is below ID ``g+1``'s.
    """
    name = "merge.global_id_bijection"
    out: list[Violation] = []
    assignment = ctx.assignment
    keys, gids = assignment.arrays()
    k = assignment.n_clusters

    order = np.lexsort((gids, keys[:, 1], keys[:, 0]))
    keys, gids = keys[order], gids[order]
    repeat = ~run_flags(keys[:, 0], keys[:, 1])
    twice = repeat & (gids != np.roll(gids, 1))
    if twice.any():
        out.append(
            Violation(
                name,
                "merge",
                f"constituents {[tuple(c) for c in keys[twice][:3].tolist()]} map to "
                "several global ids",
                {"n_overlap": int(np.count_nonzero(twice))},
            )
        )
    keys, gids = keys[~repeat], gids[~repeat]

    if ctx.outputs is not None:
        reported = np.concatenate(
            [o.summary.keys for o in ctx.outputs] or [np.empty((0, 2), np.int64)]
        )
        n_unmapped = int((~rows_in(reported, keys)).sum())
        n_spurious = int((~rows_in(keys, reported)).sum())
        if n_unmapped or n_spurious:
            out.append(
                Violation(
                    name,
                    "merge",
                    f"mapping keys diverge from the leaves' clusters: "
                    f"{n_unmapped} unmapped, {n_spurious} spurious",
                    {"n_unmapped": n_unmapped, "n_spurious": n_spurious},
                )
            )

    gid_values = np.unique(gids)
    if not np.array_equal(gid_values, np.arange(k)):
        out.append(
            Violation(
                name,
                "merge",
                f"global ids are not 0..{k - 1}",
                {"got": gid_values[:10].tolist()},
            )
        )
    else:
        # Keys ascend, so a global id's first row is its smallest key.
        first = np.unique(gids, return_index=True)[1]
        if (np.diff(first) < 0).any():
            out.append(
                Violation(
                    name, "merge", "global ids are not in canonical key order", {}
                )
            )
    return _cap(out)


# --------------------------------------------------------------------- #
# Phase 4 — sweep
# --------------------------------------------------------------------- #


@register_checker("sweep.ownership", "sweep", "cheap", paper="§3.3.2")
def check_sweep_ownership(ctx: ValidationContext) -> list[Violation]:
    """Sweep output covers every point exactly once, claims are sane.

    Owned-id sets are disjoint across leaves and union to the input;
    claims carry real cluster ids (never NOISE) and only ever reference
    shadow points (a leaf cannot claim a point it owns).
    """
    out: list[Violation] = []
    seen = np.zeros(ctx.n, dtype=np.int64)
    for res in ctx.sweep_results or []:
        if len(res.owned_ids):
            np.add.at(seen, res.owned_ids, 1)
        if len(res.claimed_ids) and np.any(res.claimed_labels == NOISE):
            out.append(
                Violation(
                    "sweep.ownership",
                    "sweep",
                    f"leaf {res.leaf_id} claims point(s) as NOISE",
                    {"leaf": res.leaf_id},
                )
            )
        own_set = set(int(i) for i in res.owned_ids)
        self_claims = [int(i) for i in res.claimed_ids if int(i) in own_set]
        if self_claims:
            out.append(
                Violation(
                    "sweep.ownership",
                    "sweep",
                    f"leaf {res.leaf_id} claims {len(self_claims)} point(s) "
                    "it owns",
                    {"leaf": res.leaf_id, "sample": self_claims[:5]},
                )
            )
    dup = int(np.count_nonzero(seen > 1))
    missing = int(np.count_nonzero(seen == 0))
    if dup:
        out.append(
            Violation(
                "sweep.ownership",
                "sweep",
                f"{dup} point(s) written by more than one owner",
                {"n_duplicate": dup},
            )
        )
    if missing:
        out.append(
            Violation(
                "sweep.ownership",
                "sweep",
                f"{missing} point(s) written by no leaf",
                {"n_missing": missing},
            )
        )
    if ctx.assignment is not None and ctx.labels is not None and len(ctx.labels):
        bad = ctx.labels[ctx.labels >= ctx.assignment.n_clusters]
        if len(bad):
            out.append(
                Violation(
                    "sweep.ownership",
                    "sweep",
                    f"{len(bad)} final label(s) outside 0..{ctx.assignment.n_clusters - 1}",
                    {"sample": [int(b) for b in bad[:5]]},
                )
            )
    return _cap(out)


@register_checker("sweep.owner_precedence", "sweep", "full", paper="§3.3.2")
def check_owner_precedence(ctx: ValidationContext) -> list[Violation]:
    """Recombine sweep outputs independently and compare.

    Owner labels are authoritative; an owner-NOISE point claimed by
    shadow leaves adopts the *smallest* claimed global id; everything
    else stays NOISE.  The final core mask is the union of the
    owner-authoritative core flags.
    """
    out: list[Violation] = []
    expected = np.full(ctx.n, NOISE, dtype=np.int64)
    owner_label = np.full(ctx.n, NOISE, dtype=np.int64)
    expected_core = np.zeros(ctx.n, dtype=bool)
    for res in ctx.sweep_results or []:
        expected[res.owned_ids] = res.owned_labels
        owner_label[res.owned_ids] = res.owned_labels
        if res.owned_core is not None:
            expected_core[res.owned_ids] = res.owned_core
    best_claim = np.full(ctx.n, np.iinfo(np.int64).max, dtype=np.int64)
    for res in ctx.sweep_results or []:
        if len(res.claimed_ids) == 0:
            continue
        np.minimum.at(best_claim, res.claimed_ids, res.claimed_labels)
    adopt = (owner_label == NOISE) & (best_claim != np.iinfo(np.int64).max)
    expected[adopt] = best_claim[adopt]

    if ctx.labels is not None and not np.array_equal(expected, ctx.labels):
        diff = np.flatnonzero(expected != ctx.labels)
        out.append(
            Violation(
                "sweep.owner_precedence",
                "sweep",
                f"{len(diff)} final label(s) violate owner-precedence / "
                "smallest-claim recombination",
                {
                    "sample": [
                        {
                            "point": int(i),
                            "expected": int(expected[i]),
                            "got": int(ctx.labels[i]),
                        }
                        for i in diff[:5]
                    ]
                },
            )
        )
    if ctx.core_mask is not None and not np.array_equal(
        expected_core, ctx.core_mask
    ):
        out.append(
            Violation(
                "sweep.owner_precedence",
                "sweep",
                "final core mask diverges from owner-authoritative flags",
                {"n_diff": int(np.count_nonzero(expected_core != ctx.core_mask))},
            )
        )
    return _cap(out)
