"""Unit tests for the invariant-checker registry and the checkers
themselves — both the clean path and hand-corrupted state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.points import NOISE, PointSet
from repro.validate import (
    REGISTRY,
    ValidationContext,
    ValidationReport,
    Violation,
    checkers_for,
    invariant_catalog,
    register_checker,
    run_phase_checks,
)
from repro.validate.invariants import (
    check_owner_precedence,
    check_partition_cover,
    check_partition_shadow_cells,
    check_representative_bound,
    check_sweep_ownership,
)

EXPECTED_CHECKERS = {
    "partition.cover",
    "partition.shadow_cells",
    "partition.shadow_completeness",
    "cluster.labels_sane",
    "cluster.representative_bound",
    "cluster.representative_coverage",
    "merge.global_id_bijection",
    "sweep.ownership",
    "sweep.owner_precedence",
}


# ----------------------------- registry ------------------------------- #


def test_catalog_covers_every_paper_invariant():
    rows = invariant_catalog()
    assert {r["name"] for r in rows} == EXPECTED_CHECKERS
    assert all(r["paper"].startswith("§") for r in rows)
    assert all(r["level"] in ("cheap", "full") for r in rows)


def test_checkers_for_levels():
    assert checkers_for("cluster", "off") == []
    cheap = checkers_for("cluster", "cheap")
    full = checkers_for("cluster", "full")
    assert {c.name for c in cheap} == {
        "cluster.labels_sane",
        "cluster.representative_bound",
    }
    assert {c.name for c in full} == {
        "cluster.labels_sane",
        "cluster.representative_bound",
        "cluster.representative_coverage",
    }


def test_checkers_for_unknown_level_raises():
    with pytest.raises(ValidationError):
        checkers_for("cluster", "paranoid")


def _ctx(n=3) -> ValidationContext:
    return ValidationContext(
        points=PointSet.from_coords(np.zeros((n, 2))), eps=1.0, minpts=2
    )


def test_run_phase_checks_raises_with_structured_violations():
    @register_checker("test.always_fails", "test-phase", "cheap", paper="§0")
    def _failing(ctx):
        return [Violation("test.always_fails", "test-phase", "boom", {"k": 1})]

    try:
        report = ValidationReport(level="cheap")
        with pytest.raises(ValidationError) as exc_info:
            run_phase_checks("test-phase", _ctx(), "cheap", report)
        err = exc_info.value
        assert len(err.violations) == 1
        assert err.violations[0].invariant == "test.always_fails"
        assert err.violations[0].context == {"k": 1}
        assert "boom" in str(err)
        assert report.n_violations == 1 and not report.ok
        assert report.checks[0].name == "test.always_fails"
    finally:
        REGISTRY[:] = [c for c in REGISTRY if c.phase != "test-phase"]


def test_run_phase_checks_records_telemetry():
    from repro.telemetry import Telemetry

    @register_checker("test.clean", "test-phase", "cheap")
    def _clean(ctx):
        return []

    try:
        telemetry = Telemetry()
        report = ValidationReport(level="cheap")
        out = run_phase_checks("test-phase", _ctx(), "cheap", report, telemetry)
        assert out == []
        assert report.ok and report.n_checks == 1
        assert telemetry.metrics.counter("validate.checks").value == 1
        names = [s.name for s in telemetry.tracer.drain()]
        assert "validate.test.clean" in names
    finally:
        REGISTRY[:] = [c for c in REGISTRY if c.phase != "test-phase"]


def test_off_level_runs_nothing():
    report = ValidationReport(level="off")
    assert run_phase_checks("partition", _ctx(), "off", report) == []
    assert report.n_checks == 0


# --------------------- partition checker corruption -------------------- #


def _partition_ctx(specs, partitions, coords, eps=1.0):
    """Hand-built context with a duck-typed phase1."""

    class Phase1:
        def __init__(self):
            self.plan = type("Plan", (), {"partitions": specs})()
            self.partitions = partitions

    ctx = ValidationContext(
        points=PointSet.from_coords(coords), eps=eps, minpts=2
    )
    ctx.phase1 = Phase1()
    return ctx


def _spec(pid, cells, shadow=()):
    from repro.partition.plan import PartitionSpec

    return PartitionSpec(
        partition_id=pid, cells=list(cells), shadow_cells=set(shadow)
    )


def _pts(ids, coords):
    ids = np.asarray(ids, dtype=np.int64)
    return PointSet(
        ids=ids, coords=np.asarray(coords, float), weights=np.ones(len(ids))
    )


def test_partition_cover_clean():
    coords = [[0.5, 0.5], [1.5, 0.5]]
    ctx = _partition_ctx(
        [_spec(0, [(0, 0)], shadow={(1, 0)}), _spec(1, [(1, 0)], shadow={(0, 0)})],
        [
            (_pts([0], [coords[0]]), _pts([1], [coords[1]])),
            (_pts([1], [coords[1]]), _pts([0], [coords[0]])),
        ],
        coords,
    )
    assert check_partition_cover(ctx) == []


def test_partition_cover_detects_double_ownership():
    coords = [[0.5, 0.5], [1.5, 0.5]]
    ctx = _partition_ctx(
        [_spec(0, [(0, 0)]), _spec(1, [(0, 0), (1, 0)])],
        [
            (_pts([0], [coords[0]]), PointSet.empty()),
            (_pts([0, 1], coords), PointSet.empty()),
        ],
        coords,
    )
    messages = [v.message for v in check_partition_cover(ctx)]
    assert any("owned by partitions" in m for m in messages)  # cell level
    assert any("more than one partition" in m for m in messages)  # point level


def test_partition_cover_detects_unowned_point_and_cell():
    coords = [[0.5, 0.5], [1.5, 0.5]]
    ctx = _partition_ctx(
        [_spec(0, [(0, 0)])],
        [(_pts([0], [coords[0]]), PointSet.empty())],
        coords,
    )
    messages = [v.message for v in check_partition_cover(ctx)]
    assert any("owned by no partition" in m for m in messages)
    assert any("written by no leaf" in m or "owned by no partition" in m
               for m in messages)


def test_partition_cover_detects_shadowed_own_cell():
    coords = [[0.5, 0.5]]
    ctx = _partition_ctx(
        [_spec(0, [(0, 0)], shadow={(0, 0)})],
        [(_pts([0], coords), PointSet.empty())],
        coords,
    )
    assert any(
        "shadows" in v.message for v in check_partition_cover(ctx)
    )


def _real_partition_ctx(points, eps=0.3, minpts=5, n_partitions=4):
    """A context over a real partition phase, for plan surgery."""
    from repro.partition import DistributedPartitioner

    internal = PointSet(
        ids=np.arange(len(points)), coords=points.coords, weights=points.weights
    )
    ctx = ValidationContext(points=internal, eps=eps, minpts=minpts)
    ctx.phase1 = DistributedPartitioner(eps, minpts, 2).run(internal, n_partitions)
    assert check_partition_cover(ctx) == []
    assert check_partition_shadow_cells(ctx) == []
    return ctx


def test_partition_shadow_cells_detects_a_missing_shadow_cell(blobs_with_noise):
    ctx = _real_partition_ctx(blobs_with_noise)
    spec = next(s for s in ctx.phase1.plan.partitions if s.shadow_cells)
    spec.shadow_cells.remove(min(spec.shadow_cells))
    messages = [v.message for v in check_partition_shadow_cells(ctx)]
    assert messages == [
        f"partition {spec.partition_id} shadow cells diverge from the grid "
        "neighbors (1 cell(s))"
    ]


def test_partition_cover_detects_a_cell_owned_twice(blobs_with_noise):
    ctx = _real_partition_ctx(blobs_with_noise)
    first, second = ctx.phase1.plan.partitions[:2]
    cell = first.cells[0]
    second.cells.append(cell)
    messages = [v.message for v in check_partition_cover(ctx)]
    assert f"cell {cell} owned by partitions 0 and 1" in messages
    # The later listing wins the cell, so the first partition's points in
    # it now lie outside its cells.
    assert any(m.startswith("partition 0 owns") and "outside its cells" in m for m in messages)


# ----------------------- sweep checker corruption ---------------------- #


class _Sweep:
    def __init__(self, leaf_id, owned, labels, claimed=(), claimed_labels=(),
                 core=None):
        self.leaf_id = leaf_id
        self.owned_ids = np.asarray(owned, dtype=np.int64)
        self.owned_labels = np.asarray(labels, dtype=np.int64)
        self.claimed_ids = np.asarray(claimed, dtype=np.int64)
        self.claimed_labels = np.asarray(claimed_labels, dtype=np.int64)
        self.owned_core = (
            np.asarray(core, dtype=bool) if core is not None else
            np.zeros(len(self.owned_ids), dtype=bool)
        )


def _sweep_ctx(results, labels, core=None, n=None):
    n = n if n is not None else len(labels)
    ctx = _ctx(n)
    ctx.sweep_results = results
    ctx.labels = np.asarray(labels, dtype=np.int64)
    ctx.core_mask = (
        np.asarray(core, dtype=bool) if core is not None
        else np.zeros(n, dtype=bool)
    )
    return ctx


def test_sweep_ownership_detects_self_claim_and_noise_claim():
    results = [
        _Sweep(0, [0, 1], [0, NOISE], claimed=[1], claimed_labels=[0]),
        _Sweep(1, [2], [0], claimed=[2], claimed_labels=[NOISE]),
    ]
    msgs = [v.message for v in check_sweep_ownership(_sweep_ctx(results, [0, 0, 0]))]
    assert any("it owns" in m for m in msgs)
    assert any("NOISE" in m for m in msgs)


def test_owner_precedence_detects_wrong_tiebreak():
    """Final labels adopting the *larger* of two claims must be flagged."""
    results = [
        _Sweep(0, [0], [NOISE]),
        _Sweep(1, [1], [5], claimed=[0], claimed_labels=[5]),
        _Sweep(2, [2], [2], claimed=[0], claimed_labels=[2]),
    ]
    # Correct recombination is [2, 5, 2]; feed the wrong adoption (5).
    bad = check_owner_precedence(_sweep_ctx(results, [5, 5, 2]))
    assert any("owner-precedence" in v.message for v in bad)
    good = check_owner_precedence(_sweep_ctx(results, [2, 5, 2]))
    assert good == []


def test_owner_precedence_detects_overridden_owner_label():
    results = [
        _Sweep(0, [0], [7]),
        _Sweep(1, [1], [0], claimed=[0], claimed_labels=[0]),
    ]
    bad = check_owner_precedence(_sweep_ctx(results, [0, 0]))
    assert any("owner-precedence" in v.message for v in bad)


def test_owner_precedence_detects_core_mask_divergence():
    results = [_Sweep(0, [0, 1], [0, 0], core=[True, False])]
    ctx = _sweep_ctx(results, [0, 0], core=[False, False])
    bad = check_owner_precedence(ctx)
    assert any("core mask" in v.message for v in bad)


# ----------------------------- cluster -------------------------------- #


def _bound_violations(**columns):
    """``cluster.representative_bound`` on one leaf summary of a single
    all-core cluster in cell (0, 0), with ``columns`` replaced."""
    from dataclasses import replace
    from types import SimpleNamespace

    from repro.merge.summary import summarize_leaf

    points = PointSet.from_coords(np.random.default_rng(0).uniform(0.0, 1.0, (40, 2)))
    summary = summarize_leaf(0, points, [0] * 40, [True] * 40, 1.0, {(0, 0)})
    assert summary.n_rep.tolist() == [8]
    output = SimpleNamespace(leaf_id=0, summary=replace(summary, **columns))
    ctx = ValidationContext(points=points, eps=1.0, minpts=4, outputs=[output])
    return [v.message for v in check_representative_bound(ctx)]


def test_representative_bound_clean_and_each_defect():
    assert _bound_violations() == []
    nine = _bound_violations(
        n_rep=np.array([9]), rep_ids=np.arange(9), rep_coords=np.full((9, 2), 0.5)
    )
    assert nine == ["leaf 0 cluster (0, 0) cell (0, 0): 9 representatives > 8"]
    twice = _bound_violations(rep_ids=np.array([3, 3, 4, 5, 6, 7, 8, 9]))
    assert twice == ["leaf 0 cluster (0, 0) cell (0, 0): duplicate representative ids"]
    outside = _bound_violations(rep_coords=np.vstack([[[1.5, 0.5]], np.full((7, 2), 0.5)]))
    assert outside == ["leaf 0 cluster (0, 0) cell (0, 0): representative outside its cell"]
