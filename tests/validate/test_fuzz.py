"""Unit tests for the seeded differential/metamorphic fuzz harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.validate import (
    DATASETS,
    FuzzCase,
    generate_case,
    load_case,
    minimize_failures,
    run_case,
    run_sweep,
    shrink_case,
    write_repro_artifact,
)


# ----------------------------- generation ------------------------------ #


def test_generate_case_is_deterministic():
    a = generate_case(42)
    b = generate_case(42)
    assert a == b
    assert np.array_equal(a.points().coords, b.points().coords)


def test_generate_case_varies_with_seed():
    cases = [generate_case(s) for s in range(30)]
    assert len({c.dataset for c in cases}) >= 3
    assert any(c.fault_seed is not None for c in cases)
    assert any(c.fault_seed is None for c in cases)
    assert all(c.dataset in DATASETS for c in cases)
    assert all(250 <= c.n_points <= 1200 for c in cases)
    assert all(c.eps > 0 and c.minpts >= 3 for c in cases)


def test_generate_case_respects_bounds():
    c = generate_case(3, max_points=300, min_points=260, fault_fraction=0.0)
    assert 260 <= c.n_points <= 300
    assert c.fault_seed is None


def test_fault_plan_only_when_seeded():
    armed = FuzzCase(
        seed=1, dataset="blobs", n_points=300, eps=0.3, minpts=5,
        n_leaves=4, fanout=2, fault_seed=77,
    )
    unarmed = FuzzCase(
        seed=1, dataset="blobs", n_points=300, eps=0.3, minpts=5,
        n_leaves=4, fanout=2,
    )
    plan = armed.fault_plan()
    assert plan is not None and len(plan.faults) > 0
    assert unarmed.fault_plan() is None
    assert isinstance(armed.config().fault_plan, type(plan))
    assert unarmed.config().fault_plan is None
    # same seed -> same plan
    assert repr(armed.fault_plan().faults) == repr(plan.faults)


def test_case_dict_round_trip():
    case = generate_case(9)
    again = FuzzCase.from_dict(case.as_dict())
    assert again == case
    assert "seed=9" in case.describe()


def test_repro_artifact_round_trip(tmp_path):
    case = generate_case(11)
    outcome = run_case(
        FuzzCase(seed=11, dataset="blobs", n_points=120, eps=0.4, minpts=4,
                 n_leaves=2, fanout=2),
        validate="cheap", metamorphic=False,
    )
    path = write_repro_artifact(tmp_path / "repro.json", case, outcome)
    assert load_case(path) == case
    text = path.read_text()
    assert "mrscan-fuzz-repro-v1" in text
    assert "--replay" in text


# ------------------------------ execution ------------------------------ #


def test_run_case_clean_seed_passes():
    case = FuzzCase(
        seed=5, dataset="blobs", n_points=400, eps=0.3, minpts=5,
        n_leaves=4, fanout=2, use_densebox=False,
    )
    outcome = run_case(case)
    assert outcome.ok, outcome.failures
    assert outcome.differential["ok"]
    assert set(outcome.metamorphic) == {"permutation", "transform", "duplicates"}
    assert all(
        v == "ok" or v.startswith("skipped")
        for v in outcome.metamorphic.values()
    )
    assert outcome.n_clusters_ref == outcome.n_clusters_got > 0


def test_run_case_with_faults_still_equivalent():
    case = FuzzCase(
        seed=6, dataset="moons", n_points=350, eps=0.25, minpts=5,
        n_leaves=4, fanout=2, fault_seed=123,
    )
    outcome = run_case(case, metamorphic=False)
    assert outcome.ok, outcome.failures


def test_seed_197_dense_box_drops_are_witnessed_not_counted():
    """Regression: 1138 tight sdss points, MinPts 12.  The translate-scale
    leg legally leaves 9 borders of box-only cores as noise — over the
    0.5 % cap (5) the comparator used before it asked for witnesses."""
    case = generate_case(197)
    assert (case.dataset, case.n_points, case.minpts, case.use_densebox) == (
        "sdss", 1138, 12, True
    )
    outcome = run_case(case)
    assert outcome.ok, outcome.failures
    assert outcome.metamorphic["transform"] == "ok"


def test_small_sweep_smoke():
    seen = []
    report = run_sweep(
        3, seed=0, metamorphic=False, max_points=400, min_points=250,
        on_case=seen.append,
    )
    assert report.n_cases == 3 and len(seen) == 3
    assert report.ok, report.describe()
    assert "3 fuzz case(s): all equivalent" in report.describe()
    assert report.as_dict()["n_failed"] == 0


# ------------------------------ shrinking ------------------------------ #


def test_shrink_reaches_fixed_point_on_synthetic_predicate():
    """A predicate independent of faults/densebox/minpts shrinks all of
    them away and halves n_points down to the threshold."""
    case = FuzzCase(
        seed=1, dataset="uniform", n_points=800, eps=0.5, minpts=10,
        n_leaves=8, fanout=4, use_densebox=True, fault_seed=55,
    )
    evals = []

    def still_failing(c: FuzzCase) -> bool:
        evals.append(c)
        return c.n_points > 100

    minimal = shrink_case(case, still_failing)
    assert minimal.fault_seed is None
    assert minimal.n_points == 200  # 800 -> 400 -> 200; 100 no longer fails
    assert minimal.n_leaves == 1
    assert minimal.fanout == 2
    assert not minimal.use_densebox
    assert minimal.minpts == 3
    assert len(evals) <= 32


def test_shrink_keeps_case_when_nothing_reducible():
    case = FuzzCase(
        seed=2, dataset="blobs", n_points=64, eps=0.3, minpts=3,
        n_leaves=1, fanout=2, use_densebox=False,
    )
    assert shrink_case(case, lambda c: True) == case


def test_shrink_respects_max_steps():
    case = generate_case(4)
    count = [0]

    def still_failing(c):
        count[0] += 1
        return True

    shrink_case(case, still_failing, max_steps=5)
    assert count[0] <= 5


# --------------------- injected-bug smoke test ------------------------- #


def test_harness_catches_representative_selection_defect(monkeypatch, tmp_path):
    """Acceptance criterion: with invariant checking OFF, the differential
    comparator alone must catch a seeded representative-selection bug
    (here: a merge phase blinded by empty representative sets, which
    splits every cluster that spans a partition boundary)."""
    from repro.merge import merger as merger_mod
    from repro.merge import summary as summary_mod

    def no_reps(coords, bounds):
        return np.empty(0, dtype=np.int64)

    # The seeded bug is a driver-process monkeypatch; a process-based
    # transport would run the leaves (unpatched) in workers: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    monkeypatch.setattr(
        summary_mod,
        "select_representatives_batch",
        lambda coords, starts, bounds: np.empty((len(starts), 0), dtype=np.int64),
    )
    monkeypatch.setattr(merger_mod, "select_representatives", no_reps)

    case = FuzzCase(
        seed=7, dataset="ring", n_points=600, eps=0.4, minpts=4,
        n_leaves=4, fanout=2, use_densebox=False,
    )
    outcome = run_case(case, validate="off", metamorphic=False)
    assert not outcome.ok
    assert any("do not biject" in f for f in outcome.failures)
    assert outcome.n_clusters_got > outcome.n_clusters_ref == 1

    # The sweep machinery shrinks it and writes a replayable artifact.
    from repro.validate.fuzz import SweepReport

    report = SweepReport(outcomes=[outcome])
    paths = minimize_failures(
        report, tmp_path, validate="off", metamorphic=False
    )
    assert len(paths) == 1
    minimal = load_case(paths[0])
    assert minimal.n_points <= case.n_points
    assert not run_case(minimal, validate="off", metamorphic=False).ok
