"""Differential and metamorphic properties of the pipeline vs exact DBSCAN.

Each property draws a :class:`FuzzCase` and holds the pipeline to
:func:`repro.validate.labels_equivalent`, strict: exact core mask,
bijective core clusters, legal borders, the reference's noise set.  Tier 1
runs the ``@example``\\ s and five derandomized draws; ``MRSCAN_FUZZ=1
pytest -m fuzz --hypothesis-seed=N`` runs 150 draws.  Pin a falsifying
``FuzzCase(...)`` with ``@example(case=...)`` to replay it.  The
differential on the ``mixture`` family is
``core/test_pipeline_property.py::test_property_pipeline_matches_reference``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from fuzz_cases import (
    DATASETS, FuzzCase, assert_exact_dbscan, assert_matches_reference, fuzz_cases, generate_case,
)
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.core.pipeline import run_pipeline
from repro.dbscan import dbscan_reference
from repro.merge import merger as merger_mod, summary as summary_mod
from repro.points import PointSet

pytestmark = pytest.mark.fuzz
fuzz_settings = settings(
    max_examples=150 if os.environ.get("MRSCAN_FUZZ") == "1" else 5,
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
)



#: Partitions cut the ring, so merging must find every crossing.
RING = FuzzCase(
    7, "ring", 600, 0.4, minpts=4, n_leaves=4, fanout=2, use_densebox=False, validate="off"
)


@fuzz_settings
@given(case=fuzz_cases(DATASETS))
@example(case=RING)
def test_property_matches_reference(case):
    assert_matches_reference(case)


@fuzz_settings
@given(case=fuzz_cases())
def test_property_permutation_invariant(case):
    """Shuffling point order changes no point's clustering."""
    points = case.points()
    perm = np.random.default_rng(case.seed + 101).permutation(len(points))
    res = run_pipeline(points.take(perm), case.config())
    labels, core = np.empty_like(res.labels), np.empty_like(res.core_mask)
    labels[perm], core[perm] = res.labels, res.core_mask
    assert_exact_dbscan(points, case.eps, case.minpts, labels, core)


@fuzz_settings
@given(case=fuzz_cases())
# 9 borders of box-only cores stayed noise after the transform while box
# members did not claim
@example(case=FuzzCase(
    197, "sdss", 1138, 0.13358229836043026, minpts=12, n_leaves=6, fanout=3
))
def test_property_translate_scale_invariant(case):
    """Translating and scaling by a power of two (Eps alike: exact in floating
    point) preserves the clustering, unless it flips a tie in the oracle."""
    points = case.points()
    rng = np.random.default_rng(case.seed + 202)
    scale = float(rng.choice([0.5, 2.0, 4.0]))
    moved = PointSet.from_coords(points.coords * scale + rng.integers(-64, 65, size=2))
    eps = case.eps * scale
    assume(np.array_equal(
        dbscan_reference(moved, eps, case.minpts).core_mask,
        dbscan_reference(points, case.eps, case.minpts).core_mask,
    ))
    res = run_pipeline(moved, case.config(eps=eps))
    assert_exact_dbscan(moved, eps, case.minpts, res.labels, res.core_mask)


@fuzz_settings
@given(case=fuzz_cases())
def test_property_duplicates_idempotent(case):
    """Exact copies of points take their twin's label and core status, and
    only ever promote points to core, never demote them."""
    points = case.points()
    n = len(points)
    rng = np.random.default_rng(case.seed + 303)
    idx = rng.choice(n, size=min(40, max(1, n // 5)), replace=False)
    doubled = PointSet.from_coords(np.vstack([points.coords, points.coords[idx]]))
    res = run_pipeline(doubled, case.config())
    np.testing.assert_array_equal(res.labels[idx], res.labels[n:])
    np.testing.assert_array_equal(res.core_mask[idx], res.core_mask[n:])
    ref = dbscan_reference(points, case.eps, case.minpts)
    assert not np.any(ref.core_mask & ~res.core_mask[:n]), "a duplicate demoted a core"


def test_harness_catches_representative_selection_defect(monkeypatch):
    """With invariant checking off, the differential property alone catches
    a merge blinded by empty representative sets: it splits the ring."""
    differential = test_property_matches_reference.hypothesis.inner_test
    # The defect patches this process; pool workers would run unpatched.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    differential(RING)
    for module in (summary_mod, merger_mod):
        monkeypatch.setattr(
            module, "select_representatives_batch",
            lambda coords, starts, bounds: np.empty((len(starts), 0), dtype=np.int64),
        )
    with pytest.raises(AssertionError, match="do not biject"):
        differential(RING)


def test_run_case_clean_seed_passes():
    """A clean blobs case passes the differential and every metamorphic
    property."""
    case = FuzzCase(5, "blobs", 400, 0.3, minpts=5, n_leaves=4, fanout=2, use_densebox=False)
    assert dbscan_reference(case.points(), case.eps, case.minpts).n_clusters > 0
    for prop in (
        test_property_matches_reference, test_property_permutation_invariant,
        test_property_translate_scale_invariant, test_property_duplicates_idempotent,
    ):
        given(case=st.just(case))(prop.hypothesis.inner_test)()


def test_run_case_with_faults_still_equivalent():
    case = FuzzCase(6, "moons", 350, 0.25, minpts=5, n_leaves=4, fanout=2, fault_seed=123)
    assert case.config().fault_plan is not None
    test_property_matches_reference.hypothesis.inner_test(case)


# ------------------------ the seed -> case corpus ----------------------- #


def test_corpus_derivation_is_pinned():
    """The seed -> case derivation the corpus tests share has not shifted."""
    assert generate_case(42, max_points=500, fault_fraction=0.0) == FuzzCase(
        42, "blobs", 444, 0.487942897948579, minpts=7, n_leaves=8, fanout=2,
        use_densebox=True, fault_seed=None,
    )


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
    armed = FuzzCase(1, "blobs", 300, 0.3, minpts=5, n_leaves=4, fanout=2, fault_seed=77)
    unarmed = FuzzCase(1, "blobs", 300, 0.3, minpts=5, n_leaves=4, fanout=2)
    plan = armed.fault_plan()
    assert plan is not None and len(plan.faults) > 0
    assert unarmed.fault_plan() is None
    assert isinstance(armed.config().fault_plan, type(plan))
    assert unarmed.config().fault_plan is None
    # same seed -> same plan
    assert repr(armed.fault_plan().faults) == repr(plan.faults)
