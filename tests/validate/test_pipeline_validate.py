"""Integration: ``MrScanConfig.validate`` wired through ``run_pipeline``.

Clean tier-1 configs must pass every checker; seeded defects injected
into pipeline collaborators must surface as ``ValidationError`` naming
the paper invariant that broke.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from cuda_dclust_reference import cuda_dclust_leaves

from repro.core import MrScanConfig
from repro.core.pipeline import mrscan, run_pipeline
from repro.durability import PhaseCheckpointStore, replay_journal
from repro.errors import ConfigError, ValidationError
from repro.merge import GlobalIdAssignment
from repro.resilience import LeafCheckpointStore
from repro.validate import assert_resume_equivalent


def _config(**overrides) -> MrScanConfig:
    base = dict(eps=0.25, minpts=8, n_leaves=4, fanout=2, backoff_base=0.0)
    base.update(overrides)
    return MrScanConfig(**base)


def test_config_rejects_unknown_level():
    with pytest.raises(ConfigError):
        _config(validate="paranoid")


def test_validate_off_attaches_no_report(blobs_with_noise):
    result = run_pipeline(blobs_with_noise, _config())
    assert result.validation is None


@pytest.mark.parametrize("level,expected_checks", [("cheap", 6), ("full", 9)])
def test_tier1_config_passes_validation(blobs_with_noise, level, expected_checks):
    """The acceptance criterion: tier-1 pipeline configs report zero
    violations under ``--validate full`` (and cheap)."""
    result = run_pipeline(blobs_with_noise, _config(validate=level))
    report = result.validation
    assert report is not None and report.ok
    assert report.level == level
    assert report.n_checks == expected_checks
    assert {c.phase for c in report.checks} == {
        "partition", "cluster", "merge", "sweep",
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_leaves=1),
        dict(n_leaves=8, fanout=4),
        dict(use_densebox=False),
        dict(leaves=cuda_dclust_leaves, transport="local"),
        dict(partition_output="network"),
    ],
)
def test_validation_clean_across_pipeline_variants(blobs_with_noise, kwargs):
    kwargs = dict(kwargs)
    with kwargs.pop("leaves", nullcontext)():
        result = run_pipeline(
            blobs_with_noise, _config(validate="full", **kwargs)
        )
    assert result.validation.ok


def test_validation_emits_telemetry(blobs_with_noise):
    result = mrscan(
        blobs_with_noise, 0.25, 8, n_leaves=4, fanout=2,
        telemetry=True, validate="full",
    )
    metrics = result.telemetry.metrics.as_dict()
    assert metrics["validate.checks"]["value"] == 9
    assert "validate.check_seconds" in metrics
    assert "validate.violations" not in metrics  # clean run increments none


def test_validation_matches_unvalidated_labels(blobs_with_noise):
    """Checkers observe, never mutate: labels are identical with and
    without validation."""
    plain = run_pipeline(blobs_with_noise, _config())
    checked = run_pipeline(blobs_with_noise, _config(validate="full"))
    assert np.array_equal(plain.labels, checked.labels)
    assert np.array_equal(plain.core_mask, checked.core_mask)


# ------------------------- injected defects ---------------------------- #


def test_injected_representative_defect_is_caught(blobs_with_noise, monkeypatch):
    """Seeded representative-selection bug (keep only one representative
    per cell): the Fig-5 coverage checker must flag it after the cluster
    phase."""
    from repro.merge import summary as summary_mod

    # Injected-defect tests patch driver-process collaborators, which a
    # process-based transport would run (unpatched) in workers: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    real = summary_mod.select_representatives_batch

    def truncated(coords, starts, bounds):
        return real(coords, starts, bounds)[:, :1]

    monkeypatch.setattr(summary_mod, "select_representatives_batch", truncated)
    with pytest.raises(ValidationError) as exc_info:
        run_pipeline(blobs_with_noise, _config(validate="full"))
    invariants = {v.invariant for v in exc_info.value.violations}
    assert "cluster.representative_coverage" in invariants


def test_injected_sweep_corruption_is_caught(blobs_with_noise, monkeypatch):
    """Flipping one final label breaks the sweep recombination check."""
    from repro.core import pipeline as pipeline_mod

    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    real = pipeline_mod.sweep_gather

    def corrupted(cuts, assignment, n):
        swept = real(cuts, assignment, n)
        labels = swept.labels
        idx = int(np.flatnonzero(labels >= 0)[0])
        labels[idx] = labels.max() if labels[idx] != labels.max() else 0
        return swept

    monkeypatch.setattr(pipeline_mod, "sweep_gather", corrupted)
    with pytest.raises(ValidationError) as exc_info:
        run_pipeline(blobs_with_noise, _config(validate="full"))
    invariants = {v.invariant for v in exc_info.value.violations}
    assert "sweep.owner_precedence" in invariants


def test_injected_global_id_gap_is_caught(blobs_with_noise, monkeypatch):
    """Shifting global ids off 0..k-1 breaks the merge bijection check."""
    from repro.core import pipeline as pipeline_mod

    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    real = pipeline_mod.MergeFilter.root

    def shifted(self, payloads):
        assignment = real(self, payloads)
        return GlobalIdAssignment(assignment.keys, assignment.gids + 1, assignment.n_clusters)

    monkeypatch.setattr(pipeline_mod.MergeFilter, "root", shifted)
    with pytest.raises(ValidationError) as exc_info:
        run_pipeline(blobs_with_noise, _config(validate="full"))
    invariants = {v.invariant for v in exc_info.value.violations}
    assert "merge.global_id_bijection" in invariants


def test_cheap_level_skips_expensive_checker(blobs_with_noise, monkeypatch):
    """The truncated-representative defect is only visible to the *full*
    level; cheap must not pay for (or catch) the geometric check."""
    from repro.merge import summary as summary_mod

    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    real = summary_mod.select_representatives_batch
    monkeypatch.setattr(
        summary_mod,
        "select_representatives_batch",
        lambda coords, starts, bounds: real(coords, starts, bounds)[:, :1],
    )
    result = run_pipeline(blobs_with_noise, _config(validate="cheap"))
    assert result.validation.ok  # bound (≤8) still holds; coverage not run


# --------------------- write-ahead under validation --------------------- #
# The same three defects, in forms the ``cheap`` checks see: a production
# durable run validates at that level.


def _every_core_a_representative(mp):
    from repro.merge import summary as summary_mod

    mp.setattr(
        summary_mod, "select_representatives_batch",
        lambda coords, starts, bounds: np.arange(len(coords)),
    )


def _global_id_gap(mp):
    from repro.core import pipeline as pipeline_mod

    real = pipeline_mod.MergeFilter.root

    def shifted(self, payloads):
        assignment = real(self, payloads)
        return GlobalIdAssignment(assignment.keys, assignment.gids + 1, assignment.n_clusters)

    mp.setattr(pipeline_mod.MergeFilter, "root", shifted)


def _label_past_the_last_cluster(mp):
    from repro.core import pipeline as pipeline_mod

    real = pipeline_mod.sweep_gather

    def corrupted(cuts, assignment, n):
        swept = real(cuts, assignment, n)
        swept.labels[int(np.flatnonzero(swept.labels >= 0)[0])] = assignment.n_clusters
        return swept

    mp.setattr(pipeline_mod, "sweep_gather", corrupted)


@pytest.mark.parametrize(
    "phase, defect, invariant, restored",
    [
        ("cluster", _every_core_a_representative, "cluster.representative_bound",
         ["partition"]),
        ("merge", _global_id_gap, "merge.global_id_bijection", ["partition"]),
        ("sweep", _label_past_the_last_cluster, "sweep.ownership", ["partition", "merge"]),
    ],
)
def test_a_phase_is_journaled_done_only_once_validated(
    blobs_with_noise, tmp_path, monkeypatch, phase, defect, invariant, restored
):
    """A phase whose checks fail leaves no checkpoint and no
    ``<phase>_done`` record, so a clean resume re-runs it."""
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    config = _config(validate="cheap", run_dir=str(tmp_path))
    fresh = run_pipeline(blobs_with_noise, _config(validate="cheap"))
    with monkeypatch.context() as mp:
        defect(mp)
        with pytest.raises(ValidationError) as exc_info:
            run_pipeline(blobs_with_noise, config)
    assert invariant in {v.invariant for v in exc_info.value.violations}

    phases = ("partition", "cluster", "merge", "sweep")
    types = [r.type for r in replay_journal(tmp_path / "journal.jsonl")]
    assert [f"{p}_done" in types for p in phases] == [
        p in phases[:phases.index(phase)] for p in phases
    ]
    checkpoints = tmp_path / "checkpoints"
    if phase == "cluster":  # its checkpoints are the leaves' spills
        spills = LeafCheckpointStore(checkpoints / "leaves")
        assert not any(spills.has(pid) for pid in range(config.n_leaves))
    else:
        assert not PhaseCheckpointStore(checkpoints).has(phase)

    resumed = run_pipeline(blobs_with_noise, replace(config, resume=True))
    assert resumed.phases_restored == restored
    assert resumed.validation.ok
    assert_resume_equivalent(fresh, resumed)
