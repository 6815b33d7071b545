"""Chaos × validate: recovered runs must also satisfy every invariant.

PR 2 proved recovered runs produce byte-identical labels; this file
tightens the contract — a retried, failed-over, or checkpoint-resumed run
must additionally pass the full phase-boundary invariant suite
(``repro.validate``), i.e. recovery may not merely reach the right answer
while quietly corrupting intermediate state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.resilience import ChaosRunner, FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos


def _config(**overrides) -> MrScanConfig:
    base = dict(
        eps=0.25, minpts=8, n_leaves=8, fanout=2,
        max_retries=2, backoff_base=0.0, validate="full",
    )
    base.update(overrides)
    return MrScanConfig(**base)


def test_seeded_chaos_sweep_passes_full_validation(blobs_with_noise):
    """Seed-matrix sweep with validate=full: every recovered run reports
    its invariant checks and zero violations (a violation would raise
    ValidationError and fail ``outcome.ok``)."""
    runner = ChaosRunner(blobs_with_noise, _config())
    seed = int(os.environ.get("CHAOS_SEED", "1"))
    outcomes = runner.run_seeds(
        [seed, seed + 1, seed + 2],
        nodes=range(1, 15),
        phases=("cluster", "merge", "sweep"),
        n_faults=4,
        max_delay=0.01,
    )
    report = ChaosRunner.report(outcomes)
    assert all(o.ok for o in outcomes), report
    for outcome in outcomes:
        if not outcome.completed:
            continue  # clean retry exhaustion: nothing to validate
        assert outcome.validation, "completed run carries no validation report"
        assert outcome.validation["n_violations"] == 0, outcome.validation
        assert outcome.validation["n_checks"] > 0
        assert outcome.validation["level"] == "full"


def test_failover_run_passes_full_validation(blobs_with_noise):
    """Permanently dead leaves + a dead internal node: the failed-over run
    must satisfy all invariants, not just match labels."""
    runner = ChaosRunner(blobs_with_noise, _config())
    # paper_style(8, fanout=2): internal nodes 1-6, leaves 7-14.
    plan = FaultPlan(
        faults=(
            FaultSpec(node=7, phase="cluster", permanent=True),
            FaultSpec(node=3, phase="merge", permanent=True),
        ),
        seed=0,
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match
    assert outcome.validation["n_violations"] == 0, outcome.validation


def test_checkpoint_resume_passes_full_validation(blobs_with_noise, tmp_path):
    """A checkpoint-resumed leaf (crash after its work spilled) feeds the
    same validated state downstream as a fresh clustering."""
    plan = FaultPlan(
        faults=(FaultSpec(node=3, phase="cluster", point="after"),)
    )
    config = _config(
        n_leaves=4,
        run_dir=str(tmp_path / "run"),
        fault_plan=plan,
    )
    result = run_pipeline(blobs_with_noise, config)
    assert result.checkpoint_hits == 1
    assert result.validation is not None
    assert result.validation.ok
    fresh = run_pipeline(blobs_with_noise, _config(n_leaves=4))
    assert np.array_equal(result.labels, fresh.labels)
