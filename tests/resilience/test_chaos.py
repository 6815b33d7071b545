"""Chaos harness + end-to-end recovery invariants.

The property under test: for any *recoverable* fault plan, the pipeline
completes and produces labels byte-identical to a fault-free run.  These
tests are the executable form of the PR's acceptance criteria — the
multi-fault scenario, the checkpoint no-re-run proof, and graceful OOM
degradation — and are marked ``chaos`` so CI can sweep them over a seed
matrix (``pytest -m chaos``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.gpu.device import DeviceConfig
from repro.resilience import ChaosRunner, FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos


def _config(**overrides) -> MrScanConfig:
    base = dict(
        eps=0.25, minpts=8, n_leaves=8, fanout=2,
        max_retries=2, backoff_base=0.0,
    )
    base.update(overrides)
    return MrScanConfig(**base)


@pytest.fixture
def runner(blobs_with_noise):
    return ChaosRunner(blobs_with_noise, _config())


# -------------------- the acceptance-criteria scenario ------------------ #


def test_multi_fault_plan_recovers_with_identical_labels(runner):
    """Two permanently dead leaves + one internal node dead during the
    merge + one straggler slowdown: the pipeline must complete and the
    labels must be byte-identical to the fault-free baseline."""
    # paper_style(8, fanout=2): internal nodes 1-6, leaves 7-14.
    plan = FaultPlan(
        faults=(
            FaultSpec(node=7, phase="cluster", permanent=True),
            FaultSpec(node=10, phase="cluster", permanent=True),
            FaultSpec(node=3, phase="merge", permanent=True),
            FaultSpec(node=12, phase="cluster", kind="slowdown",
                      delay_seconds=0.01),
        ),
        seed=0,
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match
    summary = outcome.fault_summary
    assert summary["by_action"]["failover"] >= 3
    assert summary["by_action"]["delayed"] == 1
    assert summary["by_kind"]["crash"] >= 3


def test_seeded_chaos_sweep_holds_invariant(runner):
    """Seed-matrix sweep (the CI job's core): every seeded plan either
    recovers with identical labels or aborts cleanly on exhaustion."""
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
    # The sweep must actually have injected something somewhere.
    assert any(o.events or not o.completed for o in outcomes), report


def test_faults_during_partition_phase_recover(runner):
    """The partition tree is a separate Network; faults on its nodes must
    retry/fail over there too and still yield identical labels."""
    plan = FaultPlan(
        faults=(
            FaultSpec(node=1, phase="partition.histogram"),
            FaultSpec(node=2, phase="partition.plan", kind="slowdown",
                      delay_seconds=0.005),
        )
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match


def test_unrecoverable_plan_aborts_cleanly(blobs_with_noise):
    """A permanent crash with retries and failover disabled is a clean
    RetryExhaustedError abort — ok (budget ran out), not a wrong answer."""
    runner = ChaosRunner(
        blobs_with_noise, _config(max_retries=0, failover=False)
    )
    outcome = runner.run_plan(
        FaultPlan(faults=(FaultSpec(node=7, phase="cluster", permanent=True),))
    )
    assert not outcome.completed
    assert outcome.ok  # clean exhaustion, invariant not violated
    assert outcome.error.startswith("RetryExhaustedError")
    assert "aborted" in outcome.describe()


# ---------------------- checkpoint no-re-run proof ---------------------- #


def test_checkpointed_leaf_does_not_recluster(
    blobs_with_noise, tmp_path, monkeypatch
):
    """A leaf that crashes *after* its work checkpointed must resume from
    the checkpoint: mrscan_gpu runs exactly once per leaf, never again for
    the crashed one, and the run reports the checkpoint hit."""
    from repro.core import pipeline as pipeline_mod

    calls: list[int] = []
    real = pipeline_mod.mrscan_gpu

    def counting(view, *args, **kwargs):
        calls.append(len(view))
        return real(view, *args, **kwargs)

    # The call counter is a driver-process monkeypatch; a process-based
    # transport would run the leaves (unpatched) in workers: pin local.
    monkeypatch.setenv("MRSCAN_TRANSPORT", "local")
    monkeypatch.setattr(pipeline_mod, "mrscan_gpu", counting)
    # paper_style(4, fanout=2): internal nodes 1-2, leaves 3-6.
    config = _config(
        n_leaves=4,
        run_dir=str(tmp_path / "run"),
        fault_plan=FaultPlan(
            faults=(FaultSpec(node=3, phase="cluster", point="after"),)
        ),
    )
    result = run_pipeline(blobs_with_noise, config)
    assert len(calls) == 4  # one clustering per leaf — no re-run on retry
    assert result.checkpoint_hits == 1
    assert result.fault_summary["by_action"] == {"retry": 1}


def test_checkpoint_recovery_matches_fresh_labels(blobs_with_noise, tmp_path):
    """Recovered-equals-fresh at pipeline scope: a checkpointed run that
    crashed mid-cluster yields the same labels as an uncheckpointed one."""
    fresh = run_pipeline(blobs_with_noise, _config(n_leaves=4))
    plan = FaultPlan(
        faults=(
            FaultSpec(node=4, phase="cluster", point="after"),
            FaultSpec(node=6, phase="cluster", point="after"),
        )
    )
    recovered = run_pipeline(
        blobs_with_noise,
        _config(
            n_leaves=4, run_dir=str(tmp_path / "run"), fault_plan=plan
        ),
    )
    assert np.array_equal(recovered.labels, fresh.labels)
    assert recovered.checkpoint_hits == 2


# ----------------------- OOM graceful degradation ----------------------- #


def test_device_oom_degrades_to_chunked_run(blobs_with_noise):
    """A device too small to hold a leaf's partition in one piece streams
    it in chunks — same labels, no fault events (handled inside the leaf)."""
    roomy = run_pipeline(blobs_with_noise, _config(n_leaves=4))
    tight = run_pipeline(
        blobs_with_noise,
        _config(n_leaves=4, device=DeviceConfig(memory_bytes=30_000)),
    )
    assert np.array_equal(tight.labels, roomy.labels)


def test_injected_oom_recovers_via_payload_rechunk(runner):
    """An *injected* OOM fails the attempt before the leaf runs, so the
    network retries it like any other failure (a real one is absorbed by
    the leaf's own re-chunking, ``test_device_oom_degrades_to_chunked_run``)."""
    outcome = runner.run_plan(
        FaultPlan(faults=(FaultSpec(node=9, phase="cluster", kind="oom"),))
    )
    assert outcome.completed, outcome.error
    assert outcome.labels_match
    assert outcome.fault_summary["by_action"] == {"retry": 1}
    assert outcome.fault_summary["by_kind"] == {"oom": 1}
