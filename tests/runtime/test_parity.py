"""Cross-transport parity: identical labels under local/process/shm/tcp.

The data plane must be invisible in the output: for any seeded fuzz
case, chaos plan, or validation level, running the pipeline over the
shm transport (or the pickling process transport, or socket-framed tcp
worker agents) must produce labels byte-identical to the sequential
local transport.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.mrnet.tcp import TcpTransport
from repro.resilience import ChaosRunner, FaultPlan, FaultSpec
from repro.runtime import active_segment_names
from fuzz_cases import generate_case

pytestmark = pytest.mark.slow


def _run(points, config, transport):
    return run_pipeline(points, config, transport=transport)


# ----------------------- fuzz-seeded parity --------------------------- #


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fuzz_case_labels_identical_across_transports(seed):
    case = generate_case(seed, max_points=900, fault_fraction=0.0)
    points = case.points()
    config = case.config(validate="off", telemetry=False)
    baseline = _run(points, config, "local")
    result = _run(points, config, "shm")
    assert np.array_equal(result.labels, baseline.labels), (
        f"transport 'shm' changed labels for fuzz case seed={seed}"
    )
    assert np.array_equal(result.core_mask, baseline.core_mask)
    assert result.n_clusters == baseline.n_clusters
    # The tcp leg uses a bounded agent pool (spawning cpu_count python
    # processes per case would dominate the test's runtime).
    with TcpTransport(2) as tcp:
        result = run_pipeline(points, config, transport=tcp)
    assert np.array_equal(result.labels, baseline.labels), (
        f"transport 'tcp' changed labels for fuzz case seed={seed}"
    )
    assert np.array_equal(result.core_mask, baseline.core_mask)
    assert active_segment_names() == []  # nothing left staged


# -------------------------- chaos under shm --------------------------- #


def _chaos_config(**overrides) -> MrScanConfig:
    base = dict(
        eps=0.25, minpts=8, n_leaves=8, fanout=2,
        max_retries=2, backoff_base=0.0, transport="shm",
        transport_workers=2,
    )
    base.update(overrides)
    return MrScanConfig(**base)


@pytest.mark.chaos
def test_chaos_leaf_failover_under_shm(blobs_with_noise):
    """Permanently dead leaves under ShmTransport: the failed-over hosts
    re-resolve the same refs (arena reattach) and labels stay identical."""
    runner = ChaosRunner(blobs_with_noise, _chaos_config())
    plan = FaultPlan(
        faults=(
            FaultSpec(node=7, phase="cluster", permanent=True),
            FaultSpec(node=10, phase="cluster", permanent=True),
        ),
        seed=0,
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match
    assert outcome.fault_summary["by_action"]["failover"] >= 2
    assert active_segment_names() == []


@pytest.mark.chaos
def test_chaos_merge_crash_under_shm(blobs_with_noise):
    runner = ChaosRunner(blobs_with_noise, _chaos_config())
    plan = FaultPlan(
        faults=(FaultSpec(node=3, phase="merge", permanent=True),), seed=1
    )
    outcome = runner.run_plan(plan)
    assert outcome.completed, outcome.error
    assert outcome.labels_match
    assert active_segment_names() == []


# ----------------------- validate x shm smoke -------------------------- #


def test_validate_cheap_under_shm(blobs_with_noise):
    """--validate cheap must pass over the shm transport (the checkers
    see materialized views, no extra copies are required)."""
    config = _chaos_config(validate="cheap", telemetry=True)
    result = run_pipeline(blobs_with_noise, config)
    assert result.validation is not None
    assert result.validation.ok
    assert result.n_clusters >= 1
    # The run staged through the arena and accounted for it.
    metrics = result.telemetry.metrics
    assert metrics.counter("runtime.bytes_staged").value > 0
    assert metrics.counter("runtime.bytes_avoided").value > 0
    assert active_segment_names() == []


def test_env_var_selects_transport(monkeypatch, blobs_with_noise):
    monkeypatch.setenv("MRSCAN_TRANSPORT", "shm")
    config = MrScanConfig(eps=0.25, minpts=8, n_leaves=4, fanout=2,
                          transport_workers=2)
    assert config.resolved_transport() == "shm"
    result = run_pipeline(blobs_with_noise, config)
    assert result.n_clusters >= 1
    assert active_segment_names() == []
