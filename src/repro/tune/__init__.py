"""repro.tune — telemetry-calibrated planner for topology, transport,
and partition balance.

The paper hand-tunes Mr. Scan for Titan: tree fanout, leaf counts, and
the GPU dispatch are sized to that one machine.  This subsystem closes
the loop for everyone else.  Finished runs leave evidence
(:mod:`~repro.tune.history`: per-phase walls, per-leaf spans, dispatch
bytes), least squares turns that evidence into this-machine cost-model
coefficients (:mod:`~repro.tune.model`), and a deterministic search over
the configuration space turns the model into a plan
(:mod:`~repro.tune.planner`) — including the "don't parallelize" answer
below the break-even size and skew-aware partition splitting of the
recorded slowest leaf.

Surfaces: ``mrscan tune`` (recommend / ``--apply`` / ``--explain``) and
``MrScanConfig.auto_tune`` / ``mrscan cluster --auto-tune``.
"""

from .history import (
    PROFILE_SCHEMA,
    ProfileStore,
    RunProfile,
    default_tune_dir,
    profile_from_result,
    profile_from_run_dir,
    profile_from_summary_json,
)
from .model import MIN_FIT_ROWS, PlannerCostModel, PredictedWalls, calibrate
from .planner import (
    PLAN_SCHEMA,
    TunePlan,
    WorkloadFingerprint,
    auto_tune_config,
    fingerprint_workload,
    plan,
    suggest_partition_hints,
)

__all__ = [
    "MIN_FIT_ROWS",
    "PLAN_SCHEMA",
    "PROFILE_SCHEMA",
    "PlannerCostModel",
    "PredictedWalls",
    "ProfileStore",
    "RunProfile",
    "TunePlan",
    "WorkloadFingerprint",
    "auto_tune_config",
    "calibrate",
    "default_tune_dir",
    "fingerprint_workload",
    "plan",
    "profile_from_result",
    "profile_from_run_dir",
    "profile_from_summary_json",
    "suggest_partition_hints",
]
