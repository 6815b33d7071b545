"""Fault tolerance for the simulated MRNet deployment.

At the paper's scale (8,192 GPGPU nodes on Titan, §5) node failure is
routine, and a density-based clustering run that loses a leaf loses an
entire partition's GPU pass.  This package gives the reproduction the
recovery machinery such a deployment needs:

* :mod:`~repro.resilience.faults` — a structured, serializable fault
  model (:class:`FaultPlan` of typed :class:`FaultSpec`\\ s; crash /
  straggler-slowdown / device-OOM), the :class:`FaultInjector` poll
  point, and the capped :class:`FaultLog` of observed
  :class:`FaultEvent`\\ s;
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` (exponential
  backoff) and :class:`ResiliencePolicy` (retries + per-attempt
  deadlines + failover) consumed by :class:`repro.mrnet.Network`;
* :class:`LeafCheckpointStore` — per-leaf spill files, so a crashed
  leaf resumes from its saved output instead of re-running the GPU pass
  (re-exported from :mod:`repro.durability.checkpoints`, the one atomic
  blob store);
* :mod:`~repro.resilience.chaos` — :class:`ChaosRunner`, which runs the
  pipeline under seeded fault plans and asserts the recovered labels are
  byte-identical to a fault-free run (imported lazily: it pulls in the
  full pipeline).
"""

from ..durability.checkpoints import LeafCheckpointStore
from .cancel import CancelToken
from .faults import (
    CRASH_POINTS,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    FaultSpec,
    as_injector,
)
from .policy import ResiliencePolicy, RetryPolicy

__all__ = [
    "CancelToken",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "CRASH_POINTS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "FaultLog",
    "as_injector",
    "RetryPolicy",
    "ResiliencePolicy",
    "LeafCheckpointStore",
    "ChaosOutcome",
    "ChaosRunner",
]


def __getattr__(name: str):
    # ChaosRunner imports the pipeline — load it lazily to keep
    # ``repro.resilience`` import-light for the Network/config layers.
    if name in ("ChaosOutcome", "ChaosRunner"):
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
