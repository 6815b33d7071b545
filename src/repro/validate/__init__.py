"""Runtime invariant checking + labelling equivalence.

Two oracles for the distributed pipeline:

- :mod:`repro.validate.invariants` — a registry of phase-boundary
  checkers for the invariants the paper states (§3.1–§3.3.2): disjoint
  exact-cover partitions, shadow-region Eps-completeness, the ≤ 8
  representative bound and Fig-5 reachability lemma, global-ID
  bijection, and sweep owner-precedence.  Wired into ``run_pipeline``
  behind ``MrScanConfig.validate`` (``off`` / ``cheap`` / ``full``).
- :mod:`repro.validate.equivalence` — the relabeling- and
  tie-break-aware comparator that holds a labelling to exact sequential
  DBSCAN; the differential and metamorphic hypothesis properties
  (``pytest -m fuzz``) run it on every drawn case.
"""

from .equivalence import (
    EquivalenceReport,
    assert_resume_equivalent,
    labels_equivalent,
)
from .invariants import (
    LEVELS,
    REGISTRY,
    CheckOutcome,
    InvariantChecker,
    ValidationContext,
    ValidationReport,
    Violation,
    checkers_for,
    invariant_catalog,
    register_checker,
    run_phase_checks,
)

__all__ = [
    "LEVELS",
    "REGISTRY",
    "Violation",
    "CheckOutcome",
    "ValidationReport",
    "ValidationContext",
    "InvariantChecker",
    "register_checker",
    "checkers_for",
    "invariant_catalog",
    "run_phase_checks",
    "EquivalenceReport",
    "labels_equivalent",
    "assert_resume_equivalent",
]
