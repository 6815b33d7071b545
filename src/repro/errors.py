"""Exception hierarchy for the Mr. Scan reproduction.

Every error raised by :mod:`repro` derives from :class:`MrScanError`, so
callers can catch one type at the pipeline boundary.  Subsystems raise the
narrower classes below; constructors accept plain messages and the classes
carry no state beyond them.

Hierarchy::

    MrScanError
    ├── ConfigError (also ValueError)
    ├── PartitionError
    ├── DeviceError
    │   └── DeviceMemoryError
    ├── TransportError
    │   ├── LeafTimeoutError
    │   ├── RetryExhaustedError
    │   ├── ArenaFullError
    │   └── FrameError
    ├── TopologyError (also ValueError)
    ├── MergeError
    ├── FormatError (also ValueError)
    │   └── DataValidationError
    ├── CheckpointError
    ├── DurabilityError
    │   └── JournalError
    ├── OperationCancelledError
    │   └── DeadlineExceededError
    ├── ValidationError
    └── SimulationError

The resilience layer (:mod:`repro.resilience`) raises
:class:`LeafTimeoutError` when a node exceeds its per-attempt deadline,
:class:`RetryExhaustedError` when retry + failover budgets are spent, and
:class:`CheckpointError` when a persisted leaf checkpoint is missing or
fails its integrity check.  The first two subclass
:class:`TransportError` so pre-existing ``except TransportError`` sites
(and tests) treat them as the process failures they model.

The durability layer (:mod:`repro.durability`) raises
:class:`DurabilityError` for unusable run directories (config or dataset
fingerprint mismatch on ``--resume``) and :class:`JournalError` for a
corrupted write-ahead journal (hash-chain break, mid-stream garbage).
:class:`ArenaFullError` signals shared-memory exhaustion (``/dev/shm``
ENOSPC) while staging; the pipeline degrades to shipping the arrays
themselves instead of failing the run.  :class:`DataValidationError`
rejects NaN/Inf input rows; it subclasses :class:`FormatError` so
existing malformed-input handlers keep working.

:class:`PoisonTaskWarning` is not an error: the self-healing worker
pools emit it when a task that repeatedly killed its workers is
quarantined to in-process execution.
"""

from __future__ import annotations


class MrScanError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(MrScanError, ValueError):
    """Invalid configuration value (eps <= 0, bad topology, ...)."""


class PartitionError(MrScanError):
    """The partitioner could not produce a valid partition plan."""


class DeviceError(MrScanError):
    """Simulated GPU device misuse (out of memory, bad kernel launch)."""


class DeviceMemoryError(DeviceError):
    """Allocation exceeds the simulated device memory capacity."""


class TransportError(MrScanError):
    """MRNet transport failure (dead endpoint, undeliverable packet)."""


class LeafTimeoutError(TransportError):
    """A tree node's work exceeded its per-attempt deadline (straggler)."""


class RetryExhaustedError(TransportError):
    """A node kept failing after its full retry (and failover) budget."""


class ArenaFullError(TransportError):
    """The shared-memory arena cannot grow (``/dev/shm`` ENOSPC)."""


class FrameError(TransportError):
    """A TCP transport frame is malformed: torn mid-frame by a dropped
    connection, oversized beyond the protocol cap, or carrying a bad
    magic (a stray client speaking something else entirely)."""


class TopologyError(MrScanError, ValueError):
    """Invalid MRNet tree topology specification."""


class MergeError(MrScanError):
    """Cluster merge invariant violation."""


class FormatError(MrScanError, ValueError):
    """Malformed point file or partition metadata."""


class DataValidationError(FormatError):
    """Input points contain non-finite (NaN/Inf) coordinates or weights."""


class CheckpointError(MrScanError):
    """Leaf checkpoint is missing, unreadable, or fails its digest check."""


class DurabilityError(MrScanError):
    """A run directory cannot be used (fingerprint mismatch on resume)."""


class JournalError(DurabilityError):
    """The write-ahead run journal is corrupted (hash-chain break)."""


class OperationCancelledError(MrScanError):
    """Cooperatively cancelled work (:class:`repro.resilience.CancelToken`).

    Deliberately **not** a :class:`TransportError`: cancellation is a
    caller's decision, not a node failure, so the resilience engine must
    propagate it immediately instead of retrying or failing over.
    """


class DeadlineExceededError(OperationCancelledError):
    """An operation's deadline expired before its work completed."""


class PoisonTaskWarning(UserWarning):
    """A task that repeatedly killed its workers was quarantined and run
    in-process in the driver instead."""


class ValidationError(MrScanError):
    """A runtime phase-boundary invariant check failed (repro.validate).

    Carries the structured :class:`repro.validate.Violation` records on
    ``violations`` so callers can report *which* paper invariant broke,
    not just that one did.
    """

    def __init__(self, message: str, violations: list | None = None) -> None:
        super().__init__(message)
        #: The :class:`repro.validate.Violation` records behind the failure.
        self.violations: list = list(violations or [])


class SimulationError(MrScanError):
    """Performance-model simulation cannot proceed."""
