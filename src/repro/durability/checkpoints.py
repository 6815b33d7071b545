"""Phase-boundary checkpoints: partition plan, merge table, sweep output.

The per-*leaf* spill store (:class:`repro.resilience.LeafCheckpointStore`)
makes the cluster phase resumable one leaf at a time; this store does the
same for the other three phase boundaries, each written exactly once when
its phase completes (and validates — the journal's write-ahead
discipline: a checkpoint on disk has passed its phase's invariant
checks).

Payloads are pickled whole — a ``PartitionPhaseResult``, the merge's
``(root_summary, GlobalIdAssignment)`` pair, the sweep's
``(labels, core_mask)`` arrays — into ``<phase>.bin`` plus a JSON
manifest with a sha256 digest, written via temp-file + ``os.replace``
with the manifest last, exactly like the leaf store: a crash
mid-checkpoint leaves no manifest and the phase simply re-runs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from pathlib import Path
from typing import Any

from ..errors import CheckpointError
from ..resilience.checkpoint import CORRUPT_CHECKPOINT_ERRORS, loads_blob

__all__ = ["PHASE_NAMES", "PhaseCheckpointStore"]

logger = logging.getLogger(__name__)

#: Phase boundaries this store checkpoints (cluster is covered per-leaf).
PHASE_NAMES = ("partition", "merge", "sweep")


class PhaseCheckpointStore:
    """Atomic save/load of one pickled payload per pipeline phase."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _data_path(self, phase: str) -> Path:
        return self.root / f"{phase}.bin"

    def _meta_path(self, phase: str) -> Path:
        return self.root / f"{phase}.json"

    def _check_phase(self, phase: str) -> None:
        if phase not in PHASE_NAMES:
            raise CheckpointError(
                f"unknown phase {phase!r}; expected one of {PHASE_NAMES}"
            )

    def has(self, phase: str) -> bool:
        self._check_phase(phase)
        return self._data_path(phase).exists() and self._meta_path(phase).exists()

    def save(self, phase: str, payload: Any) -> Path:
        """Persist one phase's payload atomically; returns the data path."""
        self._check_phase(phase)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        data_path = self._data_path(phase)
        tmp = data_path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, data_path)
        finally:
            if tmp.exists():
                tmp.unlink()
        manifest = {
            "phase": phase,
            "n_bytes": len(blob),
            "digest": hashlib.sha256(blob).hexdigest(),
        }
        meta_path = self._meta_path(phase)
        meta_tmp = meta_path.with_suffix(f".tmp.{os.getpid()}")
        meta_tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        os.replace(meta_tmp, meta_path)
        return data_path

    def load(self, phase: str) -> Any:
        """Recover one phase's payload, verifying the manifest digest.

        Raises :class:`CheckpointError` on a missing, truncated, or
        digest-mismatched checkpoint — callers treat that as "this phase
        re-runs", never as a fatal error.
        """
        self._check_phase(phase)
        data_path = self._data_path(phase)
        meta_path = self._meta_path(phase)
        if not (data_path.exists() and meta_path.exists()):
            raise CheckpointError(f"no {phase} checkpoint under {self.root}")
        try:
            manifest = json.loads(meta_path.read_text(encoding="utf-8"))
            blob = data_path.read_bytes()
            if manifest.get("digest") != hashlib.sha256(blob).hexdigest():
                logger.warning(
                    "%s checkpoint digest mismatch under %s; phase will re-run",
                    phase, self.root,
                )
                raise CheckpointError(
                    f"{phase} checkpoint digest mismatch (corrupt file)"
                )
            return loads_blob(blob)
        except CheckpointError:
            raise
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            logger.warning(
                "unreadable %s checkpoint under %s (%s: %s); phase will re-run",
                phase, self.root, type(exc).__name__, exc,
            )
            raise CheckpointError(
                f"unreadable {phase} checkpoint: {exc}"
            ) from exc

    def clear(self) -> int:
        """Delete all phase checkpoints; returns how many were present."""
        n = 0
        for phase in PHASE_NAMES:
            for path in (self._data_path(phase), self._meta_path(phase)):
                if path.exists():
                    path.unlink()
                    n += 1
        return n
