"""One atomic blob store: every durable file the system writes.

A clustering leaf is the expensive unit of work in Mr. Scan — re-running
one after a crash wastes a full GPU DBSCAN pass — so its output, with
the state its next append starts from, is spilled the moment it is
produced; the other three phase boundaries (partition plan, merge
table, sweep output) are checkpointed once each, after their phase
validates.  Both are the same thing on disk::

    <name>.bin     the pickled payload
    <name>.json    {"n_bytes", "digest" (sha256 of the .bin), caller fields}

Every durable file — these entries, the serve WAL's batch blobs
(:class:`~repro.durability.ingestlog.BatchStore`) and the journal's
torn-tail rewrite — is written by :func:`atomic_write`: a PID-suffixed
temp file, fsynced, ``os.replace``\\ d into place, the temp file removed
on any failure.  An entry's manifest goes last, so a process that dies
mid-save leaves no manifest (or the previous one) and the entry is a
miss.

Loads verify: a missing, torn or digest-mismatched entry, any error in
:data:`CORRUPT_CHECKPOINT_ERRORS`, or a manifest field that differs from
what the caller expects raises :class:`~repro.errors.CheckpointError`,
which callers treat as "recompute", never as fatal.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import pickle
import zipfile
from pathlib import Path
from typing import IO, Any, Callable

from ..errors import CheckpointError, MergeError

__all__ = [
    "CORRUPT_CHECKPOINT_ERRORS",
    "LeafCheckpointStore",
    "PHASE_NAMES",
    "PhaseCheckpointStore",
    "atomic_write",
    "loads_blob",
]

logger = logging.getLogger(__name__)

#: Phase boundaries :class:`PhaseCheckpointStore` holds (cluster is
#: covered per-leaf).
PHASE_NAMES = ("partition", "merge", "sweep")

#: Everything a truncated/garbled file can raise on load.  ``np.load``
#: on a torn npz raises :class:`zipfile.BadZipFile` (npz *is* a zip) or
#: ``EOFError``, and a damaged pickle blob raises ``UnpicklingError`` —
#: none of which are ``OSError``/``ValueError``, so the obvious catch
#: tuple lets corruption escape as a crash instead of a miss.  A blob
#: that unpickles into summary columns of inconsistent lengths raises
#: :class:`~repro.errors.MergeError` (``merge.summary``).
CORRUPT_CHECKPOINT_ERRORS: tuple[type[BaseException], ...] = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    json.JSONDecodeError,
    zipfile.BadZipFile,
    pickle.UnpicklingError,
    MergeError,
)


class _BlobUnpickler(pickle.Unpickler):
    """An unpickler that reads a blob naming a class this build no longer
    has (an older layout, e.g. the retired summary object graph) as a
    damaged blob: ``UnpicklingError``, hence a miss, not an escaping
    ``AttributeError``."""

    def find_class(self, module: str, name: str) -> Any:
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError) as exc:
            raise pickle.UnpicklingError(f"blob names {module}.{name}, which is gone") from exc


def loads_blob(blob: bytes) -> Any:
    """``pickle.loads`` for checkpoint blobs (see :class:`_BlobUnpickler`)."""
    return _BlobUnpickler(io.BytesIO(blob)).load()


def atomic_write(path: Path, write: Callable[[IO[bytes]], Any]) -> None:
    """Make ``path`` hold exactly what ``write(fh)`` writes, or leave it
    as it was: temp file, flush, fsync, ``os.replace``.  The temp file
    never outlives the call."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _BlobStore:
    """``<name>.bin`` + ``<name>.json`` entries under one directory.

    Safe to share between processes as long as each entry has one
    writer: every write goes through a PID-suffixed temp file.
    """

    #: What the caller does about a damaged entry (for the warning).
    _on_miss: str

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _paths(self, name: str) -> tuple[Path, Path]:
        return self.root / f"{name}.bin", self.root / f"{name}.json"

    def _has(self, name: str) -> bool:
        return all(path.exists() for path in self._paths(name))

    def _save(self, name: str, payload: Any, **fields: Any) -> Path:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = dict(fields, n_bytes=len(blob), digest=hashlib.sha256(blob).hexdigest())
        data, meta = self._paths(name)
        atomic_write(data, lambda fh: fh.write(blob))
        atomic_write(meta, lambda fh: fh.write(json.dumps(manifest, indent=1).encode()))
        return data

    def _load(self, name: str, what: str, **expect: Any) -> Any:
        if not self._has(name):
            raise CheckpointError(f"no checkpoint for {what} under {self.root}")
        data, meta = self._paths(name)
        try:
            manifest = json.loads(meta.read_text(encoding="utf-8"))
            for key, want in expect.items():
                if manifest.get(key) != want:
                    raise CheckpointError(
                        f"checkpoint for {what} was produced by {key} "
                        f"{manifest.get(key)!r}, not {want!r}"
                    )
            blob = data.read_bytes()
            if len(blob) != manifest.get("n_bytes"):
                raise CheckpointError(
                    f"unreadable checkpoint for {what}: torn file "
                    f"({len(blob)} of {manifest.get('n_bytes')} bytes)"
                )
            if manifest.get("digest") != hashlib.sha256(blob).hexdigest():
                raise CheckpointError(f"checkpoint digest mismatch for {what} (corrupt file)")
            return loads_blob(blob)
        except CheckpointError as exc:
            logger.warning("%s: %s; %s", self.root, exc, self._on_miss)
            raise
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            logger.warning(
                "%s: unreadable checkpoint for %s (%s: %s); %s",
                self.root, what, type(exc).__name__, exc, self._on_miss,
            )
            raise CheckpointError(f"unreadable checkpoint for {what}: {exc}") from exc

    def _unlink(self, name: str) -> int:
        """Remove one entry, manifest first (a crash in between leaves a
        miss, not a data file a later manifest could adopt); returns how
        many of its files existed."""
        present = [path for path in reversed(self._paths(name)) if path.exists()]
        for path in present:
            path.unlink(missing_ok=True)
        return len(present)


class PhaseCheckpointStore(_BlobStore):
    """One pickled payload per phase in :data:`PHASE_NAMES`: a
    ``PartitionPhaseResult``, the merge's ``GlobalIdAssignment``, the
    sweep's ``(labels, core_mask)``."""

    _on_miss = "phase will re-run"

    @staticmethod
    def _name(phase: str) -> str:
        if phase not in PHASE_NAMES:
            raise CheckpointError(
                f"unknown phase {phase!r}; expected one of {PHASE_NAMES}"
            )
        return phase

    def has(self, phase: str) -> bool:
        return self._has(self._name(phase))

    def save(self, phase: str, payload: Any) -> Path:
        """Persist one phase's payload atomically; returns the data path."""
        return self._save(self._name(phase), payload, phase=phase)

    def load(self, phase: str) -> Any:
        """Recover one phase's payload (:class:`CheckpointError` on a
        missing or damaged checkpoint)."""
        return self._load(self._name(phase), f"phase {phase}")

    def clear(self) -> int:
        """Delete all phase checkpoints; returns how many files were present."""
        return sum(self._unlink(phase) for phase in PHASE_NAMES)


class LeafCheckpointStore(_BlobStore):
    """Per-leaf spill files of a batch run directory: ``leaf_%04d``
    entries, each one pickled leaf output
    (``repro.core.pipeline._ClusterLeafOutput``).  Several worker
    processes may share the store; each leaf writes only its own entry."""

    _on_miss = "re-clustering"

    @staticmethod
    def _name(leaf_id: int) -> str:
        return f"leaf_{leaf_id:04d}"

    def has(self, leaf_id: int) -> bool:
        return self._has(self._name(leaf_id))

    def save(self, leaf_id: int, output: Any, *, engine: str | None = None) -> Path:
        """Persist one leaf's output as given (the leaf spills it before
        its spans are attached); returns the data path.

        ``engine`` records which cluster engine produced the output so a
        later run under a different engine refuses to replay it (see
        :meth:`load`).
        """
        return self._save(self._name(leaf_id), output, leaf_id=int(leaf_id), engine=engine)

    def load(self, leaf_id: int, *, expected_engine: str | None = None) -> Any:
        """Recover one leaf's output (:class:`CheckpointError` on a miss).

        With ``expected_engine`` set, a checkpoint recorded under any
        other engine — including one that recorded none — is a miss:
        replaying a foreign engine's output would silently skip the
        engine this run was asked to exercise.  A spill in an older
        layout names a class this build no longer has, so it is a miss
        too (:func:`loads_blob`).
        """
        expect = {} if expected_engine is None else {"engine": expected_engine}
        return self._load(self._name(leaf_id), f"leaf {leaf_id}", **expect)

    def invalidate(self, leaf_id: int) -> bool:
        """Discard one leaf's checkpoint (e.g. its partition went dirty);
        returns whether a checkpoint existed."""
        return self._unlink(self._name(leaf_id)) == 2

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("leaf_*.json"))
