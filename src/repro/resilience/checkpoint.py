"""Per-leaf cluster-output checkpoints (spill files).

A clustering leaf is the expensive unit of work in Mr. Scan — re-running
one after a crash wastes a full GPU DBSCAN pass.  The store persists each
leaf's output the moment it is produced, in the spirit of the
:mod:`repro.io.partition_files` spill format: one binary artifact per
leaf plus a tiny JSON manifest with an integrity digest.

Layout under the checkpoint root::

    leaf_0007.npz        labels / core_mask / n_owned arrays + pickled
                         summary/stats blob (as a uint8 array)
    leaf_0007.json       {"leaf_id", "n_points", "digest"}

Writes are atomic (temp file + rename, manifest last) so a process that
dies *mid-checkpoint* leaves no manifest and the leaf simply re-runs.  A
manifest whose digest does not match the artifact raises
:class:`~repro.errors.CheckpointError` on load; callers treat that like a
cache miss and recompute.  :meth:`LeafCheckpointStore.load` therefore
guarantees the recovered output is byte-identical to what was saved —
the "recovered equals fresh" invariant is checked at save time via the
digest and can be re-asserted with :meth:`verify`.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import pickle
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CheckpointError, MergeError

__all__ = ["CheckpointedLeaf", "LeafCheckpointStore", "CORRUPT_CHECKPOINT_ERRORS", "loads_blob"]

logger = logging.getLogger(__name__)

#: Everything a truncated/garbled artifact can raise on load.  ``np.load``
#: on a torn npz raises :class:`zipfile.BadZipFile` (npz *is* a zip) or
#: ``EOFError``, and a damaged pickle blob raises ``UnpicklingError`` —
#: none of which are ``OSError``/``ValueError``, so the obvious catch
#: tuple lets corruption escape as a crash instead of a cache miss.  A
#: blob that unpickles into summary columns of inconsistent lengths
#: raises :class:`~repro.errors.MergeError` (``merge.summary``).
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


@dataclass
class CheckpointedLeaf:
    """One recovered leaf output."""

    leaf_id: int
    labels: np.ndarray
    core_mask: np.ndarray
    n_owned: int
    summary: Any
    stats: Any
    #: Cluster engine that produced the output (``None`` on checkpoints
    #: written before engines were recorded).
    engine: str | None = None


def _digest(labels: np.ndarray, core_mask: np.ndarray, blob: bytes) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(labels).tobytes())
    h.update(np.ascontiguousarray(core_mask).tobytes())
    h.update(blob)
    return h.hexdigest()


class LeafCheckpointStore:
    """Persist and recover per-leaf clustering outputs.

    The store is safe to open from several worker processes at once: each
    leaf writes only its own pair of files, and writes go through a
    PID-suffixed temp file renamed into place.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Same-process counters (informational; workers in other
        #: processes keep their own).
        self.hits = 0
        self.misses = 0

    def _data_path(self, leaf_id: int) -> Path:
        return self.root / f"leaf_{leaf_id:04d}.npz"

    def _meta_path(self, leaf_id: int) -> Path:
        return self.root / f"leaf_{leaf_id:04d}.json"

    def has(self, leaf_id: int) -> bool:
        return self._meta_path(leaf_id).exists() and self._data_path(leaf_id).exists()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def save(
        self,
        leaf_id: int,
        *,
        labels: np.ndarray,
        core_mask: np.ndarray,
        n_owned: int,
        summary: Any,
        stats: Any,
        engine: str | None = None,
    ) -> Path:
        """Persist one leaf's output atomically; returns the data path.

        ``engine`` records which cluster engine produced the output so a
        later run under a different engine refuses to replay it (see
        :meth:`load`).
        """
        blob = pickle.dumps(
            {"summary": summary, "stats": stats}, protocol=pickle.HIGHEST_PROTOCOL
        )
        data_path = self._data_path(leaf_id)
        meta_path = self._meta_path(leaf_id)
        tmp = data_path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    labels=np.ascontiguousarray(labels),
                    core_mask=np.ascontiguousarray(core_mask),
                    n_owned=np.int64(n_owned),
                    blob=np.frombuffer(blob, dtype=np.uint8),
                )
            os.replace(tmp, data_path)
        finally:
            if tmp.exists():
                tmp.unlink()
        manifest = {
            "leaf_id": int(leaf_id),
            "n_points": int(len(labels)),
            "digest": _digest(labels, core_mask, blob),
            "engine": engine,
        }
        meta_tmp = meta_path.with_suffix(f".tmp.{os.getpid()}")
        meta_tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        os.replace(meta_tmp, meta_path)
        return data_path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def load(
        self, leaf_id: int, *, expected_engine: str | None = None
    ) -> CheckpointedLeaf:
        """Recover one leaf's output, verifying the manifest digest.

        With ``expected_engine`` set, a checkpoint recorded under any
        other engine — including legacy checkpoints that recorded none —
        raises :class:`~repro.errors.CheckpointError`, which callers
        treat as a miss: engines are label-identical, but replaying a
        foreign engine's output would silently skip the engine this run
        was asked to exercise.
        """
        meta_path = self._meta_path(leaf_id)
        data_path = self._data_path(leaf_id)
        if not (meta_path.exists() and data_path.exists()):
            self.misses += 1
            raise CheckpointError(f"no checkpoint for leaf {leaf_id} under {self.root}")
        try:
            manifest = json.loads(meta_path.read_text(encoding="utf-8"))
            if expected_engine is not None and manifest.get("engine") != expected_engine:
                self.misses += 1
                logger.warning(
                    "checkpoint for leaf %d was produced by engine %r, run wants %r; "
                    "re-clustering",
                    leaf_id,
                    manifest.get("engine"),
                    expected_engine,
                )
                raise CheckpointError(
                    f"checkpoint for leaf {leaf_id} was produced by engine "
                    f"{manifest.get('engine')!r}, not {expected_engine!r}"
                )
            with np.load(data_path) as npz:
                labels = npz["labels"]
                core_mask = npz["core_mask"]
                n_owned = int(npz["n_owned"])
                blob = npz["blob"].tobytes()
            if manifest.get("digest") != _digest(labels, core_mask, blob):
                self.misses += 1
                logger.warning(
                    "checkpoint digest mismatch for leaf %d under %s; re-clustering",
                    leaf_id,
                    self.root,
                )
                raise CheckpointError(
                    f"checkpoint digest mismatch for leaf {leaf_id} (corrupt spill file)"
                )
            payload = loads_blob(blob)
        except CheckpointError:
            raise
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            self.misses += 1
            logger.warning(
                "unreadable checkpoint for leaf %d under %s (%s: %s); re-clustering",
                leaf_id,
                self.root,
                type(exc).__name__,
                exc,
            )
            raise CheckpointError(f"unreadable checkpoint for leaf {leaf_id}: {exc}") from exc
        self.hits += 1
        return CheckpointedLeaf(
            leaf_id=int(manifest["leaf_id"]),
            labels=labels,
            core_mask=core_mask,
            n_owned=n_owned,
            summary=payload["summary"],
            stats=payload["stats"],
            engine=manifest.get("engine"),
        )

    def verify(self, leaf_id: int, *, labels: np.ndarray, core_mask: np.ndarray) -> bool:
        """Invariant check: does the stored output equal a fresh one?"""
        recovered = self.load(leaf_id)
        return bool(
            np.array_equal(recovered.labels, labels)
            and np.array_equal(recovered.core_mask, core_mask)
        )

    def invalidate(self, leaf_id: int) -> bool:
        """Discard one leaf's checkpoint (e.g. its partition went dirty).

        Meta is removed first so a crash between the two unlinks leaves
        the store in the conservative "no checkpoint" state rather than
        a data file that a later manifest could mis-adopt.  Returns
        whether a checkpoint existed.
        """
        existed = self.has(leaf_id)
        for path in (self._meta_path(leaf_id), self._data_path(leaf_id)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return existed

    def clear(self) -> int:
        """Delete all checkpoints; returns the number of leaves cleared."""
        n = 0
        for meta in sorted(self.root.glob("leaf_*.json")):
            meta.unlink()
            n += 1
        for data in sorted(self.root.glob("leaf_*.npz")):
            data.unlink()
        return n

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("leaf_*.json"))
