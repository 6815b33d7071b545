"""Durable ingest log for the serve daemon: batch blobs + WAL records.

A long-lived daemon (:mod:`repro.serve`) cannot re-read "the input file"
on restart — its dataset is the base load plus every batch it has ever
acknowledged.  This module makes that sequence durable with the same
write-ahead discipline the batch pipeline uses (:mod:`.journal`):

1. the batch's points are written to an **atomic blob**
   (``batches/batch_<seq>.npz``, through the one write path every durable
   file takes, :func:`~repro.durability.checkpoints.atomic_write`; its
   digest goes in the journal record);
2. only after the daemon has *committed* the batch to its in-memory
   state is an ``ingest_done`` record appended (flushed + fsync'd) to
   ``ingest.jsonl``;
3. the client's ack is sent only after step 2 returns.

So a SIGKILL at any point loses at most the unacked in-flight batch: a
blob without its ``ingest_done`` record is ignored on replay (and a torn
final journal line is dropped by :func:`~repro.durability.journal.replay_journal`).
``mrscan serve --resume`` replays ``acked()`` batches — digest-verified
against their blobs — on top of the base dataset to reconstruct the
exact acknowledged state.

Record schema (documented in docs/INTERNALS.md)::

    serve_begin  {"config": <config fingerprint>, "base": <dataset digest>,
                  "n_base": <int>}
    ingest_done  {"seq": <int>, "n_points": <int>, "digest": <blob sha256>,
                  "dirty_leaves": [<leaf ids re-clustered>],
                  "n_touched_cells": <int>}
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import JournalError
from .checkpoints import CORRUPT_CHECKPOINT_ERRORS, atomic_write
from .journal import RunJournal

__all__ = ["AckedIngest", "BatchStore", "IngestLog"]


def batch_digest(coords: np.ndarray, ids: np.ndarray) -> str:
    """Content digest of one ingest batch (dtype-normalised)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(coords, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class AckedIngest:
    """One replayed, digest-verified, acknowledged ingest batch."""

    seq: int
    coords: np.ndarray
    ids: np.ndarray
    dirty_leaves: tuple[int, ...]


class BatchStore:
    """Atomic ``.npz`` blob per ingest batch under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, seq: int) -> Path:
        return self.root / f"batch_{seq:06d}.npz"

    def has(self, seq: int) -> bool:
        return self._path(seq).exists()

    def save(self, seq: int, coords: np.ndarray, ids: np.ndarray) -> str:
        """Write the blob durably; returns its content digest."""
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        atomic_write(self._path(seq), lambda fh: np.savez(fh, coords=coords, ids=ids))
        return batch_digest(coords, ids)

    def load(self, seq: int) -> tuple[np.ndarray, np.ndarray]:
        """Read one blob back; a torn or garbled one is a :class:`JournalError`."""
        path = self._path(seq)
        try:
            with np.load(path) as npz:
                return npz["coords"], npz["ids"]
        except CORRUPT_CHECKPOINT_ERRORS as exc:
            raise JournalError(
                f"batch blob {path} for acked ingest {seq} is unreadable "
                f"({type(exc).__name__}: {exc})"
            ) from exc


class IngestLog:
    """WAL over a daemon's acknowledged ingests.

    Owns an ``ingest.jsonl`` :class:`~repro.durability.journal.RunJournal`
    and a ``batches/`` :class:`BatchStore` under ``root`` (typically the
    daemon's run-dir).  The write-ahead order is *blob first, record
    second*: :meth:`save_batch` before the daemon mutates state,
    :meth:`commit` after the mutation succeeds, client ack after commit.
    """

    def __init__(self, root: str | Path, *, fsync: bool = True, metrics=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = RunJournal(
            self.root / "ingest.jsonl", fsync=fsync, metrics=metrics
        )
        self.batches = BatchStore(self.root / "batches")
        self.metrics = metrics

    # ------------------------------------------------------------------ #
    # Session identity
    # ------------------------------------------------------------------ #

    def open_serve(self, *, config: str, base: str, n_base: int) -> bool:
        """Record (or verify) the serving session's identity.

        First open journals a ``serve_begin``; a resume verifies the
        stored fingerprints match — serving different data or config
        against an old log is a :class:`~repro.errors.JournalError`, the
        same wipe-or-verify rule run-dirs enforce.  Returns ``True`` on
        a fresh log, ``False`` on a verified resume.
        """
        begun = self.journal.last("serve_begin")
        if begun is None:
            self.journal.append(
                "serve_begin",
                {"config": config, "base": base, "n_base": int(n_base)},
            )
            return True
        for key, got in (("config", config), ("base", base), ("n_base", int(n_base))):
            want = begun.payload.get(key)
            if want != got:
                raise JournalError(
                    f"ingest log {self.journal.path} belongs to a different "
                    f"serving session: {key} was {want!r}, now {got!r} "
                    "(use a fresh --run-dir)"
                )
        return False

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    @property
    def next_seq(self) -> int:
        return sum(1 for _ in self.journal.of_type("ingest_done"))

    def save_batch(self, seq: int, coords: np.ndarray, ids: np.ndarray) -> str:
        """Step 1 of the WAL: persist the blob; returns its digest."""
        return self.batches.save(seq, coords, ids)

    def commit(
        self,
        seq: int,
        *,
        digest: str,
        n_points: int,
        dirty_leaves,
        n_touched_cells: int,
    ) -> None:
        """Step 2: journal ``ingest_done`` — the batch is now acked."""
        self.journal.append(
            "ingest_done",
            {
                "seq": int(seq),
                "n_points": int(n_points),
                "digest": digest,
                "dirty_leaves": sorted(int(x) for x in dirty_leaves),
                "n_touched_cells": int(n_touched_cells),
            },
        )

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def acked(self) -> list[AckedIngest]:
        """All acknowledged batches, in order, digest-verified."""
        out: list[AckedIngest] = []
        for rec in self.journal.of_type("ingest_done"):
            seq = int(rec.payload["seq"])
            if not self.batches.has(seq):
                raise JournalError(
                    f"ingest {seq} is journaled as acked but its batch blob "
                    f"is missing under {self.batches.root}"
                )
            coords, ids = self.batches.load(seq)
            if batch_digest(coords, ids) != rec.payload["digest"]:
                raise JournalError(
                    f"batch blob for acked ingest {seq} fails its digest "
                    "(corrupt spill file)"
                )
            out.append(
                AckedIngest(
                    seq=seq,
                    coords=coords,
                    ids=ids,
                    dirty_leaves=tuple(rec.payload.get("dirty_leaves", ())),
                )
            )
        return out

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "IngestLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
