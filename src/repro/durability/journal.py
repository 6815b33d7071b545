"""The write-ahead run journal: append-only, fsync'd, sha256-chained.

One JSONL file records everything a crashed driver needs to know about
how far its run got: the run's config/dataset fingerprints, each phase
boundary crossed, and every leaf completion *as it happens* (via the
Network's ``on_result`` hook) — so a crash mid-round loses at most the
in-flight work, never the bookkeeping of finished work.

Record format (one JSON object per line)::

    {"seq": 3, "type": "leaf_done", "payload": {...},
     "prev": "<sha256 of record 2>", "digest": "<sha256 of this record>"}

``digest`` covers ``(seq, type, payload, prev)`` in canonical JSON, and
``prev`` chains to the previous record's digest (:data:`GENESIS` for the
first) — so replay detects reordering, tampering, and mid-file damage,
not just syntax errors.  Every append is flushed and ``fsync``'d before
returning: a record the caller saw written survives a driver SIGKILL.

Replay is torn-tail tolerant, which is the write-ahead contract: the
*final* line of a journal may be garbage (the driver died mid-``write``)
and is silently dropped; damage anywhere earlier means the file does not
say what it said when it was written and raises
:class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..errors import JournalError
from .checkpoints import atomic_write

__all__ = ["GENESIS", "JournalRecord", "RunJournal", "replay_journal"]

logger = logging.getLogger(__name__)

#: ``prev`` digest of the first record in every journal.
GENESIS = "0" * 64


def _record_digest(seq: int, rtype: str, payload: dict, prev: str) -> str:
    body = json.dumps(
        {"seq": seq, "type": rtype, "payload": payload, "prev": prev},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalRecord:
    """One replayed (or just-written) journal record."""

    seq: int
    type: str
    payload: dict
    prev: str
    digest: str


def replay_journal(path: str | Path) -> list[JournalRecord]:
    """Read and verify a journal; returns its records in order.

    Tolerates exactly one torn record at the *end* of the file (dropped
    with a warning — the write-ahead semantics of a crash mid-append).
    Any earlier parse failure, chain break, or digest mismatch raises
    :class:`JournalError`.  A missing file replays as empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[JournalRecord] = []
    prev = GENESIS
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        is_last = lineno == len(lines)
        if not line.strip():
            if is_last:
                break
            raise JournalError(f"{path}:{lineno}: blank line inside the journal")
        try:
            raw = json.loads(line)
            rec = JournalRecord(
                seq=int(raw["seq"]),
                type=str(raw["type"]),
                payload=dict(raw["payload"]),
                prev=str(raw["prev"]),
                digest=str(raw["digest"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if is_last:
                logger.warning(
                    "%s:%d: dropping torn final journal record (%s)",
                    path, lineno, type(exc).__name__,
                )
                break
            raise JournalError(f"{path}:{lineno}: unreadable record: {exc}") from exc
        ok = (
            rec.seq == len(records)
            and rec.prev == prev
            and rec.digest == _record_digest(rec.seq, rec.type, rec.payload, rec.prev)
        )
        if not ok:
            if is_last:
                logger.warning(
                    "%s:%d: dropping final record with a broken hash chain",
                    path, lineno,
                )
                break
            raise JournalError(
                f"{path}:{lineno}: hash chain broken (journal corrupted or "
                f"edited)"
            )
        records.append(rec)
        prev = rec.digest
    return records


class RunJournal:
    """Appender over one journal file.

    Opening an existing journal replays (and verifies) it first, so
    appends continue the hash chain; a fresh file starts at
    :data:`GENESIS`.  ``fsync`` is on by default — turn it off only in
    benchmarks that measure its cost.
    """

    def __init__(
        self, path: str | Path, *, fsync: bool = True, metrics=None
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.metrics = metrics
        self.records: list[JournalRecord] = replay_journal(self.path)
        self._prev = self.records[-1].digest if self.records else GENESIS
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Re-serialize what replay accepted when the file ends with a torn
        # record: appending after garbage would corrupt the chain for the
        # *next* replay.
        if self.records or self.path.exists():
            good = "".join(
                json.dumps(
                    {
                        "seq": r.seq, "type": r.type, "payload": r.payload,
                        "prev": r.prev, "digest": r.digest,
                    },
                    sort_keys=True, separators=(",", ":"),
                ) + "\n"
                for r in self.records
            )
            existing = (
                self.path.read_text(encoding="utf-8") if self.path.exists() else ""
            )
            if existing != good:
                atomic_write(self.path, lambda fh: fh.write(good.encode("utf-8")))
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, rtype: str, payload: dict | None = None) -> JournalRecord:
        """Write one record; durable (fsync'd) before this returns."""
        payload = dict(payload or {})
        seq = len(self.records)
        digest = _record_digest(seq, rtype, payload, self._prev)
        rec = JournalRecord(
            seq=seq, type=rtype, payload=payload, prev=self._prev, digest=digest
        )
        line = json.dumps(
            {
                "seq": seq, "type": rtype, "payload": payload,
                "prev": self._prev, "digest": digest,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.records.append(rec)
        self._prev = digest
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.counter("durability.journal_records").inc()
            self.metrics.counter("durability.journal_bytes").inc(len(line) + 1)
        return rec

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def of_type(self, rtype: str) -> Iterator[JournalRecord]:
        return (r for r in self.records if r.type == rtype)

    def last(self, rtype: str) -> JournalRecord | None:
        out = None
        for rec in self.of_type(rtype):
            out = rec
        return out

    def has(self, rtype: str) -> bool:
        return any(True for _ in self.of_type(rtype))

    def __len__(self) -> int:
        return len(self.records)

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
