"""IngestLog WAL discipline: blob-first, record-second, verified replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.ingestlog import AckedIngest, IngestLog, batch_digest
from repro.errors import JournalError


def _batch(seed: int, n: int = 20) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)), np.arange(1000 * seed, 1000 * seed + n)


def test_acked_roundtrip(tmp_path):
    with IngestLog(tmp_path) as log:
        assert log.open_serve(config="cfg", base="data", n_base=100) is True
        for seq in range(3):
            coords, ids = _batch(seq + 1)
            digest = log.save_batch(seq, coords, ids)
            assert digest == batch_digest(coords, ids)
            log.commit(
                seq,
                digest=digest,
                n_points=len(ids),
                dirty_leaves=[seq, seq + 1],
                n_touched_cells=4,
            )
        assert log.next_seq == 3

    with IngestLog(tmp_path) as log:
        acked = log.acked()
        assert [a.seq for a in acked] == [0, 1, 2]
        assert all(isinstance(a, AckedIngest) for a in acked)
        coords, ids = _batch(2)
        np.testing.assert_array_equal(acked[1].coords, coords)
        np.testing.assert_array_equal(acked[1].ids, ids)
        assert acked[1].dirty_leaves == (1, 2)


def test_blob_without_record_is_ignored(tmp_path):
    """A crash between save_batch and commit leaves an orphan blob —
    replay must treat the batch as never acked."""
    with IngestLog(tmp_path) as log:
        log.open_serve(config="cfg", base="data", n_base=10)
        coords, ids = _batch(1)
        digest = log.save_batch(0, coords, ids)
        log.commit(0, digest=digest, n_points=len(ids),
                   dirty_leaves=[0], n_touched_cells=1)
        log.save_batch(1, *_batch(2))  # crash before commit

    with IngestLog(tmp_path) as log:
        assert [a.seq for a in log.acked()] == [0]
        assert log.next_seq == 1


def test_missing_blob_for_acked_record_raises(tmp_path):
    with IngestLog(tmp_path) as log:
        coords, ids = _batch(1)
        digest = log.save_batch(0, coords, ids)
        log.commit(0, digest=digest, n_points=len(ids),
                   dirty_leaves=[0], n_touched_cells=1)
    (tmp_path / "batches" / "batch_000000.npz").unlink()
    with IngestLog(tmp_path) as log:
        with pytest.raises(JournalError, match="missing"):
            log.acked()


def test_corrupt_blob_fails_digest_check(tmp_path):
    with IngestLog(tmp_path) as log:
        coords, ids = _batch(1)
        digest = log.save_batch(0, coords, ids)
        log.commit(0, digest=digest, n_points=len(ids),
                   dirty_leaves=[0], n_touched_cells=1)
    # Overwrite the blob with different (but well-formed) contents.
    other_coords, other_ids = _batch(9)
    with IngestLog(tmp_path) as log:
        log.batches.save(0, other_coords, other_ids)
        with pytest.raises(JournalError, match="digest"):
            log.acked()


def test_open_serve_verifies_session_identity(tmp_path):
    with IngestLog(tmp_path) as log:
        assert log.open_serve(config="cfg-a", base="data-a", n_base=50) is True
    # Matching fingerprints: a verified resume.
    with IngestLog(tmp_path) as log:
        assert log.open_serve(config="cfg-a", base="data-a", n_base=50) is False
    # Any drift is a hard error naming the offending key.
    with IngestLog(tmp_path) as log:
        with pytest.raises(JournalError, match="config"):
            log.open_serve(config="cfg-B", base="data-a", n_base=50)
    with IngestLog(tmp_path) as log:
        with pytest.raises(JournalError, match="n_base"):
            log.open_serve(config="cfg-a", base="data-a", n_base=51)


def test_torn_tail_record_is_dropped(tmp_path):
    """A torn final journal line (crash mid-append) must not poison
    replay — the half-written ack simply never happened."""
    with IngestLog(tmp_path) as log:
        coords, ids = _batch(1)
        digest = log.save_batch(0, coords, ids)
        log.commit(0, digest=digest, n_points=len(ids),
                   dirty_leaves=[0], n_touched_cells=1)
        log.save_batch(1, *_batch(2))
    with open(tmp_path / "ingest.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"type": "ingest_done", "payload": {"seq": 1, "dig')
    with IngestLog(tmp_path) as log:
        assert [a.seq for a in log.acked()] == [0]


@pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
def test_torn_blob_is_a_journal_error(tmp_path, keep):
    """A torn blob under an acked record is the store's error, naming the
    batch — never a raw ``BadZipFile`` / ``EOFError`` out of ``np.load``."""
    with IngestLog(tmp_path) as log:
        coords, ids = _batch(1)
        digest = log.save_batch(0, coords, ids)
        log.commit(0, digest=digest, n_points=len(ids),
                   dirty_leaves=[0], n_touched_cells=1)
    blob = tmp_path / "batches" / "batch_000000.npz"
    blob.write_bytes(blob.read_bytes()[: int(blob.stat().st_size * keep)])
    with IngestLog(tmp_path) as log:
        with pytest.raises(JournalError, match="batch_000000.npz for acked ingest 0 is unreadable"):
            log.acked()
