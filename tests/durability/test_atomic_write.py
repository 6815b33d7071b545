"""The one write path under failure.

Every durable file goes through ``atomic_write``: phase checkpoints,
leaf spills, the serve WAL's batch blobs and the journal's torn-tail
rewrite.  An ``OSError`` at any step — the data write, the data
``os.replace``, the manifest ``os.replace`` — must leave no temp file
behind, and a load must then see the previous entry or a clean miss.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.core.pipeline import _ClusterLeafOutput
from repro.durability import BatchStore, PhaseCheckpointStore, RunJournal, replay_journal
from repro.errors import CheckpointError, JournalError
from repro.resilience import LeafCheckpointStore


def _save_phase(root, version):
    PhaseCheckpointStore(root).save("merge", version)


def _load_phase(root):
    return PhaseCheckpointStore(root).load("merge")


def _save_leaf(root, version):
    LeafCheckpointStore(root).save(0, _ClusterLeafOutput(
        leaf_id=0, labels=np.full(5, version), core_mask=np.ones(5, bool), n_owned=5,
        summary=None, stats=None,
    ))


def _load_leaf(root):
    return int(LeafCheckpointStore(root).load(0).labels[0])


def _save_batch(root, version):
    BatchStore(root).save(0, np.full((3, 2), float(version)), np.arange(3))


def _load_batch(root):
    coords, _ = BatchStore(root).load(0)
    return int(coords[0, 0])


def _save_journal(root, version):
    """Version 1 writes a journal; a later version tears its tail, so
    reopening it rewrites the file through ``atomic_write``."""
    path = root / "journal.jsonl"
    if version == 1:
        with RunJournal(path) as journal:
            journal.append("entry", {"version": 1})
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 1, "type": "entry", "payl')
    RunJournal(path).close()


def _load_journal(root):
    return replay_journal(root / "journal.jsonl")[-1].payload["version"]


STORES = {
    "phase": (_save_phase, _load_phase, 2),
    "leaf": (_save_leaf, _load_leaf, 2),
    "batch": (_save_batch, _load_batch, 1),
    "journal": (_save_journal, _load_journal, 1),
}

#: Where the failure lands: (os function, which call of it fails, files
#: the store must write for the step to exist).
STEPS = {
    "data-write": ("fsync", 1, 1),
    "data-replace": ("replace", 1, 1),
    "manifest-replace": ("replace", 2, 2),
}


def _fail_on(monkeypatch, name: str, nth: int) -> None:
    real = getattr(os, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == nth:
            raise OSError(errno.EIO, f"injected {name} failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, flaky)


@pytest.mark.parametrize(
    "store, step",
    [(store, step) for store in STORES for step in STEPS
     if STEPS[step][2] <= STORES[store][2]],
)
def test_failed_write_leaves_no_temp_file_and_a_loadable_store(
    tmp_path, monkeypatch, store, step
):
    save, load, _ = STORES[store]
    name, nth, _ = STEPS[step]
    save(tmp_path, 1)
    with monkeypatch.context() as failing:
        _fail_on(failing, name, nth)
        with pytest.raises(OSError, match="injected"):
            save(tmp_path, 2)
    assert list(tmp_path.rglob("*.tmp.*")) == []
    try:
        got = load(tmp_path)
    except (CheckpointError, JournalError):
        return  # a clean miss
    assert got == 1
