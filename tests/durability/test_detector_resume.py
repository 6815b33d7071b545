"""Resume across a dense-box detector change never mixes label functions.

Earlier detectors left borders of box-only cores as noise, so leaf /
merge / sweep checkpoints labelled by one detector must not be spliced
into a run labelled by another.  ``run_begin`` records
``densebox_detector`` when dense box is on; a resume under a different
(or unrecorded: the kd-tree detector predates the record) one is refused
by name.  Runs with dense
box off are untouched, and so is the serve WAL: ``serve_begin`` compares
``config_fingerprint`` alone, and a daemon resume re-clusters from scratch.
"""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
import repro.durability.rundir as rundir_mod
from repro.core import mrscan
from repro.core.config import MrScanConfig
from repro.data import generate_sdss
from repro.durability import config_fingerprint, replay_journal
from repro.durability.ingestlog import IngestLog
from repro.durability.journal import RunJournal
from repro.errors import DurabilityError
from repro.gpu.densebox import DENSEBOX_DETECTOR, DenseBoxResult
from repro.points import PointSet
from repro.runtime.executor import make_transport
from repro.serve.state import ServeState

mrscan_gpu_mod = sys.modules["repro.gpu.mrscan_gpu"]  # the package re-exports the function under this name

EPS, MINPTS, LEAVES = 0.15, 5, 4


def _points(n=600, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 4.0, size=(5, 2))
    coords = centers[rng.integers(0, 5, size=n)] + rng.normal(0.0, 0.08, size=(n, 2))
    return PointSet.from_coords(coords)


def _run(points, run_dir=None, resume=False, **kw):
    return mrscan(
        points, EPS, MINPTS, n_leaves=LEAVES,
        run_dir=(str(run_dir) if run_dir is not None else None), resume=resume, **kw,
    )


def _crash_before_sweep(monkeypatch, points, run_dir, **kw):
    """A durable run that dies with leaf and merge checkpoints on disk."""

    def boom(*args, **kwargs):
        raise RuntimeError("injected driver crash")

    with monkeypatch.context() as crash:
        crash.setattr(pipeline_mod, "sweep_gather", boom)
        with pytest.raises(RuntimeError, match="injected"):
            _run(points, run_dir=run_dir, **kw)


@pytest.fixture
def before_detectors_were_recorded(monkeypatch):
    """Journals as the commit before this record wrote them."""
    append = RunJournal.append

    def legacy_append(self, rtype, payload=None):
        if rtype == "run_begin":
            payload = {k: v for k, v in payload.items() if k != "densebox_detector"}
        return append(self, rtype, payload)

    with monkeypatch.context() as legacy:
        legacy.setattr(RunJournal, "append", legacy_append)
        yield


def test_run_begin_names_the_detector(tmp_path):
    _run(_points(), run_dir=tmp_path / "on")
    _run(_points(), run_dir=tmp_path / "off", use_densebox=False)
    begin_on = replay_journal(tmp_path / "on" / "journal.jsonl")[0]
    begin_off = replay_journal(tmp_path / "off" / "journal.jsonl")[0]
    assert begin_on.payload["densebox_detector"] == DENSEBOX_DETECTOR
    assert begin_off.payload["densebox_detector"] is None


def test_unrecorded_detector_is_refused_by_name(
    tmp_path, monkeypatch, before_detectors_were_recorded
):
    points = _points()
    _crash_before_sweep(monkeypatch, points, tmp_path)
    assert (tmp_path / "checkpoints" / "merge.bin").exists()
    with pytest.raises(DurabilityError, match=f"'kd-tree'.*{re.escape(repr(DENSEBOX_DETECTOR))}"):
        _run(points, run_dir=tmp_path, resume=True)
    # Refusing touched nothing: a fresh start over the same directory works.
    fresh = _run(points, run_dir=tmp_path)
    assert fresh.labels.tobytes() == _run(points).labels.tobytes()


def test_other_detector_is_refused_by_name(tmp_path, monkeypatch):
    points = _points(seed=1)
    with monkeypatch.context() as other:
        other.setattr(rundir_mod, "DENSEBOX_DETECTOR", "some-later-detector")
        _crash_before_sweep(monkeypatch, points, tmp_path)
    with pytest.raises(DurabilityError, match="'some-later-detector'"):
        _run(points, run_dir=tmp_path, resume=True)


def test_run_dirs_whose_box_cores_did_not_claim_are_refused(tmp_path, monkeypatch):
    """``global-grid`` leaf checkpoints hold borders of box-only cores as
    noise; splicing them into this build's labels would drop them again."""
    points = _points(seed=3)
    with monkeypatch.context() as older:
        older.setattr(rundir_mod, "DENSEBOX_DETECTOR", "global-grid")
        _crash_before_sweep(monkeypatch, points, tmp_path)
    with pytest.raises(DurabilityError, match="'global-grid', this build's"):
        _run(points, run_dir=tmp_path, resume=True)


def test_densebox_off_resumes_across_the_change(
    tmp_path, monkeypatch, before_detectors_were_recorded
):
    """No detector ran, so there is nothing to mix: restored, byte-identical."""
    points = _points(seed=2)
    baseline = _run(points, use_densebox=False)
    _crash_before_sweep(monkeypatch, points, tmp_path, use_densebox=False)
    resumed = _run(points, run_dir=tmp_path, resume=True, use_densebox=False)
    assert set(resumed.phases_restored) == {"partition", "merge"}
    assert resumed.checkpoint_hits == LEAVES
    assert resumed.labels.tobytes() == baseline.labels.tobytes()
    assert resumed.core_mask.tobytes() == baseline.core_mask.tobytes()


def test_config_fingerprint_is_the_one_old_wals_hold():
    """``serve_begin`` stores this digest and a resume compares it, so the
    detector must stay out of it.  The literal is what the commit before
    the detector change computed for this config."""
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=8)
    assert config_fingerprint(config) == (
        "d866b4ce6a0decc63ed31fa4a16517c4dfc08c3dbd90a3f30f13c17b6b8adbef"
    )


def test_serve_resume_reclusters_a_wal_from_another_detector(tmp_path, monkeypatch):
    """The WAL holds batches, not labels: replaying it under this detector
    gives exactly what a daemon that never stopped would hold — and, since
    box members claim their borders, what the other detector held too."""
    base = generate_sdss(3000, seed=5)  # box-only cores here have two borders
    rng = np.random.default_rng(0)
    batches = [base.coords[i] + rng.normal(0, 2e-5, size=(40, 2)) for i in (10, 2000)]
    config = MrScanConfig(eps=0.00015, minpts=5, n_leaves=4)
    transport = make_transport("local")
    try:
        # Written with every point non-box, as a detector that found
        # nothing would.
        with monkeypatch.context() as other:
            other.setattr(
                mrscan_gpu_mod, "find_dense_boxes",
                lambda points, eps, minpts, tree=None: _no_boxes(len(points)),
            )
            log = IngestLog(tmp_path / "run")
            written = ServeState(
                base, config, transport=transport, ingest_log=log,
            )
            for batch in batches:
                written.ingest(batch)
            log.close()

        log = IngestLog(tmp_path / "run")
        resumed = ServeState(
            base, config, transport=transport, ingest_log=log,
            resume=True,
        )
        log.close()
        straight = ServeState(base, config, transport=transport)
        for batch in batches:
            straight.ingest(batch)
    finally:
        transport.close()
    assert resumed.n_ingests == 2
    np.testing.assert_array_equal(resumed._snap().labels, straight._snap().labels)
    np.testing.assert_array_equal(resumed._snap().core_mask, straight._snap().core_mask)
    np.testing.assert_array_equal(written._snap().labels, resumed._snap().labels)


def _no_boxes(n):
    return DenseBoxResult(box_id=np.full(n, -1, dtype=np.int64), n_boxes=0, n_subdivisions=0)
