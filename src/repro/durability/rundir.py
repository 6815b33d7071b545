"""Per-run directory: journal + phase checkpoints + resume state machine.

A run started with ``run_dir`` set owns a directory::

    <run_dir>/
        journal.jsonl        write-ahead run journal (repro.durability.journal)
        config.json          human-readable config snapshot + fingerprints
        checkpoints/         phase checkpoints (partition.bin, merge.bin, ...)
        checkpoints/leaves/  per-leaf spills (leaf_0000.bin, ...)

Fingerprints
------------
Resume refuses to mix state from different runs: ``run_begin`` records a
fingerprint of the *label-affecting* config fields (:data:`LABEL_FIELDS`)
and of the dataset bytes, and :meth:`RunDirectory.start` raises
:class:`~repro.errors.DurabilityError` when a resume's config or points
disagree.  Execution knobs — transport, telemetry, validation level,
retry budgets, fault plans — are deliberately *outside* the fingerprint:
resuming a crashed ``local`` run under ``--transport shm`` (or with a
different fault plan) is legal because none of them can change labels.
The leaf engine is no knob any more, but the fingerprint still hashes
it as a constant, so a run dir written under ``block`` or CUDA-DClust
leaves fails the same check.  A run with dense box on also records which
detector labelled it (``densebox_detector``): checkpoints written under
another detector — or before detectors were recorded — are refused by
name rather than spliced into this build's labels.

Resume state machine
--------------------
Replaying the journal classifies each phase:

* ``partition`` — restorable iff a ``partition_done`` record *and* a
  readable partition checkpoint exist (the record is written only after
  the checkpoint, so the pair is the invariant);
* ``cluster`` — never restored wholesale: the cluster phase re-runs and
  each completed leaf is recovered from its own spill checkpoint (the
  ``leaf_done`` journal records prove which leaves skipped
  re-clustering);
* ``merge`` — restorable iff ``merge_done`` + a readable merge
  checkpoint;
* ``sweep``/complete — a run with ``run_end`` and a readable sweep
  checkpoint short-circuits entirely and returns the persisted labels.

A restorable phase whose checkpoint turns out corrupt downgrades to
"re-run" (the load raises ``CheckpointError``, the state machine treats
it as absent) — corruption costs time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import DurabilityError
from ..gpu.densebox import DENSEBOX_DETECTOR
from ..points import PointSet
from .checkpoints import PhaseCheckpointStore
from .journal import RunJournal

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a core cycle)
    from ..core.config import MrScanConfig

__all__ = [
    "LABEL_FIELDS",
    "config_fingerprint",
    "dataset_fingerprint",
    "ResumeState",
    "RunDirectory",
]

logger = logging.getLogger(__name__)

#: Config fields that can change the labelling.  Everything else —
#: transport, telemetry, validate level, retry/timeout/failover budgets,
#: fault plans, checkpoint locations — only changes *how* the run
#: executes, so resume accepts any value for them.  ``use_densebox`` no
#: longer moves a label but stays, so existing digests do not change.
LABEL_FIELDS = (
    "eps",
    "minpts",
    "n_leaves",
    "fanout",
    "use_densebox",
    "rebalance_partitions",
    "partition_output",
)


def config_fingerprint(config: MrScanConfig) -> str:
    """sha256 over the label-affecting config fields."""
    payload = {name: getattr(config, name) for name in LABEL_FIELDS}
    payload["partition_nodes"] = config.partition_nodes
    # Format constants from when the ``block`` engine, the CUDA-DClust
    # leaf, the border rule and shadow thinning were selectable: run dirs
    # written under ``csr`` Mr. Scan leaves with box cores not claiming
    # and full shadows keep their digest; the detector record refuses
    # their dense-box checkpoints (see ``start``).
    payload["cluster_engine"] = "csr"
    payload["leaf_algorithm"] = "mrscan"
    payload["claim_box_borders"] = False
    payload["shadow_representatives"] = False
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def dataset_fingerprint(points: PointSet) -> str:
    """sha256 over the dataset's ids, coordinates, and weights."""
    h = hashlib.sha256()
    h.update(str(len(points)).encode())
    h.update(points.ids.tobytes())
    h.update(points.coords.tobytes())
    h.update(points.weights.tobytes())
    return h.hexdigest()


@dataclass
class ResumeState:
    """What the journal + checkpoints say can be skipped."""

    resumed: bool = False
    partition_restorable: bool = False
    merge_restorable: bool = False
    complete: bool = False
    #: Leaves the journal records as completed in the crashed run.
    leaves_done: set = field(default_factory=set)
    #: Phases actually restored from checkpoints (filled by the pipeline).
    restored: list = field(default_factory=list)


class RunDirectory:
    """The durable home of one (possibly multi-attempt) run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.path / "journal.jsonl"
        self.config_path = self.path / "config.json"
        self.checkpoint_root = self.path / "checkpoints"
        self.leaf_checkpoint_dir = self.checkpoint_root / "leaves"
        self.phases = PhaseCheckpointStore(self.checkpoint_root)
        self.leaf_checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.journal: RunJournal | None = None

    # ------------------------------------------------------------------ #

    def _wipe(self) -> None:
        """Fresh-start semantics: drop journal and every checkpoint."""
        if self.journal_path.exists():
            self.journal_path.unlink()
        self.phases.clear()
        if self.leaf_checkpoint_dir.exists():
            shutil.rmtree(self.leaf_checkpoint_dir)
        self.leaf_checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def start(
        self,
        points: PointSet,
        config: MrScanConfig,
        *,
        resume: bool,
        metrics=None,
        tracer=None,
    ) -> ResumeState:
        """Open the journal and classify what a resume may skip.

        Without ``resume``, any previous state in the directory is wiped
        and a fresh ``run_begin`` is journaled.  With it, the journal is
        replayed, the config/dataset fingerprints are verified against
        the original ``run_begin`` (:class:`DurabilityError` on
        mismatch), and a ``resume_begin`` marker is appended.
        """
        cfg_fp = config_fingerprint(config)
        data_fp = dataset_fingerprint(points)
        if not resume:
            self._wipe()
        self.journal = RunJournal(self.journal_path, metrics=metrics)
        if tracer is not None:
            tracer.instant(
                "journal.replay",
                cat="durability",
                n_records=len(self.journal),
                resume=resume,
            )
        state = ResumeState(resumed=resume)
        begin = self.journal.last("run_begin")
        if resume and begin is not None:
            if begin.payload.get("config_fingerprint") != cfg_fp:
                raise DurabilityError(
                    f"cannot resume {self.path}: the run directory was "
                    "written by a run with different label-affecting "
                    "config (eps/minpts/topology/...)"
                )
            if begin.payload.get("dataset_fingerprint") != data_fp:
                raise DurabilityError(
                    f"cannot resume {self.path}: dataset fingerprint "
                    "mismatch (different input points)"
                )
            detector = begin.payload.get("densebox_detector", "kd-tree")
            if config.use_densebox and detector != DENSEBOX_DETECTOR:
                raise DurabilityError(
                    f"cannot resume {self.path}: its checkpoints were labelled "
                    f"with dense-box detector {detector!r}, this build's is "
                    f"{DENSEBOX_DETECTOR!r}; rerun without --resume"
                )
            self.journal.append("resume_begin", {"n_prior_records": len(self.journal)})
            state.partition_restorable = self.journal.has("partition_done") and (
                self.phases.has("partition")
            )
            state.merge_restorable = self.journal.has("merge_done") and (
                self.phases.has("merge")
            )
            state.complete = self.journal.has("run_end") and self.phases.has("sweep")
            state.leaves_done = {
                int(rec.payload["leaf_id"]) for rec in self.journal.of_type("leaf_done")
            }
            logger.info(
                "resume %s: %d journal record(s); partition %s, %d leaf "
                "checkpoint(s), merge %s, complete %s",
                self.path,
                len(self.journal),
                "restorable" if state.partition_restorable else "re-runs",
                len(state.leaves_done),
                "restorable" if state.merge_restorable else "re-runs",
                state.complete,
            )
        else:
            if resume:
                logger.warning(
                    "resume requested but %s holds no run_begin record; "
                    "starting fresh", self.path,
                )
                state.resumed = False
            self.journal.append(
                "run_begin",
                {
                    "config_fingerprint": cfg_fp,
                    "dataset_fingerprint": data_fp,
                    "n_points": len(points),
                    "transport": config.resolved_transport(),
                    "transport_workers": config.transport_workers,
                    "densebox_detector": DENSEBOX_DETECTOR if config.use_densebox else None,
                    "n_leaves": config.n_leaves,
                    "fanout": config.fanout,
                },
            )
            self.config_path.write_text(
                json.dumps(
                    {
                        "config_fingerprint": cfg_fp,
                        "dataset_fingerprint": data_fp,
                        "n_points": len(points),
                        **{name: getattr(config, name) for name in LABEL_FIELDS},
                        "partition_nodes": config.partition_nodes,
                    },
                    indent=1,
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
        return state

    def note(self, rtype: str, payload: dict | None = None) -> None:
        """Append one journal record (no-op before :meth:`start`)."""
        if self.journal is not None:
            self.journal.append(rtype, payload)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None
