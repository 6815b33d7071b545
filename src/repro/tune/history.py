"""Per-run profile extraction and the append-only profile store.

A :class:`RunProfile` is the planner's unit of evidence: one finished run
compressed to the workload's shape (size, grid-skew), the execution knobs
it ran under, and what each phase actually cost on *this* machine.
Profiles come from three places —

* a live :class:`~repro.core.result.MrScanResult` (richest: per-leaf
  walls and dispatch bytes come straight off the result);
* a durable run directory (the write-ahead journal's ``run_begin`` /
  ``*_done`` / ``leaf_done`` records plus ``config.json``);
* a ``--trace-summary-json`` telemetry summary file
  (``mrscan-telemetry-summary/1``).

— and land in a :class:`ProfileStore`: one JSONL file of schema-tagged
records under ``--tune-dir`` (default ``$MRSCAN_TUNE_DIR``, then
``~/.mrscan/profiles``).  The store is append-only and torn-tail
tolerant: a corrupt or foreign-schema line is skipped, never fatal —
losing one profile costs calibration accuracy, not correctness.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..errors import TuneError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import MrScanConfig
    from ..core.result import MrScanResult
    from ..points import PointSet

__all__ = [
    "PROFILE_SCHEMA",
    "RunProfile",
    "ProfileStore",
    "default_tune_dir",
    "profile_from_result",
    "profile_from_run_dir",
    "profile_from_summary_json",
]

#: Schema tag on every stored profile record.
PROFILE_SCHEMA = "mrscan-tune-profile/1"


@dataclass
class RunProfile:
    """One run's evidence for the planner (JSON-safe throughout)."""

    # --- workload shape ------------------------------------------------ #
    n_points: int
    #: sha256 of the dataset bytes (durability.dataset_fingerprint) when
    #: known — lets the skew rebalancer match history to *this* dataset.
    dataset_fingerprint: str | None = None
    # --- knobs the run executed under ---------------------------------- #
    transport: str = "local"
    transport_workers: int | None = None
    n_leaves: int = 0
    fanout: int = 0
    # --- measured phase walls (seconds; 0.0 = not recorded) ------------ #
    partition_seconds: float = 0.0
    cluster_seconds: float = 0.0
    merge_seconds: float = 0.0
    sweep_seconds: float = 0.0
    # --- per-leaf skew evidence ---------------------------------------- #
    max_leaf_points: int = 0
    median_leaf_points: float = 0.0
    slowest_leaf_id: int = -1
    slowest_leaf_seconds: float = 0.0
    median_leaf_seconds: float = 0.0
    #: Bytes the cluster-phase dispatch put on the wire (cluster_map).
    dispatch_bytes: int = 0
    #: Where this profile came from: result / run_dir / summary.
    source: str = "result"

    @property
    def total_seconds(self) -> float:
        return (
            self.partition_seconds
            + self.cluster_seconds
            + self.merge_seconds
            + self.sweep_seconds
        )

    def as_dict(self) -> dict:
        return {"schema": PROFILE_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunProfile":
        fields = {k: v for k, v in payload.items() if k != "schema"}
        known = {f for f in cls.__dataclass_fields__}  # noqa: SIM118
        return cls(**{k: v for k, v in fields.items() if k in known})


def _leaf_stats(walls: dict[int, float], counts: list[int]) -> dict:
    out: dict = {}
    if counts:
        out["max_leaf_points"] = int(max(counts))
        out["median_leaf_points"] = float(statistics.median(counts))
    if walls:
        slowest = max(walls, key=lambda k: (walls[k], -k))
        out["slowest_leaf_id"] = int(slowest)
        out["slowest_leaf_seconds"] = float(walls[slowest])
        out["median_leaf_seconds"] = float(statistics.median(walls.values()))
    return out


def profile_from_result(
    result: "MrScanResult",
    config: "MrScanConfig",
    *,
    points: "PointSet | None" = None,
) -> RunProfile:
    """Extract a profile from a finished in-process run."""
    fingerprint = None
    if points is not None:
        from ..durability.rundir import dataset_fingerprint

        fingerprint = dataset_fingerprint(points)
    cluster_map = result.network_traces.get("cluster_map")
    return RunProfile(
        n_points=result.n_points,
        dataset_fingerprint=fingerprint,
        transport=config.resolved_transport(),
        transport_workers=config.transport_workers,
        n_leaves=result.n_leaves,
        fanout=config.fanout,
        partition_seconds=result.timings.partition,
        cluster_seconds=result.timings.cluster,
        merge_seconds=result.timings.merge,
        sweep_seconds=result.timings.sweep,
        dispatch_bytes=int(cluster_map.total_bytes) if cluster_map else 0,
        source="result",
        **_leaf_stats(result.leaf_wall_seconds, result.leaf_point_counts),
    )


def profile_from_run_dir(path: str | Path) -> RunProfile:
    """Reconstruct a profile from a durable run directory's artifacts.

    Reads the journal's ``run_begin``/``*_done``/``leaf_done`` records
    (wall seconds and per-leaf spans journal as of PR 9) and
    ``config.json``; raises :class:`TuneError` when the directory holds
    no completed run evidence.
    """
    from ..durability.journal import replay_journal

    path = Path(path)
    journal_path = path / "journal.jsonl"
    if not journal_path.exists():
        raise TuneError(f"{path} has no journal.jsonl to profile")
    records = replay_journal(journal_path)
    by_type: dict[str, dict] = {}
    leaf_walls: dict[int, float] = {}
    leaf_counts: dict[int, int] = {}
    for rec in records:
        if rec.type == "leaf_done":
            leaf = int(rec.payload.get("leaf_id", -1))
            leaf_walls[leaf] = float(rec.payload.get("wall_seconds", 0.0))
            leaf_counts[leaf] = int(
                rec.payload.get("n_points", rec.payload.get("n_owned", 0))
            )
        else:
            by_type[rec.type] = rec.payload  # last record of a type wins
    begin = by_type.get("run_begin")
    if begin is None:
        raise TuneError(f"{path} journal has no run_begin record")
    config_doc: dict = {}
    config_path = path / "config.json"
    if config_path.exists():
        try:
            config_doc = json.loads(config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            config_doc = {}
    return RunProfile(
        n_points=int(begin.get("n_points", 0)),
        dataset_fingerprint=begin.get("dataset_fingerprint"),
        transport=begin.get("transport", "local"),
        transport_workers=begin.get("transport_workers"),
        n_leaves=int(
            begin.get("n_leaves", config_doc.get("n_leaves", 0)) or 0
        ),
        fanout=int(begin.get("fanout", config_doc.get("fanout", 0)) or 0),
        partition_seconds=float(
            by_type.get("partition_done", {}).get("wall_seconds", 0.0)
        ),
        cluster_seconds=float(
            by_type.get("cluster_done", {}).get("wall_seconds", 0.0)
        ),
        merge_seconds=float(by_type.get("merge_done", {}).get("wall_seconds", 0.0)),
        sweep_seconds=float(by_type.get("sweep_done", {}).get("wall_seconds", 0.0)),
        source="run_dir",
        **_leaf_stats(leaf_walls, list(leaf_counts.values())),
    )


def profile_from_summary_json(
    path: str | Path,
    *,
    n_points: int,
    transport: str = "local",
    transport_workers: int | None = None,
    n_leaves: int = 0,
    fanout: int = 0,
    dataset_fingerprint: str | None = None,
) -> RunProfile:
    """Build a profile from a ``--trace-summary-json`` file.

    The summary records phase walls but not the run's knobs or dataset,
    so those arrive as keyword context from the caller.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != "mrscan-telemetry-summary/1":
        raise TuneError(
            f"{path} is not a mrscan-telemetry-summary/1 file "
            f"(schema={doc.get('schema')!r})"
        )
    phases = doc.get("phases", {})
    return RunProfile(
        n_points=int(n_points),
        dataset_fingerprint=dataset_fingerprint,
        transport=transport,
        transport_workers=transport_workers,
        n_leaves=int(n_leaves),
        fanout=int(fanout),
        partition_seconds=float(phases.get("partition", 0.0)),
        cluster_seconds=float(phases.get("cluster", 0.0)),
        merge_seconds=float(phases.get("merge", 0.0)),
        sweep_seconds=float(phases.get("sweep", 0.0)),
        source="summary",
    )


def default_tune_dir() -> Path:
    """``$MRSCAN_TUNE_DIR`` when set, else ``~/.mrscan/profiles``."""
    env = os.environ.get("MRSCAN_TUNE_DIR", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".mrscan" / "profiles"


class ProfileStore:
    """Append-only JSONL store of :class:`RunProfile` records."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_tune_dir()
        self.path = self.directory / "profiles.jsonl"

    def append(self, profile: RunProfile) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(profile.as_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def extend(self, profiles: Iterable[RunProfile]) -> None:
        for p in profiles:
            self.append(p)

    def load(self) -> list[RunProfile]:
        """Every readable profile, oldest first (corrupt lines skipped,
        and so are records of the retired ``block`` engine: their cluster
        walls say nothing about the engine that runs today)."""
        if not self.path.exists():
            return []
        out: list[RunProfile] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail or garbage: skip, never fail
            if payload.get("schema") != PROFILE_SCHEMA:
                continue
            if payload.get("cluster_engine", "csr") != "csr":
                continue
            try:
                out.append(RunProfile.from_dict(payload))
            except TypeError:
                continue
        return out

    def __len__(self) -> int:
        return len(self.load())
