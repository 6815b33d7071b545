"""Regenerate the frozen-history planner snapshot.

Run from the repo root after a *deliberate* planner behaviour change::

    PYTHONPATH=src python tests/tune/data/regen.py

Writes three files next to this script: ``frozen_history.jsonl`` (the
input evidence), ``frozen_fingerprint.json`` (the workload), and
``frozen_plan.json`` (the expected byte-exact plan, produced with
``os.cpu_count`` pinned to 1 so the snapshot is host-independent).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

from repro.tune import RunProfile, WorkloadFingerprint, plan

HERE = Path(__file__).parent

FINGERPRINT = WorkloadFingerprint(
    n_points=50_000,
    eps=0.1,
    dataset_fingerprint="f" * 64,
    nonempty_cells=400,
    max_cell_fraction=0.02,
)


def history() -> list[RunProfile]:
    out = []
    for n in (10_000, 50_000, 200_000):
        out.append(
            RunProfile(
                n_points=n,
                dataset_fingerprint="f" * 64 if n == 50_000 else None,
                transport="local",
                n_leaves=8,
                partition_seconds=0.01 + 1.5e-6 * n,
                cluster_seconds=0.016 + 3e-5 * n,
                merge_seconds=0.02,
                sweep_seconds=0.001 + 2e-7 * n,
                max_leaf_points=n // 8,
                median_leaf_points=n / 8,
                slowest_leaf_id=5,
                slowest_leaf_seconds=3e-5 * n / 8 * 3.0,
                median_leaf_seconds=3e-5 * n / 8,
            )
        )
        out.append(
            RunProfile(
                n_points=n,
                dataset_fingerprint="f" * 64 if n == 50_000 else None,
                transport="shm",
                transport_workers=1,
                n_leaves=8,
                partition_seconds=0.01 + 1.5e-6 * n,
                cluster_seconds=0.8 + 0.016 + 3e-5 * n,
                merge_seconds=0.02,
                sweep_seconds=0.001 + 2e-7 * n,
                max_leaf_points=n // 8,
                median_leaf_points=n / 8,
                dispatch_bytes=40 * n,
            )
        )
    return out


def main() -> None:
    profiles = history()
    with open(HERE / "frozen_history.jsonl", "w", encoding="utf-8") as fh:
        for p in profiles:
            fh.write(json.dumps(p.as_dict(), sort_keys=True) + "\n")
    (HERE / "frozen_fingerprint.json").write_text(
        json.dumps(FINGERPRINT.as_dict(), sort_keys=True, indent=2) + "\n"
    )
    with mock.patch.object(os, "cpu_count", lambda: 1):
        tplan = plan(FINGERPRINT, profiles, n_leaves=8)
    (HERE / "frozen_plan.json").write_text(tplan.to_json())
    print(f"snapshot regenerated under {HERE}")


if __name__ == "__main__":
    main()
