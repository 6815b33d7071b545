"""Planner determinism, the don't-parallelize crossover, and label safety."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import MrScanConfig
from repro.data import gaussian_blobs
from repro.errors import TuneError
from repro.tune import (
    ProfileStore,
    RunProfile,
    TunePlan,
    WorkloadFingerprint,
    auto_tune_config,
    fingerprint_workload,
    plan,
    suggest_partition_hints,
)

DATA = Path(__file__).parent / "data"


def _fp(n=50_000, skew=0.02, fingerprint="abc123") -> WorkloadFingerprint:
    return WorkloadFingerprint(
        n_points=n,
        eps=0.1,
        dataset_fingerprint=fingerprint,
        nonempty_cells=400,
        max_cell_fraction=skew,
    )


def _history() -> list[RunProfile]:
    out = []
    for n in (10_000, 50_000, 200_000):
        out.append(
            RunProfile(
                n_points=n,
                transport="local",
                n_leaves=8,
                partition_seconds=0.01 + 1.5e-6 * n,
                cluster_seconds=0.016 + 3e-5 * n,
                merge_seconds=0.02,
                sweep_seconds=0.001 + 2e-7 * n,
                max_leaf_points=n // 8,
            )
        )
        out.append(
            RunProfile(
                n_points=n,
                transport="shm",
                transport_workers=1,
                n_leaves=8,
                partition_seconds=0.01 + 1.5e-6 * n,
                cluster_seconds=0.8 + 0.016 + 3e-5 * n,
                merge_seconds=0.02,
                sweep_seconds=0.001 + 2e-7 * n,
                max_leaf_points=n // 8,
                dispatch_bytes=40 * n,
            )
        )
    return out


def test_same_history_same_fingerprint_byte_identical_plan():
    """The determinism contract: fresh objects, identical bytes."""
    p1 = plan(_fp(), _history(), n_leaves=8)
    p2 = plan(_fp(), _history(), n_leaves=8)
    assert p1.to_json() == p2.to_json()


def test_plan_picks_local_below_crossover(monkeypatch):
    """On a single-core host every pool is pure overhead -> local wins."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    tplan = plan(_fp(), _history(), n_leaves=8)
    assert tplan.apply["transport"] == "local"
    assert tplan.break_even["shm"] is None
    assert tplan.break_even["process"] is None


def test_plan_picks_pool_above_crossover_with_many_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    tplan = plan(_fp(n=50_000_000), [], n_leaves=16)
    assert tplan.apply["transport"] != "local"
    assert tplan.break_even[tplan.apply["transport"]] is not None


def test_plan_works_from_store_or_list(tmp_path):
    store = ProfileStore(tmp_path)
    store.extend(_history())
    assert plan(_fp(), store).to_json() == plan(_fp(), _history()).to_json()


def test_plan_round_trips_through_json(tmp_path):
    tplan = plan(_fp(), _history())
    path = tmp_path / "plan.json"
    path.write_text(tplan.to_json())
    assert TunePlan.load(path).to_json() == tplan.to_json()
    with pytest.raises(TuneError):
        TunePlan.from_dict({"schema": "wrong/1"})


def test_plan_written_when_engines_were_selectable_still_loads(tmp_path):
    """``apply.cluster_engine`` (written until ``block`` left production)
    is dropped on load: the plan reads as the one written today."""
    tplan = plan(_fp(), _history())
    legacy = tplan.as_dict()
    legacy["apply"] = {**legacy["apply"], "cluster_engine": "block"}
    path = tmp_path / "legacy_plan.json"
    path.write_text(json.dumps(legacy))
    assert TunePlan.load(path).to_json() == tplan.to_json()


def test_skew_hints_split_recorded_slowest_leaf():
    skewed = RunProfile(
        n_points=50_000,
        dataset_fingerprint="abc123",
        transport="local",
        n_leaves=8,
        slowest_leaf_id=3,
        slowest_leaf_seconds=0.9,
        median_leaf_seconds=0.2,
    )
    hints = suggest_partition_hints([skewed], _fp())
    assert hints is not None
    assert hints.split_map() == {3: 4}  # ratio 4.5 capped at 4 chunks
    # Balanced history -> no hints.
    balanced = RunProfile(
        n_points=50_000,
        dataset_fingerprint="abc123",
        transport="local",
        n_leaves=8,
        slowest_leaf_id=3,
        slowest_leaf_seconds=0.22,
        median_leaf_seconds=0.2,
    )
    assert suggest_partition_hints([balanced], _fp()) is None
    # Newest matching evidence wins: skewed run superseded by balanced.
    assert suggest_partition_hints([skewed, balanced], _fp()) is None
    # Foreign dataset's skew is not this workload's evidence.
    assert suggest_partition_hints([skewed], _fp(fingerprint="zzz")) is None


def test_skew_hints_land_in_advise_not_apply():
    skewed = RunProfile(
        n_points=50_000,
        dataset_fingerprint="abc123",
        transport="local",
        n_leaves=8,
        slowest_leaf_id=2,
        slowest_leaf_seconds=1.0,
        median_leaf_seconds=0.2,
    )
    tplan = plan(_fp(), _history() + [skewed])
    assert "partition_hints" in tplan.advise
    assert tplan.advise["partition_hints"]["split"] == {"2": 4}
    assert set(tplan.apply) == {"transport", "transport_workers"}


def test_auto_tune_touches_only_label_neutral_unset_knobs(monkeypatch):
    monkeypatch.delenv("MRSCAN_TRANSPORT", raising=False)
    points = gaussian_blobs(500, centers=2, seed=5)
    config = MrScanConfig(eps=0.2, minpts=5, n_leaves=4)
    tuned, tplan = auto_tune_config(config, points, store=_StubStore(_history()))
    assert tuned.transport == tplan.apply["transport"]
    # Label-affecting fields are untouched even when the plan advises.
    assert tuned.n_leaves == config.n_leaves
    assert tuned.fanout == config.fanout
    assert tuned.partition_hints is None


def test_auto_tune_respects_explicit_choices():
    points = gaussian_blobs(500, centers=2, seed=5)
    config = MrScanConfig(
        eps=0.2, minpts=5, n_leaves=4, transport="shm", transport_workers=3
    )
    tuned, _ = auto_tune_config(config, points, store=_StubStore([]))
    assert tuned.transport == "shm"
    assert tuned.transport_workers == 3


def test_auto_tune_respects_env_override(monkeypatch):
    monkeypatch.setenv("MRSCAN_TRANSPORT", "process")
    points = gaussian_blobs(500, centers=2, seed=5)
    config = MrScanConfig(eps=0.2, minpts=5, n_leaves=4)
    tuned, _ = auto_tune_config(config, points, store=_StubStore([]))
    assert tuned.transport is None  # env still decides at run time


class _StubStore:
    def __init__(self, profiles):
        self._profiles = profiles

    def load(self):
        return list(self._profiles)


def test_fingerprint_workload_measures_grid_skew():
    uniform = gaussian_blobs(2000, centers=8, spread=0.5, seed=1)
    fp = fingerprint_workload(uniform, 0.1)
    assert fp.n_points == 2000
    assert fp.nonempty_cells > 10
    assert 0.0 < fp.max_cell_fraction < 0.5
    assert fp.dataset_fingerprint


def test_frozen_history_golden_plan(monkeypatch):
    """The snapshot contract: the checked-in history must keep producing
    the checked-in plan, byte for byte.  A diff here means the planner's
    decision function changed — bump the plan schema or regenerate the
    snapshot *deliberately* (tests/tune/data/regen.py)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    profiles = []
    for line in (DATA / "frozen_history.jsonl").read_text().splitlines():
        profiles.append(RunProfile.from_dict(json.loads(line)))
    fp_doc = json.loads((DATA / "frozen_fingerprint.json").read_text())
    tplan = plan(WorkloadFingerprint(**fp_doc), profiles, n_leaves=8)
    assert tplan.to_json() == (DATA / "frozen_plan.json").read_text()
