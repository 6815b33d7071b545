"""RunProfile extraction and the append-only profile store."""

from __future__ import annotations

import json

import pytest

from repro.core.config import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.data import gaussian_blobs
from repro.errors import TuneError
from repro.tune import (
    PROFILE_SCHEMA,
    ProfileStore,
    RunProfile,
    calibrate,
    profile_from_result,
    profile_from_run_dir,
    profile_from_summary_json,
)


@pytest.fixture(scope="module")
def small_run():
    points = gaussian_blobs(1500, centers=3, spread=0.2, seed=11)
    config = MrScanConfig(eps=0.2, minpts=8, n_leaves=4, transport="local")
    return points, config, run_pipeline(points, config)


def test_profile_from_result_records_knobs_and_walls(small_run):
    points, config, result = small_run
    prof = profile_from_result(result, config, points=points)
    assert prof.n_points == 1500
    assert prof.transport == "local"
    assert prof.n_leaves == result.n_leaves
    assert prof.partition_seconds > 0
    assert prof.cluster_seconds > 0
    assert prof.total_seconds > prof.cluster_seconds
    assert prof.dataset_fingerprint  # sha256 hex
    # Per-leaf skew evidence comes straight off the result.
    assert prof.max_leaf_points > 0
    assert prof.slowest_leaf_id >= 0
    assert prof.slowest_leaf_seconds >= prof.median_leaf_seconds > 0


def test_store_round_trip(tmp_path, small_run):
    points, config, result = small_run
    prof = profile_from_result(result, config, points=points)
    store = ProfileStore(tmp_path)
    store.append(prof)
    store.append(prof)
    loaded = store.load()
    assert len(loaded) == len(store) == 2
    assert loaded[0].as_dict() == prof.as_dict()
    assert loaded[0].as_dict()["schema"] == PROFILE_SCHEMA


def test_store_skips_corrupt_and_foreign_lines(tmp_path):
    store = ProfileStore(tmp_path)
    store.append(RunProfile(n_points=10))
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write("{ torn json\n")
        fh.write(json.dumps({"schema": "other/1", "n_points": 5}) + "\n")
        fh.write(json.dumps({"schema": PROFILE_SCHEMA, "n_points": 7}) + "\n")
    loaded = store.load()
    assert [p.n_points for p in loaded] == [10, 7]


def test_history_written_when_engines_were_selectable(tmp_path):
    """Records carrying ``cluster_engine`` still load; the ``block``
    ones are skipped, so their (≈ 7× slower) cluster walls cannot move
    the one remaining rate."""
    store = ProfileStore(tmp_path)
    rows = [
        RunProfile(n_points=n, n_leaves=8, cluster_seconds=0.016 + 3e-5 * n)
        for n in (10_000, 50_000, 200_000)
    ]
    with open(store.path, "w", encoding="utf-8") as fh:
        for p in rows:
            fh.write(json.dumps({**p.as_dict(), "cluster_engine": "csr"}) + "\n")
            slow = {**p.as_dict(), "cluster_seconds": 7 * p.cluster_seconds}
            fh.write(json.dumps({**slow, "cluster_engine": "block"}) + "\n")
    loaded = store.load()
    assert [p.as_dict() for p in loaded] == [p.as_dict() for p in rows]
    assert calibrate(loaded).cluster_rate == calibrate(rows).cluster_rate


def test_from_dict_ignores_unknown_keys():
    prof = RunProfile.from_dict(
        {"schema": PROFILE_SCHEMA, "n_points": 42, "future_field": "x"}
    )
    assert prof.n_points == 42


def test_profile_from_run_dir(tmp_path):
    points = gaussian_blobs(1200, centers=3, spread=0.2, seed=12)
    config = MrScanConfig(
        eps=0.2, minpts=8, n_leaves=4, transport="local",
        run_dir=str(tmp_path / "run"),
    )
    run_pipeline(points, config)
    prof = profile_from_run_dir(tmp_path / "run")
    assert prof.source == "run_dir"
    assert prof.n_points == 1200
    assert prof.transport == "local"
    assert prof.n_leaves == 4
    assert prof.partition_seconds > 0
    assert prof.cluster_seconds > 0
    assert prof.slowest_leaf_seconds > 0
    assert prof.max_leaf_points > 0


def test_profile_from_run_dir_requires_journal(tmp_path):
    with pytest.raises(TuneError):
        profile_from_run_dir(tmp_path)


def test_profile_from_summary_json(tmp_path):
    from repro.core.pipeline import mrscan

    points = gaussian_blobs(800, centers=2, spread=0.2, seed=13)
    result = mrscan(points, 0.2, 8, n_leaves=2, telemetry=True)
    path = tmp_path / "summary.json"
    result.telemetry.write_summary_json(path)
    prof = profile_from_summary_json(
        path, n_points=800, transport="local", n_leaves=2
    )
    assert prof.source == "summary"
    assert prof.cluster_seconds > 0
    assert prof.total_seconds > 0


def test_profile_from_summary_json_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else/9"}))
    with pytest.raises(TuneError):
        profile_from_summary_json(path, n_points=1)
