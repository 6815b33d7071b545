"""Harness tests: ``pytest bench/tests`` (not part of the tier-1 suite).

They drive ``run.py`` the way the driver does, at ``--smoke`` scale.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(BENCH))
import compare  # noqa: E402
import harness  # noqa: E402


def run(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int, seed: int = 0) -> tuple[dict, list[list[str]]]:
    done = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    rows = [ln.split() for ln in lines[:-1] if not ln.startswith("#")]
    return json.loads(lines[-1]), rows


def test_contract_file_is_within_its_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"] and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [
        x["name"]
        for key in ("workloads", "end_to_end", "per_layer") for x in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", ["cluster_sdss", "serve_local"])
def test_names_printed_are_the_names_in_the_contract(workload):
    printed: set[str] = set()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, rows = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
        for row in rows:
            assert row[0] == workload and row[4] == "smoke"  # never a full-run line
            assert NAME.fullmatch(row[1]) and row[3] == wanted[row[1]]
        assert {row[1] for row in rows} == set(wanted)
        if trace == 0:  # a user-visible metric is never zero
            assert all(m["value"] > 0 for m in result["metrics"].values())
        printed |= {row[1] for row in rows}
    assert printed == {
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    }
    spans = json.loads(
        (harness.WORK / "spans" / f"{workload}-seed0.json").read_text(encoding="utf-8")
    )["spans"]
    assert spans and all(
        {"name", "start", "end", "parent", "workload"} <= set(s) for s in spans
    )
    assert not list(harness.WORK.glob(f"{workload}-*")), "scratch dir left behind"


@pytest.mark.parametrize("workload", ["cluster_sdss", "serve_local"])
def test_exact_count_metrics_repeat_for_one_seed(workload):
    first, _ = smoke(workload, 1, seed=5)
    second, _ = smoke(workload, 1, seed=5)
    exact = [
        name for name, m in first["metrics"].items()
        if m["unit"] in ("count", "bytes") and name != "serve.wal_bytes"
    ] + ["partition.imbalance", "partition.shadow_frac",
         "gpu.densebox_eliminated_frac", "serve.dirty_ratio_mean"]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    other, _ = smoke(workload, 1, seed=6)
    assert other["metrics"] != first["metrics"]  # the seed does make the inputs


def test_smoke_suite_is_quick_and_correct():
    began = time.perf_counter()
    done = run("--smoke", "--seconds", "1")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert time.perf_counter() - began < 30
    assert done.stdout.strip().endswith("6 run(s), 0 wrong")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
    )
    done = run("--workload", "cluster_dense", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()  # no result line


def test_no_process_outlives_a_run():
    script = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import harness\n"
        "harness.bootstrap()\n"
        "from multiprocessing import resource_tracker\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & exit 0'])  # an orphan\n"
        "left = harness.end_descendants(grace=0.5)\n"
        "assert len(left) == 1 and 'sleep 60' in left[0], left\n"
        "assert not harness._descendants(os.getpid())\n"
        "assert harness.end_descendants() == []\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]


def _set(path: Path, values: dict, smoke_scale: bool = False) -> str:
    runs = [
        {"workload": w, "seed": i, "trace": 0, "correct": True,
         "metrics": {m: {"value": v, "unit": "s"}}}
        for (w, m), vs in values.items() for i, v in enumerate(vs)
    ]
    path.write_text(json.dumps(
        {"schema": harness.SCHEMA, "smoke": smoke_scale, "runs": runs}
    ))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    key = ("cluster_dense", "wall_s")
    a = _set(tmp_path / "a.json", {key: steady})
    same = _set(tmp_path / "b.json", {key: [v * 1.05 for v in steady]})
    slow = _set(tmp_path / "c.json", {key: [v * 1.30 for v in steady]})
    noisy = _set(tmp_path / "d.json", {key: [0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 0.6, 1.4, 1.0]})
    fast_noisy = _set(tmp_path / "e.json", {key: [0.3, 0.6, 0.4, 0.5, 0.35, 0.55, 0.3, 0.6, 0.45, 0.5]})
    tiny = _set(tmp_path / "f.json", {key: steady}, smoke_scale=True)

    def row(b):
        code = compare.main([a, b])
        line = next(
            ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("cluster_dense") and " wall_s " in ln
        )
        return code, line.split()[2]

    assert row(same)[1] == "ok"
    assert row(slow) == (1, "worse")
    assert row(noisy)[1] == "unresolved"
    assert row(fast_noisy)[1] == "ok"  # every run better than every base run
    with pytest.raises(SystemExit):
        compare.main([a, tiny])
