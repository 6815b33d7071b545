"""The example scripts run to completion against the current API.

Each runs as its own process, the way a reader runs it (``PYTHONPATH=src
python examples/<name>.py``).  ``scaling_study.py`` takes ~20 s and stays
out of tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["partition_anatomy", "quickstart", "sdss_catalog", "spacetime_events", "twitter_hotspots"],
)
def test_example_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
