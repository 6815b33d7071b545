"""Shared fixtures for the figure/table benchmarks.

Each benchmark file regenerates one paper table or figure:

* *real series* — the actual pipeline at laptop scale (thousands of points
  per leaf instead of 800,000), demonstrating the same qualitative
  behaviour on real executions;
* *modelled series* — the paper's exact x-axis (up to 6.5 B points, 8192
  leaves) through the calibrated Titan performance model
  (``repro.perf``).

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
paper-vs-measured tables (they are also written to
``benchmarks/_output/``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.data import generate_sdss, generate_twitter

OUTPUT_DIR = Path(__file__).parent / "_output"

# The CUDA-DClust baseline the ablations run lives beside the test suite.
sys.path.append(str(Path(__file__).parent.parent / "tests" / "gpu"))


@pytest.fixture(scope="session")
def twitter_30k():
    return generate_twitter(30_000, seed=20120811)


@pytest.fixture(scope="session")
def twitter_60k():
    return generate_twitter(60_000, seed=20120811)


@pytest.fixture(scope="session")
def sdss_30k():
    return generate_sdss(30_000, seed=9)


@pytest.fixture(scope="session")
def emit():
    """Print a figure table and persist it under benchmarks/_output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
