"""Shared fixtures for the Mr. Scan reproduction test suite."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.data import gaussian_blobs, generate_sdss, generate_twitter, uniform_noise
from repro.points import PointSet

# Tier-1 draws the same hypothesis examples on every checkout, so a red run
# reproduces from the commit alone; the nightly fuzz job (MRSCAN_FUZZ=1)
# keeps the random draws.  Neither has a wall-clock deadline: an example
# that spawns a worker pool is slow for reasons that are not the code's.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("fuzz", derandomize=False, deadline=None)
settings.load_profile("fuzz" if os.environ.get("MRSCAN_FUZZ") == "1" else "tier1")

# The merge oracle also writes the older summary blob layouts, which the
# durability tests resume from; the CUDA-DClust baseline is the leaf
# ablations' oracle.
sys.path.append(str(Path(__file__).parent / "merge"))
sys.path.append(str(Path(__file__).parent / "gpu"))
# d-dimensional DBSCAN lives beside the example that uses it.
sys.path.append(str(Path(__file__).parents[1] / "examples"))


@pytest.fixture
def blobs_with_noise() -> PointSet:
    """Five well-separated blobs plus 10% uniform noise (~2.2k points)."""
    blobs = gaussian_blobs(2000, centers=5, spread=0.3, seed=1)
    noise = uniform_noise(200, seed=2, id_offset=len(blobs))
    return blobs.concat(noise)


@pytest.fixture
def small_twitter() -> PointSet:
    """A 5k-point synthetic tweet sample."""
    return generate_twitter(5000, seed=3)


@pytest.fixture
def small_sdss() -> PointSet:
    """A 5k-point synthetic SDSS sample."""
    return generate_sdss(5000, seed=4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
