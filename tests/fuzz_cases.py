"""Fuzz cases (a dataset × tree shape × config × optional fault plan) and
the exact-DBSCAN check every pipeline differential shares.

``generate_case(seed)`` is a fixed corpus for the leaf-view, transport and
ingest-planner tests; :func:`fuzz_cases` draws the same :class:`FuzzCase`
fields with hypothesis for the properties in ``validate/test_fuzz.py`` and
``core/test_pipeline_property.py``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.core.config import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.data import (
    gaussian_blobs, generate_sdss, generate_twitter, ring_cluster, two_moons, uniform_noise,
)
from repro.dbscan import dbscan_reference
from repro.mrnet.topology import Topology
from repro.points import PointSet
from repro.resilience.faults import FaultPlan
from repro.validate import labels_equivalent

#: The families ``generate_case`` draws from; :func:`fuzz_cases` may add ``mixture``.
DATASETS: tuple[str, ...] = ("blobs", "uniform", "ring", "moons", "twitter", "sdss")
_PLAIN = {"uniform": uniform_noise, "moons": two_moons,
          "twitter": generate_twitter, "sdss": generate_sdss}


def _make_points(dataset: str, n_points: int, seed: int) -> PointSet:
    """Deterministically materialize one case's dataset."""
    s = (seed * 2654435761 + 97) % (2**31)
    if dataset in _PLAIN:
        return _PLAIN[dataset](n_points, seed=s)
    if dataset == "blobs":
        main = gaussian_blobs(max(1, int(n_points * 0.9)), centers=4, spread=0.35, seed=s)
        box = (0.0, 0.0, 10.0, 10.0)
    elif dataset == "ring":
        main = ring_cluster(max(1, int(n_points * 0.8)), radius=3.0, thickness=0.15, seed=s)
        box = (-4.0, -4.0, 4.0, 4.0)
    elif dataset == "mixture":  # 1-4 blobs, a ring and noise
        rng = np.random.default_rng(s)
        blobs = gaussian_blobs(
            int(n_points * 0.65), centers=int(rng.integers(1, 5)), spread=0.3, seed=s
        )
        main = blobs.concat(ring_cluster(
            int(n_points * 0.25), center=tuple(rng.uniform(0, 10, 2)), radius=2.0,
            thickness=0.1, seed=s + 2, id_offset=len(blobs),
        ))
        box = (0.0, 0.0, 10.0, 10.0)
    else:
        raise ValueError(f"unknown fuzz dataset {dataset!r}")
    n = len(main)
    return main.concat(uniform_noise(n_points - n, box=box, seed=s + 1, id_offset=n))


def assert_exact_dbscan(points, eps, minpts, labels, core_mask):
    """Exact DBSCAN up to relabelling and legal border ties
    (:func:`labels_equivalent`, strict)."""
    ref = dbscan_reference(points, eps, minpts)
    report = labels_equivalent(points, eps, ref.labels, ref.core_mask, labels, core_mask)
    assert report.ok, report.summary()


def span_of(dataset: str, n_points: int, seed: int) -> float:
    """The longer side of the dataset's bounding box (Eps scales with it)."""
    xmin, ymin, xmax, ymax = _make_points(dataset, n_points, seed).bounds()
    return max(xmax - xmin, ymax - ymin) or 1.0


@dataclass(frozen=True)
class FuzzCase:
    """One fully-seeded pipeline configuration (reconstructible anywhere)."""

    seed: int
    dataset: str
    n_points: int
    eps: float
    minpts: int
    n_leaves: int
    fanout: int
    use_densebox: bool = True
    fault_seed: int | None = None
    validate: str = "full"

    def points(self) -> PointSet:
        return _make_points(self.dataset, self.n_points, self.seed)

    def fault_plan(self) -> FaultPlan | None:
        """Three seeded faults over the clustering tree's non-root nodes."""
        if self.fault_seed is None:
            return None
        n_nodes = Topology.paper_style(self.n_leaves, self.fanout).n_nodes
        return FaultPlan.seeded(
            self.fault_seed, list(range(1, n_nodes)) or [0],
            phases=("cluster", "merge", "sweep"), n_faults=3, max_delay=0.002,
        )

    def config(self, **overrides) -> MrScanConfig:
        return MrScanConfig(**{
            "eps": self.eps, "minpts": self.minpts, "n_leaves": self.n_leaves,
            "fanout": self.fanout, "use_densebox": self.use_densebox,
            "fault_plan": self.fault_plan(), "max_retries": 2, "backoff_base": 0.0,
            "validate": self.validate, **overrides,
        })


def generate_case(
    seed: int, *, max_points: int = 1200, min_points: int = 250, fault_fraction: float = 0.5
) -> FuzzCase:
    """Derive one reproducible case from an integer seed."""
    rng = np.random.default_rng(seed)
    dataset = str(DATASETS[int(rng.integers(len(DATASETS)))])
    n_points = int(rng.integers(min_points, max_points + 1))
    return FuzzCase(  # keyword arguments evaluate, so draw, in this order
        seed, dataset, n_points,
        eps=float(span_of(dataset, n_points, seed) * rng.uniform(0.02, 0.08)),
        minpts=int(rng.integers(3, 13)),
        n_leaves=int(rng.choice([1, 2, 3, 4, 6, 8])),
        fanout=int(rng.choice([2, 3, 4])),
        use_densebox=bool(rng.random() < 0.7),
        fault_seed=int(rng.integers(1_000_000)) if rng.random() < fault_fraction else None,
    )


@st.composite
def fuzz_cases(draw, datasets: tuple[str, ...] = DATASETS + ("mixture",)) -> FuzzCase:
    """Draw every :class:`FuzzCase` field, the dataset from ``datasets``."""
    dataset = draw(st.sampled_from(datasets))
    seed, n_points = draw(st.integers(0, 2**31 - 1)), draw(st.integers(100, 1200))
    return FuzzCase(
        seed, dataset, n_points,
        eps=span_of(dataset, n_points, seed) * draw(st.floats(0.02, 0.08)),
        minpts=draw(st.integers(3, 12)),
        n_leaves=draw(st.integers(1, 12)),
        fanout=draw(st.sampled_from([2, 3, 4, 256])),
        use_densebox=draw(st.booleans()),
        fault_seed=draw(st.none() | st.integers(0, 999_999)),
        validate=draw(st.sampled_from(["full", "off"])),
    )


def assert_matches_reference(case: FuzzCase) -> None:
    """The differential: the pipeline on ``case`` is exact DBSCAN."""
    points = case.points()
    res = run_pipeline(points, case.config())
    assert_exact_dbscan(points, case.eps, case.minpts, res.labels, res.core_mask)
