"""The six workloads: their parameters and the inputs made from a seed.

Datasets are generated here; the program only ever sees the points.  A
seed draws the *sample* - which points, which batches, which queries -
while the shape of each problem (blob layout, metro areas, sky patch) is
fixed, so two seeds differ in their inputs but not in how much work the
problem is.  Without that the spread between seeds would measure the
generator, not the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import repro
from repro.points import PointSet

#: Times the full set-up (data generation, file write, warm-up, pool or
#: daemon start) is repeated in one untraced run; ``setup_s`` is the median.
SETUPS = 3

#: Blob layout shared by every seed (see module docstring).
_LAYOUT_SEED = 20130917


@dataclass(frozen=True)
class ClusterSpec:
    """One batch workload: ``repro.mrscan()`` over in-memory points."""

    name: str
    dataset: str  # "blobs" | "twitter" | "sdss"
    n_points: int
    eps: float
    minpts: int
    oracle: str  # "reference" | "sample"
    n_blobs: int = 0
    n_leaves: int = 8
    transport: str = "local"
    n_workers: int | None = None
    #: Timed repeats never fewer than this, whatever ``--seconds`` says;
    #: the traced pass times exactly this many.
    min_ops: int = 3
    #: One extra traced-pass call with this feature on ("telemetry" or
    #: "run_dir"), reported as an overhead fraction; each costs a full
    #: run, so each sits on one workload only.
    guard: str = ""
    smoke_points: int = 10_000
    kind: str = "cluster"


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: a ``repro.cli serve`` daemon under an ingest
    stream (closed loop, one connection) and a query stream (open loop,
    one connection)."""

    name: str
    batch_kind: str  # "local" | "scatter"
    #: Ingests sent per second of ``--seconds``.  The stream is a fixed
    #: number of batches, not a timed loop: what an ingest costs depends
    #: on how many leaves it dirties (1, 2 or 3), and the median of a
    #: sample whose make-up changes with the host's speed jumps between
    #: those modes.  The traced pass sends ``min_ops``.
    ops_per_second: float
    min_ops: int
    n_base: int = 150_000
    n_blobs: int = 47
    eps: float = 0.08
    minpts: int = 8
    n_leaves: int = 16
    batch_size: int = 500
    batch_sigma: float = 0.05
    query_rate: float = 50.0
    query_ids: int = 16
    query_limit_s: float = 0.025
    smoke_points: int = 10_000
    kind: str = "serve"


SPECS = {
    s.name: s
    for s in (
        ClusterSpec(
            "cluster_dense", "blobs", 300_000, eps=0.15, minpts=8,
            oracle="sample", n_blobs=38, smoke_points=20_000,
        ),
        ClusterSpec(
            "cluster_twitter", "twitter", 80_000, eps=0.1, minpts=40,
            oracle="reference", guard="telemetry",
        ),
        ClusterSpec(
            "cluster_sdss", "sdss", 80_000, eps=0.00015, minpts=5,
            oracle="reference", guard="run_dir",
        ),
        ClusterSpec(
            "cluster_twitter_shm2", "twitter", 80_000, eps=0.1, minpts=40,
            oracle="reference", transport="shm", n_workers=2,
        ),
        ServeSpec("serve_local", "local", ops_per_second=2.0, min_ops=8),
        ServeSpec("serve_scatter", "scatter", ops_per_second=0.5, min_ops=3),
    )
}


def spec_for(name: str, smoke: bool):
    spec = SPECS[name]
    if not smoke:
        return spec
    if spec.kind == "cluster":
        return replace(
            spec,
            n_points=spec.smoke_points,
            n_blobs=max(1, spec.n_blobs * spec.smoke_points // spec.n_points),
        )
    return replace(
        spec,
        n_base=spec.smoke_points,
        n_blobs=max(1, spec.n_blobs * spec.smoke_points // spec.n_base),
        min_ops=2,
    )


def _blobs(n: int, n_blobs: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian blob mixture, centres uniform in [-4, 4]^2."""
    centres = np.random.default_rng(_LAYOUT_SEED).uniform(-4, 4, size=(n_blobs, 2))
    which = rng.integers(0, n_blobs, size=n)
    return centres[which] + rng.normal(0, sigma, size=(n, 2))


def cluster_points(spec: ClusterSpec, seed: int) -> PointSet:
    if spec.dataset == "blobs":
        rng = np.random.default_rng([seed, 0])
        return PointSet.from_coords(_blobs(spec.n_points, spec.n_blobs, 0.12, rng))
    if spec.dataset == "twitter":
        return repro.data.generate_twitter(spec.n_points, seed=seed)
    if spec.dataset == "sdss":
        return repro.data.generate_sdss(spec.n_points, seed=seed)
    raise ValueError(f"unknown dataset {spec.dataset!r}")


def serve_base(spec: ServeSpec, seed: int) -> PointSet:
    rng = np.random.default_rng([seed, 0])
    return PointSet.from_coords(_blobs(spec.n_base, spec.n_blobs, 0.12, rng))


def serve_batches(
    spec: ServeSpec, seed: int, base: PointSet, seconds: float
) -> list[np.ndarray]:
    """The ingest stream of a run ``seconds`` long.  ``local``: every point of a batch is
    drawn around one anchor, so a batch dirties two or three leaves; the
    anchors are part of the fixed layout (a place where a resident point
    could be, the same for every seed), because which leaves a batch
    dirties decides what an ingest costs.  ``scatter``: every point is
    jittered around its own random resident point, so a batch dirties
    every leaf."""
    rng = np.random.default_rng([seed, 1])
    n_ops = max(spec.min_ops, round(seconds * spec.ops_per_second))
    if spec.batch_kind == "local":
        layout = np.random.default_rng([_LAYOUT_SEED, 1])
        anchors = _blobs(n_ops, spec.n_blobs, 0.12, layout)[:, None, :]
    else:
        anchors = [
            base.coords[rng.integers(0, len(base), size=spec.batch_size)]
            for _ in range(n_ops)
        ]
    return [
        anchor + rng.normal(0, spec.batch_sigma, size=(spec.batch_size, 2))
        for anchor in anchors
    ]


def query_ids(spec: ServeSpec, seed: int, count: int) -> np.ndarray:
    """``count`` queries of ``query_ids`` random resident base ids each."""
    rng = np.random.default_rng([seed, 2])
    return rng.integers(0, spec.n_base, size=(count, spec.query_ids))
