"""Output checks.  Every function returns a list of failure strings (empty
= correct) and runs outside the timed region.

* ``check_reference`` - the exact sequential DBSCAN of ``repro.dbscan``
  compared with the tie-break-aware comparator of ``repro.validate``.
* ``check_sampled`` - for inputs where that reference is quadratic in the
  density: a seeded sample of points is re-derived with an independent
  index (``scipy.spatial.cKDTree``): core flag exact, every core
  neighbour in the same cluster, every labelled border point within Eps
  of a core point of its cluster.
* ``check_snapshot`` - a daemon's ``dump`` against a from-scratch
  pipeline run over the base plus exactly the acknowledged batches.
* ``query_is_correct`` - an answer given *during* the ingest stream.
  Global ids are not stable across ingests, but insertion is monotone
  for DBSCAN's core flag: a point that was core when a query was
  answered must still be core in the final snapshot, and a core point is
  never noise.  (Border points carry no such guarantee: a neighbour that
  joins a dense box stops claiming them.)
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.core import MrScanConfig, run_pipeline
from repro.dbscan import dbscan_reference
from repro.points import NOISE, PointSet
from repro.validate import labels_equivalent

# Dense-box members are not expanded (PAPER.md 3.2.3), so a border point
# whose only core neighbours sit in dense boxes may stay noise; the
# comparator bounds how many (0.5 % of the points).
_DENSEBOX_NOISE = True


def check_reference(points: PointSet, eps: float, minpts: int, labels, core) -> list[str]:
    ref = dbscan_reference(points, eps, minpts)
    report = labels_equivalent(
        points, eps, ref.labels, ref.core_mask, labels, core,
        allow_densebox_noise=_DENSEBOX_NOISE,
    )
    return [] if report.ok else [f"reference DBSCAN: {report.summary()}"]


def check_sampled(
    points: PointSet, eps: float, minpts: int, labels, core, *, seed: int,
    n_sample: int = 2000,
) -> list[str]:
    labels = np.asarray(labels)
    core = np.asarray(core, dtype=bool)
    coords = points.coords
    if not (len(labels) == len(core) == len(coords)):
        return ["label/core array lengths disagree with the points"]
    rng = np.random.default_rng([seed, 3])
    sample = rng.choice(len(coords), size=min(n_sample, len(coords)), replace=False)
    tree = cKDTree(coords)
    eps2 = float(eps) * float(eps)
    failures: list[str] = []
    # A slightly generous ball, then the program's own d^2 <= eps^2 test,
    # so a point exactly on the rim is classified as the program does.
    for i, cand in zip(sample, tree.query_ball_point(coords[sample], eps * (1 + 1e-9))):
        cand = np.asarray(cand, dtype=np.int64)
        d = coords[cand] - coords[i]
        neigh = cand[(d * d).sum(axis=1) <= eps2]
        is_core = len(neigh) >= minpts  # the point itself is in the ball
        if is_core != bool(core[i]):
            failures.append(f"point {i}: core flag {bool(core[i])}, expected {is_core}")
            continue
        core_neigh = neigh[core[neigh]]
        if is_core:
            if labels[i] == NOISE or np.any(labels[core_neigh] != labels[i]):
                failures.append(f"core point {i}: a core neighbour has another label")
        elif labels[i] != NOISE and not np.any(labels[core_neigh] == labels[i]):
            failures.append(f"border point {i}: no core point of its cluster within Eps")
    return failures[:10]


def check_snapshot(
    base: PointSet, acked: list[np.ndarray], config: MrScanConfig, dump: dict
) -> list[str]:
    n = len(base) + sum(len(b) for b in acked)
    # The daemon allocates fresh external ids past the current maximum
    # and the base ids are 0..n_base-1, so the union is 0..n-1 in ack order.
    if dump["ids"] != list(range(n)):
        return [f"dump holds {len(dump['ids'])} ids, expected exactly 0..{n - 1}"]
    union = PointSet(
        ids=np.arange(n, dtype=np.int64),
        coords=np.vstack([base.coords, *acked]),
    )
    full = run_pipeline(union, config, transport="local")
    report = labels_equivalent(
        union, config.eps, full.labels, full.core_mask,
        np.asarray(dump["labels"], dtype=np.int64),
        np.asarray(dump["core"], dtype=bool),
        allow_densebox_noise=_DENSEBOX_NOISE,
    )
    return [] if report.ok else [f"snapshot vs from-scratch run: {report.summary()}"]


def query_is_correct(ids, labels, core, final_core) -> bool:
    """One in-stream answer against the final snapshot (see module doc)."""
    if len(labels) != len(ids) or len(core) != len(ids):
        return False
    ids = np.asarray(ids, dtype=np.int64)
    was_core = np.asarray(core, dtype=bool)
    was_clustered = np.asarray(labels, dtype=np.int64) != NOISE
    return bool(np.all(final_core[ids][was_core]) and np.all(was_clustered[was_core]))
