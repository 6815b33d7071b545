"""Cluster-labelling equivalence up to relabeling and border tie-breaks.

DBSCAN's output is unique on core points (clusters are exactly the
connected components of the Eps-graph over cores) but *visit-order
dependent* on border points: a border point within Eps of cores from two
clusters may legitimately land in either.  Comparing a distributed run
against the sequential reference therefore needs three tiers:

1. **core** — core masks must agree exactly, and the two labelings must
   induce a *bijection* between their cluster ids over core points (same
   partition of the core set, different numbering allowed);
2. **noise** — a point is noise in both or clustered in both.  The
   paper's dense-box trade-off (§3.2.3: a border adjacent only to box
   cores may stay noise) can be tolerated with ``allow_densebox_noise``,
   up to a count bounded by the paper's ≥ 0.995 quality; this pipeline
   never needs it, since every core claims its borders;
3. **border** — a clustered non-core point whose candidate label maps to
   a different reference cluster is accepted iff its candidate cluster
   really does contain a core point within Eps of it (a legal tie-break),
   and rejected otherwise.

This is the comparator the differential and metamorphic fuzz properties
(``pytest -m fuzz``) run on every drawn case, equivalent in spirit to
the "cluster-structure equality" oracles used to validate parallel
DBSCAN implementations against a sequential baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dbscan.grid_index import GridIndex
from ..points import NOISE, PointSet

__all__ = ["EquivalenceReport", "labels_equivalent", "assert_resume_equivalent"]


@dataclass
class EquivalenceReport:
    """Outcome of one labelling comparison."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    n_core_mismatch: int = 0  # core-status disagreements
    n_partition_mismatch: int = 0  # core points breaking the bijection
    n_noise_mismatch: int = 0  # disallowed noise/clustered flips
    n_densebox_noise: int = 0  # allowed densebox border noise
    n_tiebreak: int = 0  # legal border tie-break differences

    def summary(self) -> str:
        if self.ok:
            extra = []
            if self.n_tiebreak:
                extra.append(f"{self.n_tiebreak} border tie-break(s)")
            if self.n_densebox_noise:
                extra.append(f"{self.n_densebox_noise} densebox noise border(s)")
            return "equivalent" + (f" ({', '.join(extra)})" if extra else "")
        return "NOT equivalent: " + "; ".join(self.failures[:5])


def assert_resume_equivalent(baseline, resumed) -> None:
    """Require a resumed run to reproduce its baseline *byte-identically*.

    Tie-break tolerance is deliberately absent here: a resume restores
    the crashed run's own state (partition plan, leaf outputs, merge
    table), so — unlike a comparison against the sequential reference —
    there is no legitimate source of divergence.  ``baseline`` and
    ``resumed`` are :class:`repro.core.result.MrScanResult` objects (or
    anything with ``labels``/``core_mask``/``n_clusters``).  Raises
    :class:`repro.errors.ValidationError` listing every field that
    disagrees.
    """
    from ..errors import ValidationError

    failures: list[str] = []
    b_labels = np.asarray(baseline.labels)
    r_labels = np.asarray(resumed.labels)
    if b_labels.shape != r_labels.shape:
        failures.append(
            f"label shapes differ: baseline {b_labels.shape}, "
            f"resumed {r_labels.shape}"
        )
    elif not np.array_equal(b_labels, r_labels):
        diff = np.flatnonzero(b_labels != r_labels)
        failures.append(
            f"labels differ on {len(diff)} point(s) "
            f"(e.g. {[int(i) for i in diff[:5]]})"
        )
    b_core = np.asarray(baseline.core_mask)
    r_core = np.asarray(resumed.core_mask)
    if b_core.shape != r_core.shape or not np.array_equal(b_core, r_core):
        failures.append("core masks differ")
    if int(baseline.n_clusters) != int(resumed.n_clusters):
        failures.append(
            f"cluster counts differ: baseline {baseline.n_clusters}, "
            f"resumed {resumed.n_clusters}"
        )
    if failures:
        raise ValidationError(
            "resumed run is not byte-identical to its baseline: "
            + "; ".join(failures),
        )


def labels_equivalent(
    points: PointSet,
    eps: float,
    ref_labels: np.ndarray,
    ref_core: np.ndarray,
    cand_labels: np.ndarray,
    cand_core: np.ndarray,
    *,
    allow_densebox_noise: bool = False,
    max_densebox_noise: int | None = None,
) -> EquivalenceReport:
    """Compare ``cand`` against the reference clustering of ``points``.

    Strict by default: a border the reference clusters must be clustered
    by the candidate.  With ``allow_densebox_noise`` up to
    ``max_densebox_noise`` ref-clustered→cand-noise borders are tolerated
    (default ``max(2, 0.005 * n)``), for implementations that keep the
    paper's dense-box trade-off.
    """
    ref_labels = np.asarray(ref_labels)
    cand_labels = np.asarray(cand_labels)
    ref_core = np.asarray(ref_core, dtype=bool)
    cand_core = np.asarray(cand_core, dtype=bool)
    n = len(points)
    report = EquivalenceReport(ok=True)
    if not (
        len(ref_labels) == len(cand_labels) == len(ref_core) == len(cand_core) == n
    ):
        report.ok = False
        report.failures.append("label/core array lengths disagree with points")
        return report
    if max_densebox_noise is None:
        max_densebox_noise = max(2, int(0.005 * n))

    # ---- tier 1: core status + core-partition bijection ---------------- #
    core_diff = ref_core != cand_core
    if np.any(core_diff):
        report.n_core_mismatch = int(core_diff.sum())
        report.ok = False
        sample = np.flatnonzero(core_diff)[:5]
        report.failures.append(
            f"core status differs on {report.n_core_mismatch} point(s) "
            f"(e.g. {[int(i) for i in sample]})"
        )

    core = ref_core & cand_core
    ref_to_cand: dict[int, int] = {}
    cand_to_ref: dict[int, int] = {}
    bad_pairs = 0
    for i in np.flatnonzero(core):
        r, c = int(ref_labels[i]), int(cand_labels[i])
        if r == NOISE or c == NOISE:
            bad_pairs += 1
            continue
        if ref_to_cand.setdefault(r, c) != c or cand_to_ref.setdefault(c, r) != r:
            bad_pairs += 1
    if bad_pairs:
        report.n_partition_mismatch = bad_pairs
        report.ok = False
        report.failures.append(
            f"core clusters do not biject: {bad_pairs} core point(s) break "
            "the ref<->candidate cluster mapping"
        )
        return report  # tier 2/3 would only echo the same breakage

    # ---- tier 2: noise agreement -------------------------------------- #
    ref_noise = ref_labels == NOISE
    cand_noise = cand_labels == NOISE
    noncore = ~core

    invented = noncore & ref_noise & ~cand_noise
    if np.any(invented):
        report.n_noise_mismatch += int(invented.sum())
        report.ok = False
        report.failures.append(
            f"{int(invented.sum())} reference-noise point(s) clustered by "
            "the candidate"
        )

    dropped = np.flatnonzero(noncore & ~ref_noise & cand_noise)
    unexplained, why = dropped, ""
    if allow_densebox_noise:
        if len(dropped) <= max_densebox_noise:
            unexplained = dropped[:0]
        why = f" (> densebox tolerance {max_densebox_noise})"
    report.n_densebox_noise = len(dropped) - len(unexplained)
    if len(unexplained):
        report.n_noise_mismatch += len(unexplained)
        report.ok = False
        report.failures.append(
            f"{len(unexplained)} reference-clustered border point(s) are noise "
            f"in the candidate{why}"
        )

    # ---- tier 3: border tie-breaks ------------------------------------ #
    both = noncore & ~ref_noise & ~cand_noise
    if np.any(both):
        idx = np.flatnonzero(both)
        mapped = np.array(
            [ref_to_cand.get(int(ref_labels[i]), -10) for i in idx], dtype=np.int64
        )
        differs = mapped != cand_labels[idx]
        check_idx = idx[differs]
        if len(check_idx):
            index = GridIndex(points, eps)
            n_illegal = 0
            samples: list[int] = []
            for i in check_idx:
                neigh = index.neighbors_of(int(i))
                legal = np.any(
                    cand_core[neigh] & (cand_labels[neigh] == cand_labels[i])
                )
                if legal:
                    report.n_tiebreak += 1
                else:
                    n_illegal += 1
                    if len(samples) < 5:
                        samples.append(int(i))
            if n_illegal:
                report.ok = False
                report.failures.append(
                    f"{n_illegal} border point(s) assigned to a cluster with "
                    f"no core point within Eps (e.g. {samples})"
                )
    return report
