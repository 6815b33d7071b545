"""Golden regression tests: fixed seeds must keep producing fixed outputs.

These pin down end-to-end determinism across refactors: generator
distributions, partition plans, cluster counts and noise counts for known
seeds.  If a change legitimately alters one of these (e.g. a generator
retune), update the constants deliberately — the diff is the review.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import mrscan
from repro.data import generate_sdss, generate_twitter
from repro.partition import form_partitions
from repro.partition.grid import GridHistogram


def test_twitter_generator_golden():
    pts = generate_twitter(10_000, seed=12345)
    assert len(pts) == 10_000
    # spot-check exact coordinates (bit-stable across numpy's PCG64)
    assert pts.coords[0] == pytest.approx(
        [-73.43595466, 41.64844923], abs=1e-6
    )
    assert float(pts.xs.mean()) == pytest.approx(-93.13344565, abs=1e-5)


def test_sdss_generator_golden():
    pts = generate_sdss(5_000, seed=777)
    assert float(pts.xs.mean()) == pytest.approx(150.9239, abs=0.01)
    assert float(pts.weights.mean()) == pytest.approx(1.68522, abs=0.01)


def test_twitter_clustering_golden():
    pts = generate_twitter(12_000, seed=2013)
    res = mrscan(pts, 0.1, 10, n_leaves=6)
    assert res.n_clusters == 91
    assert res.n_noise == 4577
    assert int(res.core_mask.sum()) == 5350


def test_partition_plan_golden():
    pts = generate_twitter(12_000, seed=2013)
    hist = GridHistogram.from_points(pts, 0.1)
    plan = form_partitions(hist, 6, 10)
    sizes = [p.point_count for p in plan.partitions]
    assert sum(sizes) == 12_000
    assert sizes == [2000, 2000, 2000, 1999, 1995, 2006]


def test_sdss_clustering_golden():
    pts = generate_sdss(8_000, seed=2013)
    res = mrscan(pts, 0.00015, 5, n_leaves=4)
    assert res.n_clusters == 679
    # 432 while box members did not claim their borders: four borders whose
    # every core neighbour is a box member stayed noise.
    assert res.n_noise == 428


# Output contract of the whole pipeline: byte-level labels and core masks,
# the bytes the leaf summaries put on the merge tree, and each leaf's
# modelled ops.  Core masks, merge bytes and the twitter ``labels`` were
# pinned at the commit before the leaf summary became segment passes.
# ``leaf_ops`` on both moved once, with the dense-box detector (kd-tree
# leaves -> cells of the global eps/√2 grid; points eliminated 16 -> 2820
# of the 8036 the sdss leaves see, 0 -> 41 on twitter): eliminated points
# are not scanned.  The sdss ``labels`` moved with it (four borders of
# box-only cores went noise) and back when box members began to claim
# their borders; they are what dense box off gives.  The pass-1 halves of
# ``leaf_ops`` moved once more when
# pass 1 began to stop at MinPts (PR 19): a saturated count no longer knows
# a core row's exact neighbours, so both engines charge a core row from its
# candidates alone (``expected_scan_ops``: the disk share of the stencil
# stands in for ``k``); pass 2 and every digest are as they were.
_CONTRACT = {
    "twitter": dict(
        make=lambda: generate_twitter(12_000, seed=2013), eps=0.1, minpts=10, n_leaves=6,
        labels="bdf8f74d1931b260559166f916de7f19246801c8",
        core_mask="2fe0103820baa09423e9f96117cd3b89ca5e508d",
        n_clusters=91,
        merge_bytes=293944,
        leaf_ops=[
            (38184, 37412), (32794, 26437), (37233, 27942),
            (39439, 40449), (41389, 47365), (41492, 45072),
        ],
    ),
    "sdss": dict(
        make=lambda: generate_sdss(8_000, seed=2013), eps=0.00015, minpts=5, n_leaves=4,
        labels="027e2b83b2245fa8c56394d05398d066faf2fa04",
        core_mask="2e84f6a317319a0a0eb69820cd038c536a4bcc1e",
        n_clusters=679,
        merge_bytes=216096,
        leaf_ops=[(11292, 14068), (11636, 15022), (11236, 15163), (11291, 13962)],
    ),
}


@pytest.mark.parametrize("transport", ["local", "process", "shm", "tcp"])
@pytest.mark.parametrize("fixture", sorted(_CONTRACT))
def test_pipeline_output_contract_golden(fixture, transport):
    """Every transport but ``local`` pickles the summaries — back from the
    leaf tasks, out to the reduce task, back merged — so this also holds
    their columnar wire form to the same bytes.  The cluster count is the
    root's assignment's, and it is the number of labels used."""
    want = _CONTRACT[fixture]
    res = mrscan(
        want["make"](), want["eps"], want["minpts"], n_leaves=want["n_leaves"],
        transport=transport, transport_workers=2,
    )
    assert hashlib.sha1(res.labels.tobytes()).hexdigest() == want["labels"]
    assert hashlib.sha1(res.core_mask.tobytes()).hexdigest() == want["core_mask"]
    assert res.n_clusters == want["n_clusters"]
    assert len(np.unique(res.labels[res.labels >= 0])) == want["n_clusters"]
    assert res.network_traces["merge_reduce"].total_bytes == want["merge_bytes"]
    assert [(s.pass1_ops, s.pass2_ops) for s in res.gpu_stats] == want["leaf_ops"]


@pytest.mark.parametrize("knob", [{"use_densebox": False}, {}])
@pytest.mark.parametrize("fixture", sorted(_CONTRACT))
def test_labels_without_the_densebox_deviation_golden(fixture, knob):
    """Box members claim their borders, so dense box saves work and moves
    no label: on or off, the labels are the same bytes."""
    want = _CONTRACT[fixture]
    res = mrscan(want["make"](), want["eps"], want["minpts"], n_leaves=want["n_leaves"], **knob)
    assert hashlib.sha1(res.labels.tobytes()).hexdigest() == want["labels"]
    assert hashlib.sha1(res.core_mask.tobytes()).hexdigest() == want["core_mask"]
