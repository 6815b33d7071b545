"""Cluster-engine conformance: csr must be byte-identical to block.

``mrscan_gpu`` runs the passes as batched vectorised kernels (csr); the
per-cell python loops they replaced are the differential oracle,
``block_reference.block_mrscan_gpu``.  The contract is stronger than
"same clustering": labels, core masks, the border pass's claims and the
modeled operation counts must be *byte-identical*.

Three layers of evidence:

1. direct ``mrscan_gpu`` parity over a randomized parameter sweep
   (densebox on/off, OOM chunking, tiny devices);
2. parity on every leaf view of the seeded fuzz corpus
   (``fuzz_cases.generate_case``), partitioned as the pipeline would;
3. the pipeline under every transport (local/process/shm/tcp) and under
   seeded fault plans against an in-process run whose leaves call the
   block oracle.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest
from block_reference import block_mrscan_gpu
from merge_reference import reference_noncore_claims

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import run_pipeline
from repro.gpu.device import DeviceConfig, SimulatedDevice
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.partition import GridHistogram, form_partitions, partition_points
from repro.points import PointSet
from repro.runtime import TRANSPORT_NAMES
from dense_leaf import EPS, MINPTS, dense_blob_leaf, mixed_box_leaf
from fuzz_cases import generate_case

# ``repro.gpu`` re-exports the function under the module's name.
_gpu_mod = importlib.import_module("repro.gpu.mrscan_gpu")

# ---------------------------------------------------------------------- #
# Direct kernel-level parity
# ---------------------------------------------------------------------- #


def _random_points(rng: np.random.Generator, n: int, mode: int) -> PointSet:
    """Datasets chosen to stress distinct neighborhood structures."""
    if mode == 0:  # uniform: every cell sparsely populated
        coords = rng.uniform(0.0, 6.0, size=(n, 2))
    elif mode == 1:  # tight blobs: dense boxes eliminate most points
        centers = rng.uniform(0.0, 8.0, size=(6, 2))
        coords = centers[rng.integers(0, 6, size=n)] + rng.normal(0, 0.05, (n, 2))
    elif mode == 2:  # collinear: degenerate 1-D geometry
        x = rng.uniform(0.0, 10.0, size=n)
        coords = np.column_stack([x, np.full(n, 0.5)])
    else:  # duplicates: exact ties exercise the border tie-break
        base = rng.uniform(0.0, 3.0, size=(max(n // 3, 1), 2))
        coords = base[rng.integers(0, len(base), size=n)]
    return PointSet.from_coords(coords)


def _claim_set(res) -> np.ndarray:
    return np.unique(res.claims, axis=0)


def _assert_identical(res_block, res_csr) -> None:
    np.testing.assert_array_equal(res_block.labels, res_csr.labels)
    np.testing.assert_array_equal(res_block.core_mask, res_csr.core_mask)
    # Every within-Eps (non-core, core) pair, once each, in any order.
    assert len(_claim_set(res_csr)) == len(res_csr.claims)
    np.testing.assert_array_equal(_claim_set(res_block), _claim_set(res_csr))
    # The modeled SIMT cost accounting is engine-invariant: csr batches
    # differently but must charge the same algorithmic work.
    assert res_block.stats.pass1_ops == res_csr.stats.pass1_ops
    assert res_block.stats.pass2_ops == res_csr.stats.pass2_ops
    assert res_block.stats.sync_round_trips == res_csr.stats.sync_round_trips
    assert res_block.stats.n_core == res_csr.stats.n_core
    assert res_block.stats.n_eliminated == res_csr.stats.n_eliminated


def _record_walk_batches(monkeypatch) -> list[int]:
    """Wrap the leaf's three walks (counting, core components, border
    claims); each call appends the length of the batch list it returns."""
    seen: list[int] = []
    for name, at in (("_csr_counts", 1), ("_csr_core_components", 2), ("walk_claims", 2)):

        def recorded(*args, _walk=getattr(_gpu_mod, name), _at=at, **kwargs):
            out = _walk(*args, **kwargs)
            seen.append(len(out[_at]))
            return out

        monkeypatch.setattr(_gpu_mod, name, recorded)
    return seen


@pytest.mark.parametrize("trial", range(20))
def test_direct_parity_randomized(trial, monkeypatch):
    """mrscan_gpu == block_mrscan_gpu, bit for bit."""
    rng = np.random.default_rng(1000 + trial)
    points = _random_points(rng, int(rng.integers(50, 900)), trial % 4)
    eps = float(rng.uniform(0.05, 0.4))
    minpts = int(rng.integers(2, 12))
    use_densebox = bool(rng.random() < 0.7)
    rng.random()  # the draw that once chose the border rule; keeps later trials' points
    if trial >= 12:
        # Saturation-heavy: tight blobs, a low MinPts and no dense boxes,
        # so most rows (95-100 % over these draws) are retired by bulk
        # credit in the counting walk and pass 1 never learns their count.
        points = _random_points(rng, int(rng.integers(300, 900)), 1)
        eps = float(rng.uniform(0.03, 0.12))
        minpts = int(rng.integers(2, 5))
        use_densebox = False
    res_block = block_mrscan_gpu(points, eps, minpts, use_densebox=use_densebox)
    walk_batches = _record_walk_batches(monkeypatch)
    res_csr = mrscan_gpu(points, eps, minpts, use_densebox=use_densebox)
    _assert_identical(res_block, res_csr)
    assert res_block.stats.engine == "block"
    assert res_csr.stats.engine == "csr"
    assert len(walk_batches) == (3 if res_csr.stats.n_core else 1)
    assert res_csr.stats.csr_batches == sum(walk_batches)
    # Box pairs settled by their extents evaluate no distance, so a draw
    # may need no batch at all; a border claim, though, is only ever found
    # by testing the pair.
    if len(res_block.claims):
        assert res_csr.stats.csr_batches >= 1
    assert res_block.stats.csr_batches == 0


@pytest.mark.parametrize("memory_chunks", [1, 2, 4])
def test_direct_parity_under_memory_chunking(memory_chunks):
    """The OOM-degradation path (smaller batches) cannot change labels."""
    rng = np.random.default_rng(7)
    points = _random_points(rng, 600, 1)
    res_block = block_mrscan_gpu(points, 0.15, 5, memory_chunks=memory_chunks)
    res_csr = mrscan_gpu(points, 0.15, 5, memory_chunks=memory_chunks)
    _assert_identical(res_block, res_csr)
    assert res_csr.stats.memory_chunks == memory_chunks


def test_csr_runs_on_tiny_device():
    """A device too small for the default scratch shrinks batches, not fails."""
    rng = np.random.default_rng(11)
    points = _random_points(rng, 400, 0)
    tiny = SimulatedDevice(DeviceConfig(memory_bytes=200_000))
    res = mrscan_gpu(points, 0.2, 4, device=tiny)
    ref = block_mrscan_gpu(points, 0.2, 4)
    np.testing.assert_array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_direct_parity_degenerate_sizes(n):
    coords = np.zeros((n, 2)) if n else np.empty((0, 2))
    if n == 0:
        return  # mrscan_gpu requires points; pipeline guards empty input
    points = PointSet.from_coords(coords)
    res_block = block_mrscan_gpu(points, 0.1, 2)
    res_csr = mrscan_gpu(points, 0.1, 2)
    _assert_identical(res_block, res_csr)


# The two hand-built dense leaves (``dense_leaf``): the counters are the
# parent engine's, pinned, so a pass that regroups its rows must model the
# same work, batch for batch.
_DENSE_PINS = {
    dense_blob_leaf: dict(
        pass1_ops=629, pass2_ops=442, kernel_launches=4, csr_batches=2,
        n_core=1401, n_boxes=5, n_eliminated=1400, sync_round_trips=2,
    ),
    mixed_box_leaf: dict(
        pass1_ops=1575, pass2_ops=2129, kernel_launches=6, csr_batches=3,
        n_core=2631, n_boxes=8, n_eliminated=2600, sync_round_trips=2,
    ),
}


@pytest.mark.parametrize("make", list(_DENSE_PINS), ids=lambda make: make.__name__)
def test_dense_leaf_parity_and_counters(make):
    """A leaf with 98-99 % of its rows in dense boxes and box cells that
    hold a core and a non-core row (``dense_leaf``): labels, core mask,
    claims and their d² against the block oracle, and the stats pinned.
    Probing a mixed cell's non-core row breaks ``mixed_box_leaf``'s labels;
    judging it by all its rows' extent adds a batch to ``dense_blob_leaf``.
    ~0.1 s each."""
    points = make()
    res_block = block_mrscan_gpu(points, EPS, MINPTS)
    res_csr = mrscan_gpu(points, EPS, MINPTS)
    _assert_identical(res_block, res_csr)
    assert res_csr.stats.n_eliminated >= 0.95 * len(points)
    order = np.lexsort(res_csr.claims.T[::-1])
    r, c = res_csr.claims[order].T
    d = points.coords[r] - points.coords[c]
    np.testing.assert_array_equal(res_csr.claim_d2[order], d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    stats = res_csr.stats
    assert {name: getattr(stats, name) for name in _DENSE_PINS[make]} == _DENSE_PINS[make]


# ---------------------------------------------------------------------- #
# Engine selection
# ---------------------------------------------------------------------- #


def test_no_engine_keyword():
    """One engine in the library: the block oracle lives in the tests."""
    assert "engine" not in inspect.signature(mrscan_gpu).parameters


# ---------------------------------------------------------------------- #
# Parity over the fuzz corpus
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_corpus_parity(seed):
    """The seeded fuzz corpus, one leaf view at a time:
    the views are the ones the pipeline's leaves would be handed."""
    case = generate_case(seed, max_points=700)
    points = case.points()
    plan = form_partitions(
        GridHistogram.from_points(points, case.eps), case.n_leaves, case.minpts
    )
    for own, shadow in partition_points(points, plan):
        view = own.concat(shadow)
        if len(view) == 0:
            continue
        res_block, res_csr = (
            engine(view, case.eps, case.minpts, use_densebox=case.use_densebox)
            for engine in (block_mrscan_gpu, mrscan_gpu)
        )
        _assert_identical(res_block, res_csr)


def _claims_by_label(res) -> dict[int, list[int]]:
    """The carried claims as ``reference_noncore_claims`` reports them."""
    claims: dict[int, set[int]] = {}
    for row, core in res.claims.tolist():
        claims.setdefault(int(res.labels[core]), set()).add(row)
    return {label: sorted(rows) for label, rows in claims.items()}


@pytest.mark.parametrize("seed", range(8))
def test_carried_claims_match_reference(seed):
    """The claims ``mrscan_gpu`` hands to ``summarize_leaf`` are the
    per-cell loop's claim sets: every fuzz-corpus leaf view plus a
    duplicate-heavy set, dense box on and off, on the default device and
    on one small enough to split the border pass into many batches."""
    case = generate_case(seed, max_points=700)
    points = case.points()
    plan = form_partitions(
        GridHistogram.from_points(points, case.eps), case.n_leaves, case.minpts
    )
    views = [own.concat(shadow) for own, shadow in partition_points(points, plan)]
    views.append(_random_points(np.random.default_rng(seed), 300, 3))
    for view in filter(len, views):
        want = None
        for use_densebox in (True, False):
            for memory_chunks in (1, 4):
                for device in (None, SimulatedDevice(DeviceConfig(memory_bytes=200_000))):
                    res = mrscan_gpu(
                        view, case.eps, case.minpts, device=device,
                        use_densebox=use_densebox, memory_chunks=memory_chunks,
                    )
                    if want is None:
                        want = reference_noncore_claims(
                            view, res.labels, res.core_mask, case.eps
                        )
                    assert _claims_by_label(res) == want


def _case_labels(case, **overrides):
    config = case.config(validate="off", **overrides)
    return run_pipeline(case.points(), config).labels


def _block_oracle_labels(case, monkeypatch):
    """The pipeline's labels with every leaf clustered by the block
    oracle — in-process, so the patched name is the one the leaves call."""
    with monkeypatch.context() as oracle:
        oracle.setattr(pipeline_mod, "mrscan_gpu", block_mrscan_gpu)
        result = run_pipeline(
            case.points(), case.config(validate="off", transport="local")
        )
    assert all(s.engine == "block" for s in result.gpu_stats)
    return result.labels


@pytest.mark.parametrize("transport", TRANSPORT_NAMES)
def test_parity_across_transports(transport, monkeypatch):
    """One fuzz case, every transport: csr matches the block baseline."""
    case = generate_case(42, max_points=500, fault_fraction=0.0)
    baseline = _block_oracle_labels(case, monkeypatch)
    got = _case_labels(case, transport=transport, transport_workers=2)
    np.testing.assert_array_equal(baseline, got)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [5, 17])
def test_parity_under_fault_plans(seed, monkeypatch):
    """Seeded fault plans (crash/delay/failover): the recovered csr run
    agrees with the recovered block-oracle run."""
    case = generate_case(seed, fault_fraction=1.0, max_points=600)
    assert case.fault_seed is not None
    labels_block = _block_oracle_labels(case, monkeypatch)
    labels_csr = _case_labels(case)
    np.testing.assert_array_equal(labels_block, labels_csr)
