"""Cluster-engine conformance: csr must be byte-identical to block.

The csr engine replaces the block engine's per-cell python loops with
batched vectorised kernels, but the contract is stronger than "same
clustering": labels, core masks and the modeled operation counts must be
*byte-identical*.  The pipeline only ever runs csr; block is the
differential oracle, reachable through ``mrscan_gpu(engine="block")``.

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

from functools import partial

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.pipeline import run_pipeline
from repro.errors import ConfigError
from repro.gpu.device import DeviceConfig, SimulatedDevice
from repro.gpu.mrscan_gpu import mrscan_gpu
from repro.partition import GridHistogram, form_partitions, partition_points
from repro.points import PointSet
from fuzz_cases import generate_case

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


def _assert_identical(res_block, res_csr) -> None:
    np.testing.assert_array_equal(res_block.labels, res_csr.labels)
    np.testing.assert_array_equal(res_block.core_mask, res_csr.core_mask)
    # The modeled SIMT cost accounting is engine-invariant: csr batches
    # differently but must charge the same algorithmic work.
    assert res_block.stats.pass1_ops == res_csr.stats.pass1_ops
    assert res_block.stats.pass2_ops == res_csr.stats.pass2_ops
    assert res_block.stats.sync_round_trips == res_csr.stats.sync_round_trips
    assert res_block.stats.n_core == res_csr.stats.n_core
    assert res_block.stats.n_eliminated == res_csr.stats.n_eliminated


@pytest.mark.parametrize("trial", range(20))
def test_direct_parity_randomized(trial):
    """mrscan_gpu(engine=csr) == mrscan_gpu(engine=block), bit for bit."""
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
    res_block = mrscan_gpu(points, eps, minpts, engine="block", use_densebox=use_densebox)
    res_csr = mrscan_gpu(points, eps, minpts, engine="csr", use_densebox=use_densebox)
    _assert_identical(res_block, res_csr)
    assert res_block.stats.engine == "block"
    assert res_csr.stats.engine == "csr"
    assert res_csr.stats.csr_batches >= 1
    assert res_block.stats.csr_batches == 0


@pytest.mark.parametrize("memory_chunks", [1, 2, 4])
def test_direct_parity_under_memory_chunking(memory_chunks):
    """The OOM-degradation path (smaller batches) cannot change labels."""
    rng = np.random.default_rng(7)
    points = _random_points(rng, 600, 1)
    res_block = mrscan_gpu(points, 0.15, 5, engine="block", memory_chunks=memory_chunks)
    res_csr = mrscan_gpu(points, 0.15, 5, engine="csr", memory_chunks=memory_chunks)
    _assert_identical(res_block, res_csr)
    assert res_csr.stats.memory_chunks == memory_chunks


def test_csr_runs_on_tiny_device():
    """A device too small for the default scratch shrinks batches, not fails."""
    rng = np.random.default_rng(11)
    points = _random_points(rng, 400, 0)
    tiny = SimulatedDevice(DeviceConfig(memory_bytes=200_000))
    res = mrscan_gpu(points, 0.2, 4, device=tiny, engine="csr")
    ref = mrscan_gpu(points, 0.2, 4, engine="block")
    np.testing.assert_array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_direct_parity_degenerate_sizes(n):
    coords = np.zeros((n, 2)) if n else np.empty((0, 2))
    if n == 0:
        return  # mrscan_gpu requires points; pipeline guards empty input
    points = PointSet.from_coords(coords)
    res_block = mrscan_gpu(points, 0.1, 2, engine="block")
    res_csr = mrscan_gpu(points, 0.1, 2, engine="csr")
    _assert_identical(res_block, res_csr)


# ---------------------------------------------------------------------- #
# Engine selection
# ---------------------------------------------------------------------- #


def test_engine_resolution_chain(monkeypatch):
    """Explicit keyword, else csr — the environment is not consulted."""
    points = _random_points(np.random.default_rng(3), 200, 1)
    assert mrscan_gpu(points, 0.15, 4).stats.engine == "csr"
    assert mrscan_gpu(points, 0.15, 4, engine="block").stats.engine == "block"
    monkeypatch.setenv("MRSCAN_CLUSTER_ENGINE", "block")
    assert mrscan_gpu(points, 0.15, 4).stats.engine == "csr"


def test_unknown_engine_rejected():
    points = _random_points(np.random.default_rng(3), 50, 0)
    for engine in ("simd", None):  # None is not "look it up somewhere"
        with pytest.raises(ConfigError, match="unknown cluster engine"):
            mrscan_gpu(points, 0.15, 4, engine=engine)


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
            mrscan_gpu(
                view, case.eps, case.minpts, engine=e, use_densebox=case.use_densebox
            )
            for e in ("block", "csr")
        )
        _assert_identical(res_block, res_csr)


def _case_labels(case, **overrides):
    config = case.config(validate="off", **overrides)
    return run_pipeline(case.points(), config).labels


def _block_oracle_labels(case, monkeypatch):
    """The pipeline's labels with every leaf clustered by the block
    oracle — in-process, so the patched name is the one the leaves call."""
    with monkeypatch.context() as oracle:
        oracle.setattr(pipeline_mod, "mrscan_gpu", partial(mrscan_gpu, engine="block"))
        result = run_pipeline(
            case.points(), case.config(validate="off", transport="local")
        )
    assert all(s.engine == "block" for s in result.gpu_stats)
    return result.labels


@pytest.mark.parametrize("transport", ["local", "process", "shm", "tcp"])
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
