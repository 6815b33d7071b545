"""BorrowedTransport: lending a resident transport without ceding ownership."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import mrscan
from repro.core.config import MrScanConfig
from repro.core.pipeline import run_pipeline
from repro.points import PointSet
from repro.mrnet.topology import Topology
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import (
    BorrowedTransport,
    ShmTransport,
    borrow_transport,
)
from repro.runtime.executor import LocalTransport, make_transport
from shm_segments import own_segments, own_usage


def _blobs(n: int = 800, seed: int = 5) -> PointSet:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2, 2, size=(4, 2))
    which = rng.integers(0, 4, size=n)
    return PointSet.from_coords(centers[which] + rng.normal(0, 0.08, size=(n, 2)))


def test_close_is_counted_noop():
    inner = make_transport("local")
    try:
        borrowed = borrow_transport(inner)
        borrowed.close()
        borrowed.close()
        assert borrowed.close_calls == 2
        # The inner transport is untouched and still usable.
        assert inner.run_batch(len, [[1, 2], [3]]) == [2, 1]
    finally:
        inner.close()


def test_borrow_is_idempotent():
    inner = make_transport("local")
    try:
        b1 = borrow_transport(inner)
        b2 = borrow_transport(b1)
        assert b2 is b1
        assert b1.inner is inner
    finally:
        inner.close()


def test_attribute_writes_reach_owner():
    inner = make_transport("local")
    try:
        borrowed = BorrowedTransport(inner)
        borrowed.stage_degraded = True
        assert inner.stage_degraded is True
        inner.stage_degraded = False
        assert borrowed.stage_degraded is False
    finally:
        inner.close()


@pytest.mark.slow
def test_borrowed_shm_transport_survives_run_pipeline():
    """run_pipeline close()s the transport it is handed; a borrow keeps
    the pool and arena alive so a second run reuses both."""
    points = _blobs()
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4, transport="shm")
    with ShmTransport(n_workers=2) as transport:
        borrowed = borrow_transport(transport)
        first = run_pipeline(points, config, transport=borrowed)
        assert transport._pool is not None  # pool not reaped by the run
        # Even a stray close() on the borrow cannot reap the owner.
        borrowed.close()
        assert borrowed.close_calls == 1
        second = run_pipeline(points, config, transport=borrowed)
        np.testing.assert_array_equal(first.labels, second.labels)


@pytest.mark.slow
def test_string_transport_still_closed_by_pipeline():
    """Passing a transport *name* keeps the old semantics: the run owns
    and reaps it — no shm segments survive."""
    before = own_segments()
    points = _blobs()
    result = mrscan(points, 0.08, 8, n_leaves=4, transport="shm")
    assert result.n_clusters > 0
    leaked = own_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"


@pytest.mark.slow
def test_rewind_reuses_segments_and_restaged_refs_resolve():
    points = _blobs()
    other = PointSet.from_coords(points.coords * 3.0 + 1.0)
    before = own_segments()
    with ShmTransport(n_workers=2) as transport:
        ref = transport.stage_pointset(points)
        assert transport.run_batch(_staged_sum, [ref, ref])  # workers attach
        names = transport.arena.segment_names
        transport.rewind()
        ref2 = transport.stage_pointset(other)
        assert (ref2.coords.segment, ref2.coords.offset) == (
            ref.coords.segment, ref.coords.offset
        )
        assert transport.arena.segment_names == names
        # The workers' cached attachments now read the restaged bytes.
        for total in transport.run_batch(_staged_sum, [ref2, ref2]):
            assert abs(total - float(other.coords.sum())) < 1e-6
    leaked = own_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"


@pytest.mark.slow
def test_thirty_runs_on_one_pool_stage_into_the_same_pages():
    """A resident pool's shared memory stops growing after the first run:
    every run restages into the pages the previous one used."""
    points = _blobs(3000)
    expected = mrscan(points, 0.08, 8, n_leaves=4, transport="local").labels
    # Small blocks, so a run that did not rewind would add segments.
    with ShmTransport(n_workers=2, block_bytes=1 << 16) as transport:
        for call in range(1, 31):
            result = mrscan(points, 0.08, 8, n_leaves=4, transport=transport)
            assert result.labels.tobytes() == expected.tobytes()
            if call == 2:
                after_second = own_usage()
        assert after_second[0] > 0
        assert own_usage() == after_second


@pytest.mark.slow
def test_timed_out_run_respawns_the_pool_before_the_rewind():
    """A straggler the timeout abandoned still reads its staged block, so
    the end-of-run rewind terminates that pool; the next run respawns it
    and both runs give the local labels."""
    points = _blobs(3000)
    expected = mrscan(points, 0.08, 8, n_leaves=4, transport="local").labels
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4)
    slow_leaf = Topology.paper_style(4, config.fanout).leaves()[0]
    straggling = MrScanConfig(
        eps=0.08, minpts=8, n_leaves=4, leaf_timeout=1.0, backoff_base=0.0,
        fault_plan=FaultPlan(faults=(
            FaultSpec(node=slow_leaf, phase="cluster", kind="slowdown",
                      delay_seconds=60.0),
        )),
    )
    with ShmTransport(n_workers=2) as transport:
        run_pipeline(points, config, transport=transport)
        first_pids = set(transport._known_pids)
        timed_out = run_pipeline(points, straggling, transport=transport)
        assert timed_out.fault_summary["by_kind"].get("timeout", 0) >= 1
        assert timed_out.labels.tobytes() == expected.tobytes()
        assert transport._pool is None and not transport._abandoned
        clean = run_pipeline(points, config, transport=transport)
        assert clean.labels.tobytes() == expected.tobytes()
        assert not transport._known_pids & first_pids


def _staged_sum(ref):
    return float(ref.materialize().coords.sum())


def test_local_transport_borrow_in_pipeline():
    points = _blobs(400)
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4)
    inner = LocalTransport()
    borrowed = borrow_transport(inner)
    result = run_pipeline(points, config, transport=borrowed)
    assert result.n_clusters > 0
    # A second run on the same borrow works: nothing was reaped.
    again = run_pipeline(points, config, transport=borrowed)
    np.testing.assert_array_equal(result.labels, again.labels)
