"""A caller's transport handed to runs: the runs use it and never close it."""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.core import mrscan
from repro.core.config import MrScanConfig
from repro.core.pipeline import cluster_merge_sweep, run_pipeline
from repro.partition.grid import GridHistogram
from repro.partition.partitioner import form_partitions, partition_points
from repro.points import PointSet
from repro.mrnet.topology import Topology
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import ShmTransport
from repro.runtime.executor import LocalTransport
from repro.serve.state import ServeState
from shm_segments import own_segments, own_usage


def _blobs(n: int = 800, seed: int = 5) -> PointSet:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2, 2, size=(4, 2))
    which = rng.integers(0, 4, size=n)
    return PointSet.from_coords(centers[which] + rng.normal(0, 0.08, size=(n, 2)))


class _CountingClose(LocalTransport):
    def __init__(self) -> None:
        super().__init__()
        self.closes = 0

    def close(self) -> None:
        self.closes += 1


def test_runs_never_close_a_transport_they_are_handed():
    points = _blobs(400)
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4)
    transport = _CountingClose()
    run_pipeline(points, config, transport=transport)
    plan = form_partitions(
        GridHistogram.from_points(points, config.eps), config.n_leaves, config.minpts
    )
    cluster_merge_sweep(
        partitions=partition_points(points, plan), plan=plan,
        n_points=len(points), config=config, transport=transport,
    )
    state = ServeState(points, config, transport=transport)
    state.ingest(_blobs(50, seed=6).coords)
    assert transport.closes == 0


@pytest.mark.slow
def test_borrowed_shm_transport_survives_run_pipeline():
    """run_pipeline leaves the agents and arena of a transport it is
    handed alive, so a second run reuses both."""
    points = _blobs()
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4, transport="shm")
    with ShmTransport(n_workers=2) as transport:
        first = run_pipeline(points, config, transport=transport)
        agents = _live_agents(transport)
        assert len(agents) == 2  # agents not reaped by the run
        second = run_pipeline(points, config, transport=transport)
        assert _live_agents(transport) == agents
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
        assert _staged_sums(transport, [ref, ref])  # agents attach
        names = transport.arena.segment_names
        transport.rewind()
        ref2 = transport.stage_pointset(other)
        assert (ref2.coords.segment, ref2.coords.offset) == (
            ref.coords.segment, ref.coords.offset
        )
        assert transport.arena.segment_names == names
        # The agents' cached attachments now read the restaged bytes.
        for total in _staged_sums(transport, [ref2, ref2]):
            assert abs(total - float(other.coords.sum())) < 1e-6
    leaked = own_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"


@pytest.mark.slow
def test_thirty_runs_on_one_pool_stage_into_the_same_pages():
    """A resident transport's shared memory stops growing after the first
    run: every run restages into the pages the previous one used."""
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
    """A straggler the timeout abandoned would still read its staged
    block, so abandoning it kills its agent and waits for the exit before
    the end-of-run rewind; the next run respawns the agent and both runs
    give the local labels."""
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
        first_pids = _live_agents(transport)
        timed_out = run_pipeline(points, straggling, transport=transport)
        assert timed_out.fault_summary["by_kind"].get("timeout", 0) >= 1
        assert timed_out.labels.tobytes() == expected.tobytes()
        stragglers = first_pids - _live_agents(transport)
        assert stragglers  # killed before the run returned
        clean = run_pipeline(points, config, transport=transport)
        assert clean.labels.tobytes() == expected.tobytes()
        assert not _live_agents(transport) & stragglers


def _live_agents(transport) -> set[int]:
    return {p.pid for p in transport._agents if p.poll() is None}


def _staged_sums(transport, refs) -> list[float]:
    """Each ref's coordinate sum, read by an agent (agents import task
    functions by module path, so the task is a stdlib callable)."""
    points = transport.run_batch(operator.methodcaller("materialize"), refs)
    return [float(ps.coords.sum()) for ps in points]


def test_local_transport_borrow_in_pipeline():
    points = _blobs(400)
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=4)
    transport = LocalTransport()
    result = run_pipeline(points, config, transport=transport)
    assert result.n_clusters > 0
    # A second run on the same transport works: nothing was reaped.
    again = run_pipeline(points, config, transport=transport)
    np.testing.assert_array_equal(result.labels, again.labels)
