"""Tests for critical-path (virtual parallel) time reconstruction."""

from __future__ import annotations

import pytest

from repro.mrnet import Network, SumFilter, Topology
from repro.mrnet.packets import NetworkTrace, Packet
from repro.mrnet.schedule import map_virtual_time, reduce_critical_path


def _trace(computes: dict[int, float], packets=()) -> NetworkTrace:
    t = NetworkTrace()
    t.node_compute_seconds = dict(computes)
    t.packets = [Packet(src=s, dst=d, tag="x", nbytes=n) for s, d, n in packets]
    return t


def test_map_virtual_is_max_leaf():
    assert map_virtual_time(_trace({1: 0.2, 2: 0.7, 3: 0.1})) == 0.7
    assert map_virtual_time(_trace({})) == 0.0


def test_reduce_flat_is_root_compute():
    topo = Topology.flat(3)
    trace = _trace({0: 0.5})
    assert reduce_critical_path(topo, trace) == pytest.approx(0.5)


def test_reduce_two_levels_takes_heaviest_path():
    topo = Topology.from_fanouts([2, 2])  # root 0; internals 1,2; leaves 3-6
    trace = _trace({0: 0.1, 1: 0.2, 2: 0.9})
    # path through internal 2 dominates: 0.9 + 0.1
    assert reduce_critical_path(topo, trace) == pytest.approx(1.0)


def test_reduce_link_bandwidth_adds_transfer():
    topo = Topology.flat(2)
    trace = _trace({0: 0.0}, packets=[(1, 0, 1000), (2, 0, 4000)])
    t = reduce_critical_path(topo, trace, link_bandwidth=1000.0)
    assert t == pytest.approx(4.0)  # the 4000-byte child dominates


def test_real_reduce_critical_path_below_wall_sum():
    """On real traces, the virtual time never exceeds the compute sum."""
    import time

    topo = Topology.from_fanouts([2, 3])
    net = Network(topo)

    class SlowSum(SumFilter):
        def combine(self, payloads):
            time.sleep(0.002)
            return super().combine(payloads)

    _, trace = net.reduce([1] * 6, SlowSum())
    virtual = reduce_critical_path(topo, trace)
    wall_sum = sum(trace.node_compute_seconds.values())
    assert 0 < virtual <= wall_sum + 1e-9


def test_pipeline_virtual_timings(small_twitter):
    from repro.core.pipeline import mrscan

    res = mrscan(small_twitter, 0.1, 10, n_leaves=8)
    v = res.virtual_timings
    assert v.total > 0
    # Virtual cluster time is one leaf's work; wall is all eight leaves
    # executed serially on this host.
    assert v.cluster <= res.timings.cluster + 1e-9
    assert v.total <= res.timings.total * 1.5
    assert v.as_dict()["total"] == pytest.approx(v.total)


def test_virtual_strong_scaling_improves_with_leaves():
    """The point of the feature: real strong scaling becomes visible."""
    from repro.core.pipeline import mrscan
    from repro.data import generate_twitter

    pts = generate_twitter(30_000, seed=51)
    v1 = mrscan(pts, 0.1, 40, n_leaves=1).virtual_timings.cluster
    v8 = mrscan(pts, 0.1, 40, n_leaves=8).virtual_timings.cluster
    assert v8 < v1
