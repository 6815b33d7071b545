"""Tests for MRNet collective operations and transports."""

from __future__ import annotations

import operator
from functools import partial

import numpy as np
import pytest

from repro.errors import TopologyError, TransportError
from repro.mrnet import (
    ListConcatFilter,
    LocalTransport,
    Network,
    SumFilter,
    Topology,
)
from repro.mrnet.filters import FunctionFilter
from repro.mrnet.packets import NetworkTrace, Packet, payload_nbytes
from repro.runtime import ShmTransport


# A stdlib callable, so shm agents (which import task functions by
# module path) can run it too.
_double = partial(operator.mul, 2)


def test_map_leaves_order_and_results():
    net = Network(Topology.flat(4))
    results, trace = net.map_leaves(_double, [1, 2, 3, 4])
    assert results == [2, 4, 6, 8]
    assert set(trace.node_compute_seconds) == set(net.topology.leaves())


def test_map_leaves_wrong_arity():
    net = Network(Topology.flat(3))
    with pytest.raises(TopologyError):
        net.map_leaves(_double, [1, 2])


def test_reduce_sum_flat():
    net = Network(Topology.flat(5))
    total, trace = net.reduce([1, 2, 3, 4, 5], SumFilter())
    assert total == 15
    assert trace.n_packets == 5  # leaf->root only


def test_reduce_three_levels():
    topo = Topology.from_fanouts([2, 3])  # root, 2 internals, 6 leaves
    net = Network(topo)
    total, trace = net.reduce([1] * 6, SumFilter())
    assert total == 6
    # 6 leaf->internal + 2 internal->root packets
    assert trace.n_packets == 8
    # internal nodes and root all computed
    assert set(trace.node_compute_seconds) == {0, 1, 2}


def test_reduce_concat_preserves_leaf_order():
    topo = Topology.from_fanouts([2, 2])
    net = Network(topo)
    out, _ = net.reduce([[1], [2], [3], [4]], ListConcatFilter())
    assert out == [1, 2, 3, 4]


def test_reduce_wrong_arity():
    net = Network(Topology.flat(2))
    with pytest.raises(TopologyError):
        net.reduce([1], SumFilter())


def test_multicast_broadcast():
    topo = Topology.from_fanouts([2, 2])
    net = Network(topo)
    leaf_vals, trace = net.multicast("hello")
    assert leaf_vals == ["hello"] * 4
    assert trace.n_packets == 6  # 2 root->internal + 4 internal->leaf


def test_reduce_multicast_roundtrip():
    """reduce + multicast is the merge/sweep shape: root sees the combined
    value, every leaf then receives it."""
    topo = Topology.paper_style(300)  # 3-level tree, 2 internals
    net = Network(topo)
    total, _ = net.reduce(list(range(300)), SumFilter())
    leaf_vals, _ = net.multicast(total)
    assert all(v == sum(range(300)) for v in leaf_vals)


def test_function_filter():
    f = FunctionFilter(lambda payloads: max(payloads))
    net = Network(Topology.flat(3))
    out, _ = net.reduce([3, 9, 4], f)
    assert out == 9


# The shm transport (one agent process per worker) under the collectives.


def test_process_transport_map_and_reduce():
    with ShmTransport(n_workers=2) as transport:
        net = Network(Topology.flat(4), transport)
        results, _ = net.map_leaves(_double, [1, 2, 3, 4])
        assert results == [2, 4, 6, 8]
        total, _ = net.reduce([1, 2, 3, 4], SumFilter())
        assert total == 10


def test_process_transport_rejects_bad_workers():
    with pytest.raises(TransportError):
        ShmTransport(n_workers=0)


def test_process_transport_unpicklable_payload():
    with ShmTransport(n_workers=1) as transport:
        net = Network(Topology.flat(2), transport)
        with pytest.raises(TransportError):
            net.map_leaves(_double, [lambda: 1, lambda: 2])


def test_local_transport_empty_batch():
    assert LocalTransport().run_batch(_double, []) == []


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, tag="x", nbytes=-1)


def test_payload_nbytes_variants():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(np.zeros(10)) == 80
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 16 + 40
    assert payload_nbytes({"a": np.zeros(1)}) > 8

    class WithHook:
        def payload_bytes(self):
            return 12345

    assert payload_nbytes(WithHook()) == 12345


def test_trace_aggregates():
    t = NetworkTrace()
    t.record(1, 0, "reduce", np.zeros(4))
    t.record(2, 0, "reduce", np.zeros(2))
    assert t.n_packets == 2
    assert t.total_bytes == 48
    assert t.bytes_into(0) == 48
