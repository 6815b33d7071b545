"""Retry/backoff schedules, per-attempt deadlines, and failover at the
Network layer — including the preemptive timeout path of the spawn pool."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError, LeafTimeoutError, RetryExhaustedError
from repro.mrnet import Network, SumFilter, Topology
from repro.mrnet.transport import TIMED_OUT
from repro.resilience import FaultPlan, FaultSpec, ResiliencePolicy, RetryPolicy
from repro.runtime import ShmTransport


# ----------------------------- policies -------------------------------- #


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=0.35)
    assert policy.backoff_seconds(0) == pytest.approx(0.1)
    assert policy.backoff_seconds(1) == pytest.approx(0.2)
    assert policy.backoff_seconds(2) == pytest.approx(0.35)  # capped
    assert RetryPolicy(backoff_base=0.0).backoff_seconds(5) == 0.0


def test_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigError):
        ResiliencePolicy(leaf_timeout=0)


def test_fail_fast_matches_seed_contract():
    policy = ResiliencePolicy.fail_fast(2)
    assert policy.retry.max_retries == 2
    assert policy.retry.backoff_seconds(0) == 0.0
    assert not policy.failover


# ------------------------- backoff between rounds ----------------------- #


def test_network_sleeps_backoff_between_retry_rounds():
    topo = Topology.flat(2)
    leaf = topo.leaves()[0]
    plan = FaultPlan(
        faults=(
            FaultSpec(node=leaf, phase="map", attempt=0),
            FaultSpec(node=leaf, phase="map", attempt=1),
        )
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=3, backoff_base=0.01, backoff_factor=2.0)
        ),
    )
    sleeps: list[float] = []
    net._sleep = sleeps.append
    results, _ = net.map_leaves(lambda x: x, [1, 2])
    assert results == [1, 2]
    assert sleeps == [pytest.approx(0.01), pytest.approx(0.02)]  # exponential


def test_multicast_retry_also_backs_off():
    topo = Topology.from_fanouts([2, 2])
    internal = topo.internal_nodes()[0]
    plan = FaultPlan(
        faults=(FaultSpec(node=internal, phase="multicast", attempt=0),)
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=1, backoff_base=0.005)),
    )
    sleeps: list[float] = []
    net._sleep = sleeps.append
    leaves, _ = net.multicast("x")
    assert leaves == ["x"] * 4
    assert sleeps == [pytest.approx(0.005)]


# --------------------------- deadlines --------------------------------- #


def _slow_then_fast(x):
    """Module-level for pickling: 'slow' hangs well past any deadline."""
    if x == "slow":
        time.sleep(5.0)
    return x


def test_cooperative_timeout_under_local_transport():
    """LocalTransport cannot preempt, but the post-work deadline check
    converts a straggler into a LeafTimeoutError + retry."""
    topo = Topology.flat(2)
    slow_leaf = topo.leaves()[0]
    plan = FaultPlan(
        faults=(
            FaultSpec(node=slow_leaf, phase="map", kind="slowdown",
                      delay_seconds=0.1),
        )
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            leaf_timeout=0.05,
        ),
    )
    results, _ = net.map_leaves(lambda x: x, [1, 2])
    assert results == [1, 2]  # retried attempt (no slowdown) succeeded
    assert net.fault_log.by_kind["timeout"] == 1


def test_timeout_exhaustion_raises_leaf_timeout_error():
    topo = Topology.flat(2)
    plan = FaultPlan(
        faults=(
            FaultSpec(node=topo.leaves()[0], phase="map", kind="slowdown",
                      delay_seconds=0.05, permanent=True),
        )
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            leaf_timeout=0.02,
            failover=False,
        ),
    )
    with pytest.raises(LeafTimeoutError, match="failed during map"):
        net.map_leaves(lambda x: x, [1, 2])


@pytest.mark.slow
def test_process_transport_preempts_hung_worker():
    """A genuinely hung worker is preempted by the pool deadline: the
    batch returns TIMED_OUT for its slot instead of blocking forever,
    and the Network surfaces LeafTimeoutError."""
    transport = ShmTransport(n_workers=2)
    try:
        # Warm the spawn pool so worker startup doesn't eat the deadline.
        assert transport.run_batch(_slow_then_fast, ["fast", "fast"]) == ["fast", "fast"]
        out = transport.run_batch(_slow_then_fast, ["slow", "fast"], timeout=0.5)
        assert out[0] is TIMED_OUT
        assert out[1] == "fast"
    finally:
        transport.close()


@pytest.mark.slow
def test_network_turns_preempted_worker_into_timeout_error():
    topo = Topology.flat(2)
    transport = ShmTransport(n_workers=2)
    net = Network(
        topo,
        transport=transport,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            leaf_timeout=0.1,
            failover=False,
        ),
    )
    try:
        with pytest.raises(LeafTimeoutError):
            net.map_leaves(_slow_then_fast, ["slow", "fast"])
        assert net.fault_log.by_kind["timeout"] >= 1
    finally:
        transport.close()


# ----------------------------- failover -------------------------------- #


def test_failover_load_balances_across_siblings():
    """Two dead leaves must not both land on the same survivor."""
    topo = Topology.flat(4)
    dead = [topo.leaves()[0], topo.leaves()[1]]
    plan = FaultPlan(
        faults=tuple(
            FaultSpec(node=d, phase="map", permanent=True) for d in dead
        )
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=0, backoff_base=0.0)),
    )
    results, _ = net.map_leaves(
        lambda x: x, [1, 2, 3, 4], cost=lambda _p: 1.0
    )
    assert results == [1, 2, 3, 4]
    hosts = {net.host_of(d) for d in dead}
    assert len(hosts) == 2  # adopted by two different survivors


def test_failover_disabled_aborts():
    topo = Topology.flat(3)
    plan = FaultPlan(
        faults=(FaultSpec(node=topo.leaves()[0], phase="map", permanent=True),)
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_retries=1, backoff_base=0.0), failover=False
        ),
    )
    with pytest.raises(RetryExhaustedError):
        net.map_leaves(lambda x: x, [1, 2, 3])
    assert net.fault_log.by_action["abort"] == 1


def test_reduce_failover_during_merge_keeps_value():
    """Internal nodes dying during the reduce are adopted upward; the
    root value is unchanged (stress: every internal node dies)."""
    topo = Topology.from_fanouts([2, 2, 2])
    plan = FaultPlan(
        faults=tuple(
            FaultSpec(node=n, phase="reduce", permanent=True)
            for n in topo.internal_nodes()
        )
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=0, backoff_base=0.0)),
    )
    total, _ = net.reduce(list(range(8)), SumFilter())
    assert total == sum(range(8))
    assert set(topo.internal_nodes()) <= net.dead_nodes


def test_multicast_failover_after_internal_death():
    topo = Topology.from_fanouts([2, 2])
    internal = topo.internal_nodes()[0]
    plan = FaultPlan(
        faults=(FaultSpec(node=internal, phase="multicast", permanent=True),)
    )
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=0, backoff_base=0.0)),
    )
    leaves, _ = net.multicast("v")
    assert leaves == ["v"] * 4
    assert internal in net.dead_nodes
    assert net.fault_log.by_action["failover"] == 1


def test_dead_node_stays_dead_across_phases():
    """A leaf declared dead in the map is still re-hosted in later ops."""
    topo = Topology.flat(3)
    dead = topo.leaves()[2]
    plan = FaultPlan(faults=(FaultSpec(node=dead, phase="map", permanent=True),))
    net = Network(
        topo,
        fault_injector=plan,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_retries=0, backoff_base=0.0)),
    )
    net.map_leaves(lambda x: x, [1, 2, 3])
    host = net.host_of(dead)
    assert host != dead
    # Second map: the dead leaf's work goes straight to its host, and the
    # (attempt-0, non-permanent-phase) injector no longer matches there.
    results, trace = net.map_leaves(lambda x: x * 2, [1, 2, 3])
    assert results == [2, 4, 6]
    assert net.host_of(dead) == host
