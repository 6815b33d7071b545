"""Failure-injection tests for the MRNet substrate.

MRNet tools must cope with process failures; we simulate crashes via the
Network's fault injector and verify (a) clean error propagation with no
partial state leaking, (b) recovery when retries model MRNet restarting
the process, and (c) the structured FaultPlan/FaultLog surfaces.
"""

from __future__ import annotations

import pytest

from repro.errors import RetryExhaustedError, TransportError
from repro.mrnet import Network, SumFilter, Topology
from repro.resilience import FaultPlan, FaultSpec, ResiliencePolicy, RetryPolicy


def crash_once(node: int, phase: str) -> FaultPlan:
    """Fail a specific node's first attempt in a given phase."""
    return FaultPlan(faults=(FaultSpec(node=node, phase=phase),))


def always_crash(node: int) -> FaultPlan:
    """Fail every attempt of a node, in every phase."""
    return FaultPlan(faults=(FaultSpec(node=node, permanent=True),))


def test_leaf_crash_fails_map():
    topo = Topology.flat(4)
    net = Network(topo, fault_injector=always_crash(topo.leaves()[2]))
    with pytest.raises(TransportError, match="failed during map"):
        net.map_leaves(lambda x: x, [1, 2, 3, 4])


def test_internal_crash_fails_reduce():
    topo = Topology.from_fanouts([2, 2])
    internal = topo.internal_nodes()[0]
    net = Network(topo, fault_injector=always_crash(internal))
    with pytest.raises(TransportError, match="failed during reduce"):
        net.reduce([1, 2, 3, 4], SumFilter())


def test_root_crash_fails_multicast():
    net = Network(Topology.flat(3), fault_injector=always_crash(0))
    with pytest.raises(TransportError, match="failed during multicast"):
        net.multicast("x")


def test_retry_recovers_single_crash():
    topo = Topology.flat(4)
    injector = crash_once(topo.leaves()[0], "map")
    net = Network(topo, fault_injector=injector, resilience=ResiliencePolicy.fail_fast(1))
    results, _ = net.map_leaves(lambda x: x * 2, [1, 2, 3, 4])
    assert results == [2, 4, 6, 8]
    assert len(net.fault_log) == 1
    event = net.fault_log[0]
    assert (event.node, event.phase, event.action) == (topo.leaves()[0], "map", "retry")


def test_retry_budget_exhausted():
    topo = Topology.flat(2)
    net = Network(
        topo,
        fault_injector=always_crash(topo.leaves()[0]),
        resilience=ResiliencePolicy.fail_fast(2),
    )
    with pytest.raises(RetryExhaustedError, match="3 attempt"):
        net.map_leaves(lambda x: x, [1, 2])


def test_negative_retries_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        ResiliencePolicy.fail_fast(-1)


def test_crashed_attempts_never_run_node_work():
    """A crashed attempt fails before its work executes.

    With a pre-work crash, the node's work runs exactly once per leaf —
    on the first non-crashed attempt — never zero times and never twice.
    (Crashed leaves complete *later* than clean ones, so only the set of
    executed payloads is deterministic, not the interleaving.)
    """
    topo = Topology.flat(3)
    injector = crash_once(topo.leaves()[1], "map")
    net = Network(topo, fault_injector=injector, resilience=ResiliencePolicy.fail_fast(2))
    calls: list[int] = []

    def work(x):
        calls.append(x)
        return x

    results, _ = net.map_leaves(work, [10, 20, 30])
    assert results == [10, 20, 30]
    assert sorted(calls) == [10, 20, 30]  # one execution per leaf, no re-runs
    assert len(net.fault_log) == 1


def test_fault_log_counts_every_crashed_attempt():
    """Each crashed attempt lands in fault_log with its attempt index."""
    topo = Topology.flat(2)
    target = topo.leaves()[0]
    crash_twice = FaultPlan(
        faults=(FaultSpec(node=target, attempt=0), FaultSpec(node=target, attempt=1))
    )
    net = Network(
        topo, fault_injector=crash_twice, resilience=ResiliencePolicy.fail_fast(2)
    )
    results, _ = net.map_leaves(lambda x: x, [1, 2])
    assert results == [1, 2]
    assert net.fault_log.total == 2
    assert [e.attempt for e in net.fault_log] == [0, 1]
    assert all(e.node == target for e in net.fault_log)


def test_no_injector_no_overhead():
    net = Network(Topology.flat(3))
    total, _ = net.reduce([1, 2, 3], SumFilter())
    assert total == 6
    assert len(net.fault_log) == 0


def test_reduce_retry_recovers_and_result_correct():
    topo = Topology.from_fanouts([2, 3])
    internal = topo.internal_nodes()[1]
    net = Network(
        topo,
        fault_injector=crash_once(internal, "reduce"),
        resilience=ResiliencePolicy.fail_fast(1),
    )
    total, _ = net.reduce([1] * 6, SumFilter())
    assert total == 6
    assert any(
        e.node == internal and e.phase == "reduce" for e in net.fault_log
    )


def test_pipeline_surfaces_leaf_failure(blobs_with_noise):
    """A crashed clustering leaf must abort the whole run cleanly."""
    from repro.core import MrScanConfig
    from repro.core.pipeline import run_pipeline
    from repro.errors import MrScanError

    # Inject through a wrapper network is not exposed by run_pipeline, so
    # simulate at the transport layer: a transport that raises.
    class BrokenTransport:
        def run_batch(self, fn, tasks, *, timeout=None, cancel=None):
            raise TransportError("leaf process died")

        def close(self):
            pass

    with pytest.raises(MrScanError):
        run_pipeline(
            blobs_with_noise,
            MrScanConfig(eps=0.25, minpts=8, n_leaves=2),
            transport=BrokenTransport(),
        )


# --------------------------------------------------------------------- #
# Structured FaultPlan injection at the Network layer
# --------------------------------------------------------------------- #


def _no_sleep_policy(retries: int = 2, **kwargs) -> ResiliencePolicy:
    return ResiliencePolicy(
        retry=RetryPolicy(max_retries=retries, backoff_base=0.0), **kwargs
    )


def test_fault_plan_crash_is_retried_and_logged():
    topo = Topology.flat(3)
    leaf = topo.leaves()[1]
    plan = FaultPlan(faults=(FaultSpec(node=leaf, phase="map", attempt=0),))
    net = Network(topo, fault_injector=plan, resilience=_no_sleep_policy())
    results, _ = net.map_leaves(lambda x: x + 1, [1, 2, 3])
    assert results == [2, 3, 4]
    assert net.fault_log.by_kind == {"crash": 1}
    assert net.fault_log.by_action == {"retry": 1}


def test_fault_plan_slowdown_is_absorbed():
    topo = Topology.flat(2)
    leaf = topo.leaves()[0]
    plan = FaultPlan(
        faults=(FaultSpec(node=leaf, kind="slowdown", delay_seconds=0.001),)
    )
    net = Network(topo, fault_injector=plan, resilience=_no_sleep_policy())
    results, _ = net.map_leaves(lambda x: x, ["a", "b"])
    assert results == ["a", "b"]
    assert net.fault_log.by_action == {"delayed": 1}


def test_crash_after_work_runs_work_then_retries():
    """point='after' models dying post-work: work runs, result is lost."""
    topo = Topology.flat(2)
    leaf = topo.leaves()[0]
    plan = FaultPlan(
        faults=(FaultSpec(node=leaf, phase="map", point="after", attempt=0),)
    )
    net = Network(topo, fault_injector=plan, resilience=_no_sleep_policy())
    calls: list[int] = []

    def work(x):
        calls.append(x)
        return x

    results, _ = net.map_leaves(work, [1, 2])
    assert results == [1, 2]
    assert sorted(calls) == [1, 1, 2]  # crashed attempt DID run the work
    assert net.fault_log.total == 1


def test_permanent_leaf_crash_fails_over_to_sibling():
    topo = Topology.flat(4)
    dead = topo.leaves()[2]
    plan = FaultPlan(faults=(FaultSpec(node=dead, phase="map", permanent=True),))
    net = Network(
        topo, fault_injector=plan, resilience=_no_sleep_policy(retries=1)
    )
    results, trace = net.map_leaves(lambda x: x * 10, [1, 2, 3, 4])
    assert results == [10, 20, 30, 40]  # payload routing never changed
    assert dead in net.dead_nodes
    assert net.host_of(dead) != dead
    assert net.fault_log.by_action["failover"] == 1
    # The adopting host was charged the dead leaf's compute seconds.
    assert net.host_of(dead) in trace.node_compute_seconds


def test_failover_respects_capacity():
    topo = Topology.flat(3)
    dead = topo.leaves()[0]
    plan = FaultPlan(faults=(FaultSpec(node=dead, phase="map", permanent=True),))
    net = Network(
        topo, fault_injector=plan, resilience=_no_sleep_policy(retries=0)
    )
    # Every task costs 10; capacity 15 leaves no room on any sibling.
    with pytest.raises(RetryExhaustedError):
        net.map_leaves(
            lambda x: x, [1, 2, 3], cost=lambda _p: 10.0, capacity=15.0
        )


def test_permanent_internal_crash_adopted_by_ancestor():
    topo = Topology.from_fanouts([2, 2])
    internal = topo.internal_nodes()[0]
    plan = FaultPlan(
        faults=(FaultSpec(node=internal, phase="reduce", permanent=True),)
    )
    net = Network(
        topo, fault_injector=plan, resilience=_no_sleep_policy(retries=1)
    )
    total, _ = net.reduce([1, 2, 3, 4], SumFilter())
    assert total == 10  # re-hosted filter combined the same children
    assert internal in net.dead_nodes
    assert net.host_of(internal) == topo.root


def test_multicast_internal_crash_retries_then_recovers():
    topo = Topology.from_fanouts([2, 2])
    internal = topo.internal_nodes()[1]
    plan = FaultPlan(
        faults=(FaultSpec(node=internal, phase="multicast", attempt=0),)
    )
    net = Network(topo, fault_injector=plan, resilience=_no_sleep_policy())
    leaves, _ = net.multicast("payload")
    assert leaves == ["payload"] * 4
    assert net.fault_log.by_action == {"retry": 1}


def test_oom_without_recover_hook_retries_like_crash():
    topo = Topology.flat(2)
    leaf = topo.leaves()[1]
    plan = FaultPlan(faults=(FaultSpec(node=leaf, phase="map", kind="oom"),))
    net = Network(topo, fault_injector=plan, resilience=_no_sleep_policy())
    results, _ = net.map_leaves(lambda x: x, [5, 6])
    assert results == [5, 6]
    assert net.fault_log.by_kind == {"oom": 1}
