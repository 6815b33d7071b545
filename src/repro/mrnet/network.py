"""The MRNet network: leaf maps, upstream reduction, downstream multicast.

A :class:`Network` binds a :class:`Topology` to a transport and offers the
three collective operations Mr. Scan is built from:

``map_leaves``
    Run a function on every leaf (the GPU clustering, the partitioner's
    local histogram/write steps).

``reduce``
    Carry one payload per leaf up the tree, applying a filter at every
    internal node and the root (histogram reduction; progressive cluster
    merge, "the clusters are progressively merged by each level of
    intermediate processes until they reach the root", §3).

``multicast``
    Replicate a root payload down to all leaves (partition boundaries;
    global cluster IDs in the sweep, "with each level of the tree
    reversing the merge operation", §3.4).

Every operation returns ``(result, NetworkTrace)``; traces capture packet
counts, byte volumes, and per-node filter compute seconds for the perf
model.  Pass a :class:`repro.telemetry.Tracer` to additionally record
per-node compute *spans* (one per leaf task / per internal filter
application, on the network's logical pid track) and fault instants.

Fault tolerance
---------------
Node work runs under the attached :class:`~repro.resilience.ResiliencePolicy`:

* a :class:`~repro.resilience.FaultPlan` is looked up per ``(node,
  phase, attempt)`` and its fault — crash, straggler slowdown, or device
  OOM — is applied around the node's work;
* a failed attempt is retried with exponential backoff up to the policy's
  retry budget, each attempt bounded by ``leaf_timeout`` (preemptive on
  the pool and TCP transports, cooperative post-work under
  :class:`LocalTransport`);
* a node that exhausts its budget is declared **dead** and, when failover
  is enabled, its work is *re-hosted*: a leaf task moves to the
  least-loaded surviving sibling (subject to an optional capacity check),
  an internal node's filter work is adopted by its nearest live ancestor.
  A task moves at most once per other node in its batch (at least the
  tree's depth), an inline multicast node at most the tree's depth.
  Payload routing never changes — only which process executes — so the
  collective's result is invariant under any recoverable fault schedule;
* every fault and recovery action lands in :attr:`Network.fault_log` (a
  capped :class:`~repro.resilience.FaultLog`) and, when tracing, as
  ``fault``/``failover`` instants on the network's track.

Crashed attempts never deliver work: a ``point="before"`` crash fails
before the work runs, a ``point="after"`` crash runs the work (so leaf
checkpoints are written) but fails before the result is delivered — the
retried attempt is what returns it, typically straight from the
checkpoint.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..errors import (
    ConfigError,
    DeviceMemoryError,
    LeafTimeoutError,
    RetryExhaustedError,
    TopologyError,
    TransportError,
)
from ..resilience.faults import NET_FAULT_KINDS, FaultEvent, FaultLog, FaultPlan
from ..resilience.policy import ResiliencePolicy
from ..telemetry.tracer import NOOP_TRACER, PID_TREE
from .filters import Filter
from .packets import NetworkTrace, payload_nbytes
from .topology import Topology
from .transport import TIMED_OUT, LocalTransport, Transport

__all__ = ["Network"]


def _failure_category(exc: BaseException) -> str:
    if isinstance(exc, DeviceMemoryError):
        return "oom"
    if isinstance(exc, LeafTimeoutError):
        return "timeout"
    if isinstance(exc, TransportError):
        return "crash"
    return "error"


def _guarded_apply(
    args: tuple[Callable[[Any], Any], Any, dict | None, float | None]
) -> tuple:
    """Run one node's work under an injected fault spec and a deadline.

    Returns a picklable marker (worker processes ship it back):

    * ``("ok", result, t0, t1, applied)`` — ``applied`` is the injected
      non-fatal fault kind (``"slowdown"``) or ``None``;
    * ``("err", exc_type_name, message, category, t0, t1)`` — category is
      ``crash`` / ``oom`` / ``timeout`` / ``error``.
    """
    fn, payload, spec, timeout = args
    t0 = time.perf_counter()
    applied = None
    try:
        if spec is not None:
            kind = spec["kind"]
            if kind == "slowdown":
                applied = "slowdown"
                time.sleep(spec["delay_seconds"])
            elif kind == "kill":
                # Hard death: SIGKILL the hosting worker so the transport's
                # self-healing path (respawn + re-dispatch + poison-task
                # quarantine) is what recovers, not this in-band marker.
                # Safe only where the driver survives: multiprocessing pool
                # workers and TCP worker agents (which set MRSCAN_TCP_AGENT).
                # In the driver process (local transport) a real SIGKILL
                # would end the run itself, so the fault downgrades to a
                # no-op there — the work below runs normally.
                import multiprocessing as _mp
                import os as _os

                if (
                    _mp.parent_process() is not None
                    or _os.environ.get("MRSCAN_TCP_AGENT")
                ):
                    import signal as _signal

                    _os.kill(_os.getpid(), _signal.SIGKILL)
            elif kind in NET_FAULT_KINDS:
                # Network faults are injected at the TCP framing layer by
                # the transport (repro.mrnet.tcp), which owns the recovery
                # — in-band they are no-ops, so the same seeded plan is
                # safe under every transport.
                pass
            elif kind == "oom":
                raise DeviceMemoryError(
                    f"injected device OOM at node {spec['node']} "
                    f"(attempt {spec['attempt']})"
                )
            elif spec["point"] == "before":
                raise TransportError(
                    f"injected crash at node {spec['node']} before work "
                    f"(attempt {spec['attempt']})"
                )
        out = fn(payload)
        if spec is not None and spec["kind"] == "crash" and spec["point"] == "after":
            # The work ran (side effects such as checkpoints are durable)
            # but the process dies before delivering the result.
            raise TransportError(
                f"injected crash at node {spec['node']} after work "
                f"(attempt {spec['attempt']})"
            )
        t1 = time.perf_counter()
        if timeout is not None and (t1 - t0) > timeout:
            raise LeafTimeoutError(
                f"node work took {t1 - t0:.3f}s, exceeding the {timeout:.3f}s deadline"
            )
        return ("ok", out, t0, t1, applied)
    except BaseException as exc:
        return (
            "err",
            type(exc).__name__,
            str(exc),
            _failure_category(exc),
            t0,
            time.perf_counter(),
        )


class Network:
    """An instantiated process tree ready to run collective phases.

    Parameters
    ----------
    fault_injector:
        Optional :class:`~repro.resilience.FaultPlan` of faults to
        inject, looked up per ``(node, phase, attempt)``.
    resilience:
        A :class:`~repro.resilience.ResiliencePolicy` (retry/backoff
        budget, per-attempt deadline, failover).  Without one the network
        fails fast (:meth:`~repro.resilience.ResiliencePolicy.fail_fast`):
        no retries, no failover.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; per-node compute spans
        land on pid ``trace_pid`` with the node id as tid.
    cancel:
        Optional :class:`~repro.resilience.CancelToken`.  The execution
        engine polls it at every retry-round boundary (and forwards it to
        the transport's dispatch loop): a cancelled or deadline-expired
        token unwinds the collective immediately with
        :class:`~repro.errors.OperationCancelledError` instead of
        retrying — cancellation is the caller's decision, not a fault.
    """

    def __init__(
        self,
        topology: Topology,
        transport: Transport | None = None,
        *,
        fault_injector: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        tracer=None,
        trace_pid: int = PID_TREE,
        cancel=None,
    ) -> None:
        if fault_injector is not None and not isinstance(fault_injector, FaultPlan):
            raise ConfigError(
                f"fault_injector must be a FaultPlan or None, got "
                f"{type(fault_injector)!r}"
            )
        self.topology = topology
        self.tracer = tracer or NOOP_TRACER
        self.trace_pid = trace_pid
        # The transport is the caller's: a persistent executor shared
        # across phases and trees, closed by its owner.
        self.transport = transport or LocalTransport(tracer=self.tracer)
        self.fault_plan = fault_injector
        self.resilience = resilience or ResiliencePolicy.fail_fast()
        self.fault_log = FaultLog()
        #: Nodes declared permanently dead (retry budget exhausted).
        self.dead_nodes: set[int] = set()
        #: Logical node -> node now hosting its work (failover re-homing).
        self._hosts: dict[int, int] = {}
        #: Extra work cost adopted per node by leaf failover.
        self._adopted: dict[int, float] = {}
        self._sleep = time.sleep  # overridable in tests
        self._leaves = topology.leaves()
        self._cancel = cancel

    # ------------------------------------------------------------------ #
    # Fault bookkeeping
    # ------------------------------------------------------------------ #

    def host_of(self, node: int) -> int:
        """The node currently executing ``node``'s work (itself if live)."""
        while node in self._hosts:
            node = self._hosts[node]
        return node

    def _record_fault(
        self, node: int, phase: str, name: str, attempt: int, kind: str, action: str,
        detail: str = "",
    ) -> None:
        self.fault_log.append(
            FaultEvent(
                node=node, phase=phase, name=name, attempt=attempt,
                kind=kind, action=action, detail=detail,
            )
        )
        self.tracer.instant(
            "fault" if action != "failover" else "failover",
            cat="mrnet",
            pid=self.trace_pid,
            tid=node,
            phase=name,
            kind=kind,
            action=action,
            attempt=attempt,
        )

    def _mark_dead(self, node: int, host: int) -> None:
        self.dead_nodes.add(node)
        self._hosts[node] = host

    def _live_ancestor(self, node: int) -> int | None:
        """Nearest live proper ancestor of ``node`` (None if all dead)."""
        parent = self.topology.parent[node]
        while parent != -1:
            if parent not in self.dead_nodes:
                return parent
            parent = self.topology.parent[parent]
        return None

    def _pick_leaf_failover(
        self,
        dead: int,
        base_load: dict[int, float],
        task_cost: float | None,
        capacity: float | None,
    ) -> int | None:
        """Least-loaded surviving sibling leaf with capacity to spare."""
        best: int | None = None
        best_load = float("inf")
        for leaf in self._leaves:
            if leaf == dead or leaf in self.dead_nodes:
                continue
            load = base_load.get(leaf, 0.0) + self._adopted.get(leaf, 0.0)
            if (
                capacity is not None
                and task_cost is not None
                and load + task_cost > capacity
            ):
                continue
            if load < best_load:
                best, best_load = leaf, load
        return best

    # ------------------------------------------------------------------ #
    # The resilient execution engine
    # ------------------------------------------------------------------ #

    def _run_tasks(
        self,
        nodes: Sequence[int],
        fn: Callable[[Any], Any],
        payloads: list[Any],
        *,
        phase: str,
        name: str,
        recover: Callable[[Any, str], Any] | None = None,
        cost: Callable[[Any], float] | None = None,
        capacity: float | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> tuple[list[tuple[Any, float, float]], list[int]]:
        """Execute ``payloads[i]`` for logical node ``nodes[i]`` under the
        resilience policy.  Returns ``(timing triples, executing hosts)``
        in input order.

        ``recover(payload, message) -> new payload | None`` is consulted
        on device-OOM failures — the pipeline uses it to split the leaf's
        partition before re-execution.  ``cost``/``capacity`` guard leaf
        failover placement (a sibling must fit the adopted partition in
        device memory).  ``on_result(i, out)`` fires the moment task ``i``
        delivers its result — *during* the round, not after the phase —
        so a durability journal can record completions a crash later in
        the same round would otherwise lose.
        """
        policy = self.resilience
        n = len(payloads)
        pending = list(range(n))
        host = {i: self.host_of(nodes[i]) for i in pending}
        attempt = dict.fromkeys(pending, 0)
        failovers = dict.fromkeys(pending, 0)
        results: dict[int, tuple[Any, float, float]] = {}
        base_load: dict[int, float] = {}
        if cost is not None and phase == "map":
            for i in pending:
                base_load[host[i]] = float(cost(payloads[i]))
        max_failovers = max(len(nodes) - 1, self.topology.depth())
        round_index = 0
        while pending:
            if self._cancel is not None:
                self._cancel.check()
            batch = []
            for i in pending:
                spec = None
                if self.fault_plan is not None:
                    spec = self.fault_plan.lookup(host[i], phase, name, attempt[i])
                batch.append(
                    (fn, payloads[i], spec.as_dict() if spec else None, policy.leaf_timeout)
                )
            markers = self.transport.run_batch(
                _guarded_apply, batch, timeout=policy.leaf_timeout, cancel=self._cancel
            )
            still_pending: list[int] = []
            exhausted: list[tuple[int, str, str, str]] = []
            for i, marker in zip(pending, markers):
                if marker is TIMED_OUT:
                    now = time.perf_counter()
                    marker = (
                        "err",
                        "LeafTimeoutError",
                        f"worker missed the {policy.leaf_timeout}s deadline "
                        "(preempted by the transport)",
                        "timeout",
                        now,
                        now,
                    )
                if marker[0] == "ok":
                    _, out, t0, t1, applied = marker
                    if applied is not None:  # non-fatal injected fault
                        self._record_fault(
                            host[i], phase, name, attempt[i], applied, "delayed"
                        )
                    results[i] = (out, t0, t1)
                    if on_result is not None:
                        on_result(i, out)
                    continue
                _, etype, message, category, _t0, _t1 = marker
                kind = {"oom": "oom", "timeout": "timeout"}.get(category, "crash")
                if category == "oom" and recover is not None:
                    replacement = recover(payloads[i], message)
                    if replacement is not None:
                        payloads[i] = replacement
                        self._record_fault(
                            host[i], phase, name, attempt[i], kind, "recovered",
                            detail=f"{etype}: {message}",
                        )
                        attempt[i] += 1
                        still_pending.append(i)
                        continue
                self._record_fault(
                    host[i], phase, name, attempt[i], kind, "retry",
                    detail=f"{etype}: {message}",
                )
                attempt[i] += 1
                if attempt[i] > policy.retry.max_retries:
                    exhausted.append((i, kind, etype, message))
                    continue
                still_pending.append(i)
            # Declare every host that exhausted its budget this round dead
            # *before* choosing failover targets, so a dying sibling is
            # never picked to adopt another dying sibling's task.
            for i, _kind, _etype, _message in exhausted:
                self.dead_nodes.add(host[i])
            for i, kind, etype, message in exhausted:
                target: int | None = None
                if policy.failover and failovers[i] < max_failovers:
                    if phase == "map":
                        task_cost = float(cost(payloads[i])) if cost is not None else None
                        target = self._pick_leaf_failover(
                            host[i], base_load, task_cost, capacity
                        )
                        if target is not None and task_cost is not None:
                            self._adopted[target] = (
                                self._adopted.get(target, 0.0) + task_cost
                            )
                    else:
                        target = self._live_ancestor(host[i])
                if target is not None:
                    self._mark_dead(host[i], target)
                    self._record_fault(
                        host[i], phase, name, attempt[i] - 1, kind, "failover",
                        detail=f"re-hosted on node {target}",
                    )
                    host[i] = target
                    attempt[i] = 0
                    failovers[i] += 1
                    still_pending.append(i)
                    continue
                self._record_fault(
                    host[i], phase, name, attempt[i] - 1, kind, "abort",
                    detail=f"{etype}: {message}",
                )
                # Deadline misses surface as LeafTimeoutError (still a
                # TransportError) so callers can tell a straggler from
                # a crash loop.
                exc_cls = (
                    LeafTimeoutError if kind == "timeout" else RetryExhaustedError
                )
                raise exc_cls(
                    f"node {host[i]} failed during {phase} "
                    f"({attempt[i]} attempt(s), {policy.retry.max_retries} "
                    f"retr(ies)): {etype}: {message}"
                )
            pending = still_pending
            if pending:
                delay = policy.retry.backoff_seconds(round_index)
                round_index += 1
                if delay > 0:
                    self._sleep(delay)
        return [results[i] for i in range(n)], [host[i] for i in range(n)]

    def _survive(self, node: int, *, phase: str, name: str) -> None:
        """Retry/backoff/failover loop for nodes whose phase work executes
        inline (multicast routing) — only the fault poll matters."""
        if self.fault_plan is None:
            return
        policy = self.resilience
        host = self.host_of(node)
        attempt = 0
        failovers = 0
        round_index = 0
        max_failovers = self.topology.depth()
        while True:
            if self._cancel is not None:
                self._cancel.check()
            spec = self.fault_plan.lookup(host, phase, name, attempt)
            if spec is None:
                return
            if spec.kind == "slowdown":
                self._record_fault(
                    host, phase, name, attempt, "slowdown", "delayed",
                    detail=f"{spec.delay_seconds:.3f}s",
                )
                self._sleep(spec.delay_seconds)
                return
            self._record_fault(host, phase, name, attempt, spec.kind, "retry")
            attempt += 1
            if attempt > policy.retry.max_retries:
                target = (
                    self._live_ancestor(host)
                    if policy.failover and failovers < max_failovers
                    else None
                )
                if target is not None:
                    self._mark_dead(host, target)
                    self._record_fault(
                        host, phase, name, attempt - 1, spec.kind, "failover",
                        detail=f"re-hosted on node {target}",
                    )
                    host = target
                    attempt = 0
                    failovers += 1
                    continue
                self._record_fault(host, phase, name, attempt - 1, spec.kind, "abort")
                raise RetryExhaustedError(
                    f"node {host} failed during {phase} "
                    f"({attempt} attempt(s), {policy.retry.max_retries} retr(ies))"
                )
            delay = policy.retry.backoff_seconds(round_index)
            round_index += 1
            if delay > 0:
                self._sleep(delay)

    # ------------------------------------------------------------------ #
    # Leaf computation
    # ------------------------------------------------------------------ #

    def map_leaves(
        self,
        fn: Callable[[Any], Any],
        inputs: Sequence[Any],
        *,
        name: str = "map",
        recover: Callable[[Any, str], Any] | None = None,
        cost: Callable[[Any], float] | None = None,
        capacity: float | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> tuple[list[Any], NetworkTrace]:
        """Apply ``fn`` to one input per leaf; results in leaf order.

        ``recover``/``cost``/``capacity``/``on_result`` feed the
        resilience engine: OOM recovery rewrites, capacity-aware failover
        placement, and per-leaf completion callbacks (see
        :meth:`_run_tasks`).
        """
        if len(inputs) != len(self._leaves):
            raise TopologyError(
                f"{len(inputs)} inputs for {len(self._leaves)} leaves"
            )
        trace = NetworkTrace()
        triples, hosts = self._run_tasks(
            self._leaves,
            fn,
            list(inputs),
            phase="map",
            name=name,
            recover=recover,
            cost=cost,
            capacity=capacity,
            on_result=on_result,
        )
        results = []
        for leaf, host, payload, (out, t0, t1) in zip(
            self._leaves, hosts, inputs, triples
        ):
            trace.add_compute(host, t1 - t0)
            self.tracer.add_span(
                f"{name}.leaf", t0, t1, cat="mrnet", pid=self.trace_pid, tid=host,
                # Wire cost of the leaf's input — refs staged through the
                # shm data plane report their ~100-byte handle size here,
                # not the arrays they point at.
                **({"bytes_in": payload_nbytes(payload)} if self.tracer.enabled else {}),
                **({"adopted_from": leaf} if host != leaf else {}),
            )
            results.append(out)
        return results, trace

    # ------------------------------------------------------------------ #
    # Upstream reduction
    # ------------------------------------------------------------------ #

    def reduce(
        self, leaf_payloads: Sequence[Any], filt: Filter, *, name: str = "reduce"
    ) -> tuple[Any, NetworkTrace]:
        """Reduce leaf payloads to a single root value through ``filt``.

        The filter runs at every node with children, level by level from
        the bottom: ``filt.combine`` at internal nodes, ``filt.root`` at
        the root, whose output is the result.  Nodes within a level
        are independent and go through the transport as one batch.  A
        failing internal node is retried per the resilience policy and
        finally re-hosted on its nearest live ancestor — the child
        payloads it combines never change, so the root value is invariant.
        """
        if len(leaf_payloads) != len(self._leaves):
            raise TopologyError(
                f"{len(leaf_payloads)} payloads for {len(self._leaves)} leaves"
            )
        topo = self.topology
        trace = NetworkTrace()
        value: dict[int, Any] = dict(zip(self._leaves, leaf_payloads))

        for level_nodes in reversed(topo.levels()):
            batch_nodes = [n for n in level_nodes if topo.children[n]]
            if not batch_nodes:
                continue
            tasks = []
            bytes_in: dict[int, int] = {}
            for node in batch_nodes:
                child_payloads = [value[c] for c in topo.children[node]]
                for child, payload in zip(topo.children[node], child_payloads):
                    trace.record(child, node, "reduce", payload)
                if self.tracer.enabled:
                    bytes_in[node] = sum(payload_nbytes(p) for p in child_payloads)
                tasks.append(child_payloads)
            # The root sits alone on the top level.
            apply = filt.root if batch_nodes == [topo.root] else filt.combine
            triples, hosts = self._run_tasks(
                batch_nodes, apply, tasks, phase="reduce", name=name
            )
            for node, host, task, (out, t0, t1) in zip(
                batch_nodes, hosts, tasks, triples
            ):
                trace.add_compute(host, t1 - t0)
                self.tracer.add_span(
                    f"{name}.filter",
                    t0,
                    t1,
                    cat="mrnet",
                    pid=self.trace_pid,
                    tid=host,
                    n_children=len(task),
                    bytes_in=bytes_in.get(node, 0),
                )
                value[node] = out
        return value[topo.root], trace

    # ------------------------------------------------------------------ #
    # Downstream multicast
    # ------------------------------------------------------------------ #

    def multicast(
        self, root_payload: Any, *, name: str = "multicast"
    ) -> tuple[list[Any], NetworkTrace]:
        """Replicate a payload from the root down to every leaf; returns
        the payloads arriving at the leaves, in leaf order."""
        topo = self.topology
        trace = NetworkTrace()
        value: dict[int, Any] = {topo.root: root_payload}
        for level_nodes in topo.levels():
            for node in level_nodes:
                kids = topo.children[node]
                if not kids:
                    continue
                self._survive(node, phase="multicast", name=name)
                payload = value[node]
                for child in kids:
                    trace.record(node, child, "multicast", payload)
                    value[child] = payload
                self.tracer.instant(
                    f"{name}.send",
                    cat="mrnet",
                    pid=self.trace_pid,
                    tid=self.host_of(node),
                    n_children=len(kids),
                )
        return [value[leaf] for leaf in self._leaves], trace
