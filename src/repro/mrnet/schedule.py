"""Virtual parallel time: critical-path analysis of recorded phases.

The in-process transports execute every tree node on one host, so a
phase's *wall* time is the **sum** of all node computations.  On the real
machine the paper ran, nodes execute concurrently and a phase takes its
**critical path**: the slowest leaf for a map, the heaviest
leaf-to-root compute/transfer chain for a reduce.  (A multicast only
forwards; the sweep's virtual time is its gather's seconds.)

These functions reconstruct that parallel time from a phase's
:class:`~repro.mrnet.packets.NetworkTrace` — per-node compute seconds are
recorded during execution, packet byte counts convert to link seconds via
``link_bandwidth`` (pass 0.0 to ignore transfer time).  The pipeline
exposes the result as ``MrScanResult.virtual_timings``, which is what the
laptop-scale benchmark series report so that real weak/strong scaling
curves reflect the algorithm instead of the host's core count.
"""

from __future__ import annotations

from ..errors import TopologyError
from .packets import NetworkTrace
from .topology import Topology

__all__ = ["map_virtual_time", "reduce_critical_path"]


def map_virtual_time(trace: NetworkTrace) -> float:
    """Parallel time of a leaf map: the slowest leaf dictates."""
    return max(trace.node_compute_seconds.values(), default=0.0)


def _link_seconds(nbytes: int, link_bandwidth: float) -> float:
    return nbytes / link_bandwidth if link_bandwidth > 0 else 0.0


def reduce_critical_path(
    topology: Topology, trace: NetworkTrace, *, link_bandwidth: float = 0.0
) -> float:
    """Parallel time of an upstream reduction.

    ``finish(node) = max over children (finish(child) + link(child->node))
    + compute(node)`` — leaves finish at 0 (their compute belongs to the
    preceding map phase), internal nodes and the root add their recorded
    filter time.
    """
    inbound: dict[tuple[int, int], int] = {}
    for p in trace.packets:
        key = (p.src, p.dst)
        inbound[key] = inbound.get(key, 0) + p.nbytes

    finish: dict[int, float] = {}
    for level in reversed(topology.levels()):
        for node in level:
            kids = topology.children[node]
            if not kids:
                finish[node] = 0.0
                continue
            arrive = max(
                finish[child] + _link_seconds(inbound.get((child, node), 0), link_bandwidth)
                for child in kids
            )
            finish[node] = arrive + trace.node_compute_seconds.get(node, 0.0)
    if topology.root not in finish:
        raise TopologyError("reduce critical path: root unreachable")
    return finish[topology.root]
