"""MRNet substrate: a tree-based multicast/reduction process network.

Mr. Scan's process organisation is MRNet (Roth, Arnold & Miller, SC'03): a
multi-level tree of processes where leaves produce data, internal nodes run
*filters* that combine the data flowing up (reduction), and the root's
decisions flow back down (multicast).  Mr. Scan uses one MRNet tree for the
distributed partitioner and a second tree — with up to three levels and
256-way fanouts — for cluster/merge/sweep (§3, §5.1).

This package reimplements that model:

* :class:`Topology` — tree shapes (flat, paper-style 256-fanout, custom);
* :class:`Network` — ``map_leaves`` (leaf computation), ``reduce``
  (upstream filter application level by level), ``multicast`` (downstream
  distribution), all recording per-edge packet/byte traffic;
* transports — ``LocalTransport`` executes node work sequentially and
  deterministically in-process; ``TcpTransport`` ships it to
  socket-framed worker agents, the multi-host boundary; the third,
  :class:`repro.runtime.ShmTransport`, fans it out to a warm spawn pool
  over shared memory (one Python process per tree node is the honest
  analogue of MRNet's process-per-node, but a bounded pool keeps this
  usable on small hosts).
"""

from .topology import Topology
from .packets import NetworkTrace, Packet
from .filters import (
    Filter,
    FunctionFilter,
    ListConcatFilter,
    SumFilter,
)
from .network import Network
from .tcp import TcpTransport, run_worker_agent
from .transport import LocalTransport, Transport

__all__ = [
    "Topology",
    "Packet",
    "NetworkTrace",
    "Filter",
    "FunctionFilter",
    "ListConcatFilter",
    "SumFilter",
    "Network",
    "Transport",
    "LocalTransport",
    "TcpTransport",
    "run_worker_agent",
]
