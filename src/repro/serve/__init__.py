"""repro.serve — the long-lived clustering service.

Every prior layer of this reproduction runs one *batch*: read a file,
partition, cluster, merge, sweep, exit.  ``repro.serve`` turns the
pipeline into a **daemon**: ``mrscan serve`` holds the clustered world
resident — points, partition plan, per-leaf outputs, the warm
:class:`~repro.runtime.ShmTransport` agents and their arena — behind an
asyncio socket front end speaking newline-delimited JSON, and accepts
concurrent point-batch ingests and label/stats queries from many
clients.

The ingest path is **incremental** (§3's locality, exploited): a batch
touches a set of Eps-grid cells; only partitions owning a touched cell
or owning one of its 8-neighbors (the shadow-halo spillover) can see
different points, so only those leaves re-cluster
(:mod:`repro.partition.dirty` → :func:`repro.core.pipeline.cluster_merge_sweep`).
Clean leaves' cached outputs re-enter the merge tree untouched, and the
full-tree re-merge + re-sweep keeps global labels equivalent (per
:mod:`repro.validate.equivalence`) to a from-scratch run on the union.

Durability rides PR 5's journal: every acked ingest is an atomic batch
blob plus a write-ahead ``ingest_done`` record
(:class:`repro.durability.IngestLog`), so ``mrscan serve --run-dir X
--resume`` replays a killed daemon back to its last acked ingest.

The daemon protects itself under load (protocol v2): **admission
control** sheds ingests past a bounded queue with a retryable
``overloaded`` response, per-op **deadlines** ride a
:class:`~repro.resilience.CancelToken` threaded down to the transports
(expiry rolls the transaction back, labels and journal untouched), a
**circuit breaker** turns repeated infrastructure failures into fast
``degraded`` rejections while queries keep serving the last committed
snapshot, and SIGTERM/``drain`` exits gracefully — see
:mod:`.overload` and the ``health`` op.

Layers: :mod:`.state` (resident state + the incremental ingest
transaction), :mod:`.protocol` (wire format), :mod:`.overload`
(admission control + circuit breaker), :mod:`.server` (asyncio daemon),
:mod:`.client` (blocking client).
"""

from .client import ServeClient, ServeOverloadedError, ServeRequestError
from .overload import AdmissionController, CircuitBreaker
from .protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ServeProtocolError,
    decode_line,
    encode_message,
)
from .server import ServeServer
from .state import IngestOutcome, ServeState

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ERROR_CODES",
    "IngestOutcome",
    "PROTOCOL_VERSION",
    "RETRYABLE_CODES",
    "ServeClient",
    "ServeOverloadedError",
    "ServeProtocolError",
    "ServeRequestError",
    "ServeServer",
    "ServeState",
    "decode_line",
    "encode_message",
]
