"""Adapters: feed the existing stat objects into a :class:`Metrics` registry.

The pipeline already measures almost everything the paper's figures need —
``DeviceStats`` (transfers, launches, distance ops), ``NetworkTrace``
(packets/bytes/node seconds), ``IOTrace`` (read/write ledger),
``MrScanGPUStats`` (per-leaf algorithm counters) and ``MergeOutcome``
(merge-rule firings) — but each in its own shape.  These hooks translate
them into uniformly named counters/gauges/histograms so exporters and
later perf work read one registry instead of five ad-hoc objects.

Everything is duck-typed: the adapters read public attributes only, so
they impose no import-order coupling on the stat modules.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "record_device_stats",
    "record_gpu_stats",
    "record_network_trace",
    "record_io_trace",
    "record_merge_outcomes",
    "record_fault_events",
    "record_result",
]


def record_device_stats(metrics: Any, stats: Any, *, leaf_id: int | None = None) -> None:
    """Ingest a ``DeviceStats`` (or its ``as_dict()`` mapping)."""
    d: Mapping[str, int] = stats if isinstance(stats, Mapping) else stats.as_dict()
    for key in ("h2d_ops", "h2d_bytes", "d2h_ops", "d2h_bytes", "kernel_launches",
                "blocks_executed", "distance_ops", "sync_points"):
        metrics.counter(f"gpu.device.{key}").inc(int(d.get(key, 0)))
    metrics.gauge("gpu.device.peak_allocated").max(int(d.get("peak_allocated", 0)))
    if leaf_id is not None:
        metrics.histogram("gpu.device.kernel_launches_per_leaf").observe(
            int(d.get("kernel_launches", 0))
        )


def record_gpu_stats(metrics: Any, stats: Any, *, leaf_id: int | None = None) -> None:
    """Ingest one leaf's ``MrScanGPUStats`` (algorithm-level counters)."""
    metrics.counter("gpu.points").inc(stats.n_points)
    metrics.counter("gpu.core_points").inc(stats.n_core)
    metrics.counter("gpu.densebox.boxes").inc(stats.n_boxes)
    metrics.counter("gpu.densebox.eliminated").inc(stats.n_eliminated)
    metrics.counter("gpu.pass1_ops").inc(stats.pass1_ops)
    metrics.counter("gpu.pass2_ops").inc(stats.pass2_ops)
    metrics.counter("gpu.sync_round_trips").inc(stats.sync_round_trips)
    metrics.histogram("gpu.distance_ops_per_leaf").observe(stats.total_distance_ops)
    # Engine fields are getattr-guarded: unpickled stats from checkpoints
    # written before engines existed lack them.
    engine = getattr(stats, "engine", None)
    if engine:
        metrics.counter(f"gpu.engine.{engine}.leaves").inc(1)
    metrics.counter("gpu.csr_batches").inc(int(getattr(stats, "csr_batches", 0) or 0))
    if stats.device:
        record_device_stats(metrics, stats.device, leaf_id=leaf_id)


def record_network_trace(metrics: Any, name: str, trace: Any) -> None:
    """Ingest a ``NetworkTrace`` under ``mrnet.<name>.*``."""
    metrics.counter(f"mrnet.{name}.packets").inc(trace.n_packets)
    metrics.counter(f"mrnet.{name}.bytes").inc(trace.total_bytes)
    for seconds in trace.node_compute_seconds.values():
        metrics.histogram(f"mrnet.{name}.node_seconds").observe(seconds)


def record_io_trace(metrics: Any, name: str, trace: Any) -> None:
    """Ingest an ``IOTrace`` under ``io.<name>.*``."""
    for op in trace.ops:
        metrics.counter(f"io.{name}.{op.kind}_ops").inc(1)
        metrics.counter(f"io.{name}.{op.kind}_bytes").inc(op.nbytes)
        if not op.sequential:
            metrics.counter(f"io.{name}.random_ops").inc(1)


def record_merge_outcomes(metrics: Any, outcomes: Iterable[Any]) -> None:
    """Ingest the merge filter's per-application ``MergeOutcome`` list."""
    for o in outcomes:
        metrics.counter("merge.input_clusters").inc(o.n_input_clusters)
        metrics.counter("merge.cell_pairs_checked").inc(o.n_cell_pairs_checked)
        metrics.counter("merge.core_merges").inc(o.n_core_merges)
        metrics.counter("merge.noncore_core_merges").inc(o.n_noncore_core_merges)
        metrics.counter("merge.duplicate_noncore_removed").inc(o.n_duplicate_noncore_removed)


def record_fault_events(metrics: Any, events: Iterable[Any]) -> None:
    """Ingest ``repro.resilience.FaultEvent`` records under ``resilience.*``.

    One counter per fault kind (``resilience.faults.crash`` ...) and per
    recovery action (``resilience.actions.retry`` / ``failover`` /
    ``delayed`` / ``abort``).
    """
    for event in events:
        metrics.counter(f"resilience.faults.{event.kind}").inc(1)
        metrics.counter(f"resilience.actions.{event.action}").inc(1)


def record_result(metrics: Any, result: Any) -> None:
    """One-stop ingest of everything an ``MrScanResult`` carries.

    Called by the pipeline at the end of a telemetry-enabled run; safe to
    call on a no-op registry (all updates are discarded).
    """
    metrics.gauge("pipeline.n_points").set(result.n_points)
    metrics.gauge("pipeline.n_clusters").set(result.n_clusters)
    metrics.gauge("pipeline.n_noise").set(result.n_noise)
    metrics.gauge("pipeline.n_leaves").set(result.n_leaves)
    metrics.gauge("pipeline.n_partition_nodes").set(result.n_partition_nodes)
    for phase, seconds in result.timings.as_dict().items():
        metrics.gauge(f"pipeline.wall_seconds.{phase}").set(seconds)
    for phase, seconds in result.virtual_timings.as_dict().items():
        metrics.gauge(f"pipeline.virtual_seconds.{phase}").set(seconds)
    for leaf_id, stats in enumerate(result.gpu_stats):
        record_gpu_stats(metrics, stats, leaf_id=leaf_id)
    for name, trace in result.network_traces.items():
        record_network_trace(metrics, name, trace)
    record_io_trace(metrics, "partition", result.partition_io)
    record_io_trace(metrics, "output", result.output_io)
    record_merge_outcomes(metrics, result.merge_outcomes)
    for count in result.leaf_point_counts:
        metrics.histogram("pipeline.points_per_leaf").observe(count)
    record_fault_events(metrics, getattr(result, "faults", ()))
    hits = getattr(result, "checkpoint_hits", 0)
    if hits:
        metrics.counter("resilience.checkpoint_hits").inc(hits)
