"""End-to-end telemetry: a full mrscan() run, fault injection, no-op default,
and the transport-release guarantee when a phase raises."""

from __future__ import annotations

import json

import pytest

from repro.core import MrScanConfig
from repro.core.pipeline import mrscan, run_pipeline
from repro.errors import MrScanError, TransportError
from repro.mrnet import LocalTransport, Network, SumFilter, Topology
from repro.serve import ServeState
from repro.telemetry import Telemetry
from repro.telemetry.tracer import PID_DRIVER, PID_GPU, PID_TREE


@pytest.fixture
def traced_result(blobs_with_noise):
    return mrscan(blobs_with_noise, 0.25, 8, n_leaves=4, telemetry=True)


def test_all_four_phases_have_spans(traced_result, blobs_with_noise):
    tracer = traced_result.telemetry.tracer
    phases = {s.name for s in tracer.spans() if s.cat == "phase"}
    assert phases == {"partition", "cluster", "merge", "sweep"}
    # A daemon ingest runs the batch run's cluster, merge and sweep under
    # the same names; its partition step is an append, not a phase.
    telemetry = Telemetry()
    state = ServeState(
        blobs_with_noise, MrScanConfig(eps=0.25, minpts=8, n_leaves=4),
        transport=LocalTransport(), telemetry=telemetry,
    )
    telemetry.tracer.drain()
    state.ingest(blobs_with_noise.coords[:20] + 0.01)
    ingest = {s.name for s in telemetry.tracer.spans() if s.cat == "phase"}
    assert ingest == phases - {"partition"}


def test_per_leaf_and_per_node_spans(traced_result):
    tracer = traced_result.telemetry.tracer
    names = {s.name for s in tracer.spans()}
    # One GPU clustering span per leaf, on the GPU track.
    leaf_spans = [s for s in tracer.spans() if s.name == "leaf.cluster"]
    assert len(leaf_spans) == 4
    assert {s.pid for s in leaf_spans} == {PID_GPU}
    assert {s.tid for s in leaf_spans} == {0, 1, 2, 3}
    assert all(s.args["n_points"] > 0 for s in leaf_spans)
    # Merge filter spans on the tree track, partition spans from phase 1.
    merge_spans = [s for s in tracer.spans() if s.name == "merge.filter"]
    assert merge_spans and all(s.pid == PID_TREE for s in merge_spans)
    assert all(s.args["n_children"] >= 1 for s in merge_spans)
    assert {"partition.form", "partition.route"} <= names
    # The sweep is one gather in the driver, not a span per leaf, and its
    # seconds are the virtual sweep time.
    (gather,) = [s for s in tracer.spans() if s.name == "sweep.gather"]
    assert "sweep.leaf" not in names
    assert gather.pid == PID_DRIVER and gather.args["n_leaves"] == 4
    assert traced_result.virtual_timings.sweep == pytest.approx(gather.dur)


def test_gpu_kernel_and_transfer_instants(traced_result):
    instants = traced_result.telemetry.tracer.instants()
    kernels = [i for i in instants if i.name == "kernel"]
    assert kernels, "no kernel-launch events recorded"
    assert all(i.args["blocks"] > 0 for i in kernels)
    assert any(i.name == "h2d" for i in instants)
    assert any(i.name == "d2h" for i in instants)


def test_metrics_populated_from_full_run(traced_result):
    m = traced_result.telemetry.metrics
    assert m.get("gpu.device.kernel_launches").value > 0
    assert m.get("gpu.device.h2d_bytes").value > 0
    assert m.get("mrnet.merge_reduce.bytes").value > 0
    assert m.get("io.partition.write_bytes").value > 0
    assert m.get("pipeline.n_points").value == traced_result.n_points
    assert m.get("pipeline.n_clusters").value == traced_result.n_clusters
    assert m.get("pipeline.points_per_leaf").count == 4


def test_chrome_trace_from_full_run_is_valid(tmp_path, traced_result):
    path = tmp_path / "trace.json"
    n_events = traced_result.telemetry.write_chrome_trace(path)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n_events
    phase_events = {
        e["name"] for e in doc["traceEvents"] if e.get("cat") == "phase"
    }
    assert phase_events == {"partition", "cluster", "merge", "sweep"}
    assert any(e["name"] == "kernel" for e in doc["traceEvents"])
    assert any(e["name"] == "merge.filter" for e in doc["traceEvents"])


def test_default_run_uses_shared_noop_bundle(blobs_with_noise):
    result = mrscan(blobs_with_noise, 0.25, 8, n_leaves=2)
    assert result.telemetry is Telemetry.disabled()
    assert result.telemetry.tracer.records == []
    assert result.telemetry.metrics.as_dict() == {}


def test_explicit_telemetry_object_is_recorded_into(blobs_with_noise):
    telemetry = Telemetry()
    result = mrscan(blobs_with_noise, 0.25, 8, n_leaves=2, telemetry=telemetry)
    assert result.telemetry is telemetry
    assert telemetry.tracer.spans()


def test_telemetry_under_fault_injection_records_fault_instants():
    """Crashed attempts leave 'fault' instants; recovery still traces."""

    class CrashOnce:
        def __init__(self, node: int) -> None:
            self.node = node
            self.fired = False

        def __call__(self, node: int, phase: str) -> bool:
            if node == self.node and not self.fired:
                self.fired = True
                return True
            return False

    topo = Topology.flat(4)
    telemetry = Telemetry()
    net = Network(
        topo,
        fault_injector=CrashOnce(topo.leaves()[1]),
        retries=1,
        tracer=telemetry.tracer,
    )
    results, _ = net.map_leaves(lambda x: x + 1, [1, 2, 3, 4])
    assert results == [2, 3, 4, 5]
    faults = [i for i in telemetry.tracer.instants() if i.name == "fault"]
    assert len(faults) == 1
    assert faults[0].tid == topo.leaves()[1]
    assert faults[0].args["phase"] == "map"
    # The recovered phase still produced its per-leaf spans.
    assert len([s for s in telemetry.tracer.spans() if s.name == "map.leaf"]) == 4


def test_exhausted_retries_trace_every_attempt():
    telemetry = Telemetry()
    net = Network(
        Topology.flat(2),
        fault_injector=lambda node, phase: node == 0,  # root runs the filter
        retries=2,
        tracer=telemetry.tracer,
    )
    with pytest.raises(TransportError):
        net.reduce([1, 2], SumFilter())
    faults = [i for i in telemetry.tracer.instants() if i.name == "fault"]
    # Initial attempt + 2 retries each leave a "retry" instant, plus the
    # final "abort" instant when the budget is exhausted.
    assert len([f for f in faults if f.args["action"] == "retry"]) == 3
    assert len([f for f in faults if f.args["action"] == "abort"]) == 1


class _ClosableTransport:
    """In-process transport that counts close() calls and can be armed to
    fail the Nth batch."""

    def __init__(self, fail_on_batch: int | None = None) -> None:
        self.batches = 0
        self.closes = 0
        self.fail_on_batch = fail_on_batch

    def run_batch(self, fn, tasks, *, timeout=None, cancel=None):
        self.batches += 1
        if self.fail_on_batch is not None and self.batches >= self.fail_on_batch:
            raise TransportError("simulated node crash")
        return [fn(task) for task in tasks]

    def close(self):
        self.closes += 1


def test_pipeline_leaves_caller_transport_open_when_cluster_phase_raises(
    blobs_with_noise,
):
    """Transport ownership: a caller-provided transport is caller-owned.

    The partition phase uses batches 1 (histogram map) and 2 (histogram
    reduce); batch 3 is the cluster map, so failing there aborts the
    cluster phase after partitioning succeeded.  Neither the networks nor
    the pipeline may close a transport they did not build — a persistent
    pool must survive across phases and across pipeline runs.
    """
    transport = _ClosableTransport(fail_on_batch=3)
    with pytest.raises(MrScanError):
        run_pipeline(
            blobs_with_noise,
            MrScanConfig(eps=0.25, minpts=8, n_leaves=2),
            transport=transport,
        )
    assert transport.batches == 3
    assert transport.closes == 0  # caller-owned: still open for reuse


def test_pipeline_closes_owned_transport_when_cluster_phase_raises(
    blobs_with_noise, monkeypatch
):
    """The transport-leak fix: a transport the pipeline built itself must
    be closed even when a phase raises mid-run."""
    import repro.core.pipeline as pipeline_mod

    transport = _ClosableTransport(fail_on_batch=3)
    monkeypatch.setattr(
        pipeline_mod, "make_transport", lambda *a, **kw: transport
    )
    with pytest.raises(MrScanError):
        run_pipeline(
            blobs_with_noise, MrScanConfig(eps=0.25, minpts=8, n_leaves=2)
        )
    assert transport.closes == 1  # pipeline finally


def test_pipeline_releases_transport_on_success(blobs_with_noise, monkeypatch):
    import repro.core.pipeline as pipeline_mod

    # Caller-provided: untouched and reusable across runs.
    caller_owned = _ClosableTransport()
    run_pipeline(
        blobs_with_noise,
        MrScanConfig(eps=0.25, minpts=8, n_leaves=2),
        transport=caller_owned,
    )
    run_pipeline(
        blobs_with_noise,
        MrScanConfig(eps=0.25, minpts=8, n_leaves=2),
        transport=caller_owned,
    )
    assert caller_owned.closes == 0

    # Pipeline-built (from the config's transport name): closed once.
    owned = _ClosableTransport()
    monkeypatch.setattr(
        pipeline_mod, "make_transport", lambda *a, **kw: owned
    )
    run_pipeline(blobs_with_noise, MrScanConfig(eps=0.25, minpts=8, n_leaves=2))
    assert owned.closes == 1
