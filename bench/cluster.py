"""The ``cluster_*`` workloads: ``repro.mrscan()`` from in-memory points to
global labels, measured untraced, and a traced pass that replays the same
input layer by layer from here.

Only public names of ``repro`` are imported; no span is recorded inside
the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import time
import traceback

import numpy as np

import repro
from repro.core import MrScanConfig
from repro.durability import PhaseCheckpointStore, RunJournal
from repro.gpu import find_dense_boxes, mrscan_gpu
from repro.gpu.densebox import build_densebox_tree
from repro.gpu.treeindex import FlatTree
from repro.merge import MergeFilter, assign_global_ids, summarize_leaf
from repro.mrnet import Network, Topology
from repro.partition import (
    DistributedPartitioner,
    GridHistogram,
    form_partitions,
    partition_points,
)
from repro.points import PointSet
from repro.runtime import make_transport
from repro.sweep import combine_core_masks, combine_leaf_outputs, sweep_leaf

import harness
import oracle
from harness import Spans, median
from workloads import SETUPS, ClusterSpec, cluster_points

now = time.perf_counter


def _open_transport(spec: ClusterSpec, stack: contextlib.ExitStack):
    """What the workload hands ``mrscan(transport=...)``.

    ``local`` is passed by name, as a user's one-off call does (the
    pipeline builds and closes it per call); a pool transport is built
    once and stays resident across the repeats, closed by ``stack``.
    """
    if spec.transport == "local":
        return "local"
    transport = make_transport(spec.transport, n_workers=spec.n_workers)
    stack.callback(transport.close)
    return transport


def _mrscan(points: PointSet, spec: ClusterSpec, transport, **config):
    return repro.mrscan(
        points, eps=spec.eps, minpts=spec.minpts, n_leaves=spec.n_leaves,
        transport=transport, **config,
    )


def _digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.labels).tobytes())
    h.update(np.ascontiguousarray(result.core_mask).tobytes())
    return h.hexdigest()


def _timed_repeats(
    points, spec, transport, *, seconds: float, min_ops: int, after_each=None
):
    """Timed ``mrscan`` calls until ``seconds`` have passed (never fewer
    than ``min_ops``), with ``after_each()`` run untimed between them.
    Returns walls, cpu seconds, digests, the last result and the number
    of calls that raised."""
    walls, cpus, digests = [], [], []
    last, raised = None, 0
    begin = now()
    while len(walls) + raised < min_ops or now() - begin < seconds:
        c0, t0 = time.process_time(), now()
        try:
            last = _mrscan(points, spec, transport)
        except Exception:  # a failed repeat is counted, not fatal
            traceback.print_exc()
            raised += 1
            if raised >= min_ops:
                break
            continue
        walls.append(now() - t0)
        cpus.append(time.process_time() - c0)
        digests.append(_digest(last))
        if after_each is not None:
            after_each()
    return walls, cpus, digests, last, raised


def _check(points, spec: ClusterSpec, seed: int, result) -> list[str]:
    if spec.oracle == "reference":
        return oracle.check_reference(
            points, spec.eps, spec.minpts, result.labels, result.core_mask
        )
    return oracle.check_sampled(
        points, spec.eps, spec.minpts, result.labels, result.core_mask, seed=seed
    )


def _verdict(points, spec, seed, digests, result, raised) -> dict:
    """Operations attempted/failed.  ``digests`` are those of every call
    made on these points, warm-ups included; a call fails when it raised,
    when its labels differ byte-wise from the others', or - all of them -
    when the labels they share (``result``'s) fail the oracle."""
    failures = [f"{raised} call(s) raised"] if raised else []
    shared = _digest(result)
    differing = sum(1 for d in digests if d != shared)
    if differing:
        failures.append(f"{differing} call(s) not byte-identical to the rest")
    failed = raised + differing
    wrong = _check(points, spec, seed, result)
    if wrong:
        failures.extend(wrong)
        failed = raised + len(digests)
    return {
        "attempted": raised + len(digests),
        "failed": failed,
        "failures": failures,
    }


# --------------------------------------------------------------------- #
# Untraced pass: the end-to-end metrics
# --------------------------------------------------------------------- #


def run_measured(spec: ClusterSpec, seed: int, seconds: float) -> dict:
    """Three rounds of set-up (generate, open the transport, warm-up call)
    followed by a third of the timed repeats each.  Interleaving spreads
    both kinds of sample over the whole run: this host's speed wanders on
    a scale of seconds, and one contiguous block would catch one mood."""
    setups, walls, digests, raised = [], [], [], 0
    min_ops = -(-spec.min_ops // SETUPS)
    with contextlib.ExitStack() as stack:
        for _ in range(SETUPS):
            stack.close()  # the previous round's pool, outside the timing
            t0 = now()
            points = cluster_points(spec, seed)
            transport = _open_transport(spec, stack)
            warm = _mrscan(points, spec, transport)  # untimed warm-up
            setups.append(now() - t0)
            w, _, d, last, r = _timed_repeats(
                points, spec, transport, seconds=seconds / SETUPS, min_ops=min_ops
            )
            walls, digests, raised = walls + w, digests + d + [_digest(warm)], raised + r
        rss = harness.peak_rss_mb(os.getpid())
    verdict = _verdict(points, spec, seed, digests, last or warm, raised)
    return {
        **verdict,
        "values": {
            "wall_s": median(walls) if walls else float("nan"),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
        },
        "samples": {"wall_s": walls, "setup_s": setups},
    }


# --------------------------------------------------------------------- #
# Traced pass: the per-layer metrics
# --------------------------------------------------------------------- #


def replay(points: PointSet, spec: ClusterSpec, spans: Spans) -> dict:
    """One clustering, layer by layer, through the same public functions
    and in the same order as the pipeline calls them; every call sits in
    a span whose parent is the ``replay`` span."""
    eps, minpts = spec.eps, spec.minpts
    n = len(points)
    internal = PointSet(
        ids=np.arange(n, dtype=np.int64), coords=points.coords, weights=points.weights
    )
    config = MrScanConfig(eps=eps, minpts=minpts, n_leaves=spec.n_leaves)
    with spans.span("replay") as root:
        with spans.span("partition.phase"):
            phase1 = DistributedPartitioner(
                eps, minpts, config.partition_nodes
            ).run(internal, spec.n_leaves)
        plan = phase1.plan
        leaves, summaries = [], []
        for pid, (own, shadow) in enumerate(phase1.partitions):
            with spans.span("core.concat", leaf=pid):
                view = own.concat(shadow)
            with spans.span("gpu.leaf", leaf=pid, n_points=len(view)):
                out = mrscan_gpu(view, eps, minpts)
            with spans.span("merge.summarize", leaf=pid):
                summaries.append(
                    summarize_leaf(
                        pid, view, out.labels, out.core_mask, eps,
                        set(plan.partitions[pid].cells),
                    )
                )
            leaves.append(out)
        with spans.span("merge.reduce"):
            # An 8-leaf paper-style tree is flat: one filter application.
            merge_filter = MergeFilter(eps)
            assignment = assign_global_ids(merge_filter.combine(summaries))
        swept = []
        for pid, (out, (own, shadow)) in enumerate(zip(leaves, phase1.partitions)):
            with spans.span("core.concat", leaf=pid):
                view = own.concat(shadow)
            with spans.span("sweep.leaf", leaf=pid):
                swept.append(
                    sweep_leaf(
                        pid, view, out.labels, len(own), assignment.for_leaf(pid),
                        core_mask=out.core_mask,
                    )
                )
        with spans.span("sweep.combine"):
            labels = combine_leaf_outputs(swept, n)
            core_mask = combine_core_masks(swept, n)
    return {
        "root": root, "internal": internal, "phase1": phase1, "leaves": leaves,
        "summaries": summaries, "assignment": assignment,
        "labels": labels, "core_mask": core_mask,
    }


def _probe_layers(internal, phase1, spec, spans: Spans) -> None:
    """Sub-steps the replay does not call on their own, timed standalone
    (children of a ``probe`` span, so they stay out of the coverage sum)."""
    eps, minpts = spec.eps, spec.minpts
    with spans.span("probe"):
        with spans.span("partition.histogram"):
            histogram = GridHistogram.from_points(internal, eps)
        with spans.span("partition.form"):
            plan = form_partitions(histogram, spec.n_leaves, minpts)
        with spans.span("partition.materialize"):
            partition_points(internal, plan)
        for pid, (own, shadow) in enumerate(phase1.partitions):
            view = own.concat(shadow)
            with spans.span("gpu.index_build", leaf=pid):
                FlatTree(view.coords, eps)
            with spans.span("gpu.densebox_tree", leaf=pid):
                tree = build_densebox_tree(view, eps, minpts)
            with spans.span("gpu.densebox_scan", leaf=pid):
                find_dense_boxes(view, eps, minpts, tree=tree)


def _layer_values(replays: list[dict], spans: Spans, wall_s: float) -> dict:
    """Times are medians over the replays (each alternated with an
    untraced call, so host drift hits both alike); counts come from the
    last replay and are the same in all."""
    rep = replays[-1]
    phase1, leaves = rep["phase1"], rep["leaves"]
    stats = [leaf.stats for leaf in leaves]
    n_own = sum(len(own) for own, _ in phase1.partitions)
    n_shadow = sum(len(shadow) for _, shadow in phase1.partitions)
    n_seen = sum(s.n_points for s in stats)
    ops = sum(s.total_distance_ops for s in stats)

    roots = [r["root"] for r in replays]
    totals = [spans.child_totals(root["id"]) for root in roots]
    leaf_s = [
        [row["end"] - row["start"] for row in spans.rows
         if row["parent"] == root["id"] and row["name"] == "gpu.leaf"]
        for root in roots
    ]

    def layer(name: str) -> float:
        return median(t.get(name, 0.0) for t in totals)

    layer_sum = median(sum(t.values()) for t in totals)
    replay_s = median(root["end"] - root["start"] for root in roots)
    return {
        "partition.phase_s": layer("partition.phase"),
        "partition.histogram_s": spans.total("partition.histogram"),
        "partition.form_s": spans.total("partition.form"),
        "partition.materialize_s": spans.total("partition.materialize"),
        "partition.n_cells": sum(p.n_cells for p in phase1.plan.partitions),
        "partition.imbalance": phase1.plan.size_imbalance(),
        "partition.shadow_frac": n_shadow / n_own,
        "gpu.index_build_s": spans.total("gpu.index_build"),
        "gpu.densebox_tree_s": spans.total("gpu.densebox_tree"),
        "gpu.densebox_scan_s": spans.total("gpu.densebox_scan"),
        "gpu.leaf_s_sum": layer("gpu.leaf"),
        "gpu.leaf_s_max": median(max(ls) for ls in leaf_s),
        "gpu.leaf_skew": median(max(ls) * len(ls) / sum(ls) for ls in leaf_s),
        "gpu.distance_ops": ops,
        "gpu.densebox_eliminated_frac": sum(s.n_eliminated for s in stats) / n_seen,
        "gpu.kernel_launches": sum(s.kernel_launches for s in stats),
        "gpu.csr_batches": sum(s.csr_batches for s in stats),
        "gpu.ops_per_s": ops / layer("gpu.leaf"),
        "merge.summarize_s": layer("merge.summarize"),
        "merge.reduce_s": layer("merge.reduce"),
        "merge.summary_bytes": sum(s.payload_bytes() for s in rep["summaries"]),
        "merge.n_leaf_clusters": sum(s.n_clusters for s in rep["summaries"]),
        "merge.n_global_clusters": rep["assignment"].n_clusters,
        "sweep.leaf_s": layer("sweep.leaf"),
        "sweep.combine_s": layer("sweep.combine"),
        "core.concat_s": layer("core.concat"),
        "core.glue_s": wall_s - layer_sum,
        "trace.coverage_frac": layer_sum / wall_s,
        "trace.overhead_frac": (replay_s - wall_s) / wall_s,
    }


def _overhead_frac(points, spec, transport, wall_s: float, **config) -> float:
    """One extra call with a feature switched on, against ``wall_s``."""
    t0 = now()
    _mrscan(points, spec, transport, **config)
    return (now() - t0 - wall_s) / wall_s


def _durability_values(points, spec, transport, rep, wall_s, spans: Spans) -> dict:
    with harness.scratch_dir("durability-") as tmp:
        overhead = _overhead_frac(
            points, spec, transport, wall_s, run_dir=str(tmp / "run")
        )
        with RunJournal(tmp / "journal.jsonl") as journal:  # fsync on
            for i in range(20):
                with spans.span("durability.journal_append"):
                    journal.append("bench", {"i": i})
        store = PhaseCheckpointStore(tmp / "checkpoints")
        with spans.span("durability.checkpoint_save"):
            blob = store.save("sweep", (rep["labels"], rep["core_mask"]))
        return {
            "durability.run_overhead_frac": overhead,
            "durability.journal_append_s": median(
                spans.durations("durability.journal_append")
            ),
            "durability.checkpoint_save_s": spans.total("durability.checkpoint_save"),
            "durability.checkpoint_bytes": blob.stat().st_size,
        }


def _dispatch_round_s(name: str, payloads, spans: Spans, rounds: int = 5) -> float:
    """Median ``run_batch`` round trip of a trivial task (``len``) per
    staged partition half, on a warm transport; 0 when it cannot start."""
    try:
        with contextlib.closing(make_transport(name, n_workers=2)) as transport:
            if getattr(transport, "supports_staging", False):
                payloads = [transport.stage_pointset(p) for p in payloads]
            transport.run_batch(len, payloads)  # spawns the pool / agents
            for _ in range(rounds):
                with spans.span(f"mrnet.dispatch_round.{name}"):
                    transport.run_batch(len, payloads)
    except (repro.MrScanError, OSError):
        traceback.print_exc()
        return 0.0
    return median(spans.durations(f"mrnet.dispatch_round.{name}"))


def _parallel_values(points, spec, rep, wall_s, spans: Spans) -> dict:
    """What only shows when leaves run in other processes."""
    halves = [half for pair in rep["phase1"].partitions for half in pair]
    values = {
        f"mrnet.dispatch_round_s.{name}": _dispatch_round_s(name, halves, spans)
        for name in ("local", "shm", "tcp")
    }
    with contextlib.closing(make_transport("shm", n_workers=spec.n_workers)) as shm:
        with spans.span("runtime.stage"):
            refs = [shm.stage_pointset(half) for half in halves]
        with spans.span("runtime.first_batch"):
            shm.run_batch(len, refs)
        with spans.span("runtime.warm_batch"):
            shm.run_batch(len, refs)
        network = Network(Topology.paper_style(len(rep["summaries"])), shm)
        with spans.span("mrnet.reduce"):
            network.reduce(rep["summaries"], MergeFilter(spec.eps))
    local_walls, *_ = _timed_repeats(
        points, spec, "local", seconds=0.0, min_ops=spec.min_ops
    )
    speedup = median(local_walls) / wall_s
    values.update({
        "runtime.stage_s": spans.total("runtime.stage"),
        "runtime.staged_bytes": sum(r.array_nbytes for r in refs),
        "runtime.pool_spawn_s": spans.total("runtime.first_batch")
        - spans.total("runtime.warm_batch"),
        "mrnet.reduce_s": spans.total("mrnet.reduce"),
        "mrnet.speedup_vs_local": speedup,
        "mrnet.parallel_efficiency": speedup / (spec.n_workers or 1),
    })
    return values


def run_traced(spec: ClusterSpec, seed: int, spans_path) -> dict:
    spans = Spans(spec.name)
    points = cluster_points(spec, seed)
    with contextlib.ExitStack() as stack:
        transport = _open_transport(spec, stack)
        warm = _mrscan(points, spec, transport)
        replays: list[dict] = []
        # untraced call, replay, untraced call, replay, ...
        walls, cpus, digests, last, raised = _timed_repeats(
            points, spec, transport, seconds=0.0, min_ops=spec.min_ops,
            after_each=lambda: replays.append(replay(points, spec, spans)),
        )
        if not walls:
            raise RuntimeError("every untraced repeat raised; nothing to explain")
        wall_s = median(walls)
        rep = replays[-1]
        _probe_layers(rep["internal"], rep["phase1"], spec, spans)
        values = _layer_values(replays, spans, wall_s)
        reduce_trace = last.network_traces["merge_reduce"]
        values.update({
            "core.wall_s": wall_s,
            "core.cpu_s": cpus[walls.index(sorted(walls)[len(walls) // 2])],
            "mrnet.bytes_up": reduce_trace.total_bytes,
            "mrnet.packets": reduce_trace.n_packets,
        })
        if spec.guard == "telemetry":
            values["telemetry.overhead_frac"] = _overhead_frac(
                points, spec, transport, wall_s, telemetry=True
            )
        if spec.guard == "run_dir":
            values.update(
                _durability_values(points, spec, transport, rep, wall_s, spans)
            )
    if spec.transport != "local":
        values.update(_parallel_values(points, spec, rep, wall_s, spans))
    spans.write(spans_path)
    verdict = _verdict(points, spec, seed, digests + [_digest(warm)], last, raised)
    if not (
        np.array_equal(rep["labels"], last.labels)
        and np.array_equal(rep["core_mask"], last.core_mask)
    ):
        verdict["failures"].append("layer replay labels differ from mrscan()'s")
    print(f"# spans: {len(spans.rows)} written to {spans_path}", file=sys.stderr)
    return {**verdict, "values": values, "samples": {"core.wall_s": walls}}
