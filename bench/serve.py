"""The ``serve_*`` workloads: a ``python -m repro.cli serve`` daemon process
driven over its unix socket by one closed-loop ingest connection and one
open-loop query connection, and a traced pass that replays the stream
against an in-process ``ServeState`` layer by layer.

The load generator is this one process: the ingest stream on the main
thread and the query stream on a second (2 threads, 2 connections).
"""

from __future__ import annotations

import contextlib
import os
import select
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

from repro.core import MrScanConfig
from repro.core.pipeline import cluster_merge_sweep
from repro.durability import IngestLog
from repro.gpu import mrscan_gpu
from repro.io import read_points_binary, write_points_binary
from repro.merge import MergeFilter, assign_global_ids, summarize_leaf
from repro.mrnet import LocalTransport
from repro.partition import partition_points
from repro.serve import ServeClient, ServeProtocolError, ServeRequestError, ServeState
from repro.sweep import combine_core_masks, combine_leaf_outputs, sweep_leaf

import harness
import oracle
from harness import Spans, median, percentile
from workloads import SETUPS, ServeSpec, query_ids, serve_base, serve_batches

now = time.perf_counter

#: What a client call can raise that counts as a failed operation.
CLIENT_ERRORS = (ServeRequestError, ServeProtocolError, OSError)


def _config(spec: ServeSpec) -> MrScanConfig:
    return MrScanConfig(eps=spec.eps, minpts=spec.minpts, n_leaves=spec.n_leaves)


# --------------------------------------------------------------------- #
# The daemon process
# --------------------------------------------------------------------- #


class Daemon:
    """One daemon subprocess (WAL on, ``local`` transport); ``ready_s`` is
    spawn to its "serving" line.  Leaving the context stops it."""

    def __init__(self, spec: ServeSpec, workdir) -> None:
        self.socket = harness.short_path(workdir / "s.sock")
        self.run_dir = workdir / "run"
        self._log = open(workdir / "daemon.log", "wb")
        t0 = now()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(workdir / "base.bin"),
                "--eps", str(spec.eps), "--minpts", str(spec.minpts),
                "--leaves", str(spec.n_leaves), "--transport", "local",
                "--socket", self.socket, "--run-dir", str(self.run_dir),
            ],
            stdout=subprocess.PIPE, stderr=self._log, bufsize=0,
        )
        try:
            self._await_serving(timeout=120.0)
        except BaseException:
            self.close()
            raise
        self.ready_s = now() - t0

    def _await_serving(self, timeout: float) -> None:
        deadline, seen = now() + timeout, b""
        while b"\n" not in seen:
            left = deadline - now()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise RuntimeError("daemon did not start serving in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"daemon exited during start-up (code {self.proc.poll()})"
                )
            seen += chunk
        if not seen.startswith(b"serving "):
            raise RuntimeError(f"unexpected daemon banner: {seen[:200]!r}")

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        harness.stop_process(self.proc)
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# The load generator
# --------------------------------------------------------------------- #


class QueryStream(threading.Thread):
    """Open loop: one ``labels`` query of 16 resident ids every 1/rate
    seconds on its own connection, each timed from the instant it was
    *due*, so a stall is charged to every query it delays."""

    def __init__(self, spec: ServeSpec, seed: int, socket_path: str) -> None:
        super().__init__(name="bench-queries", daemon=True)
        self.spec, self.socket_path = spec, socket_path
        self.ids = query_ids(spec, seed, 4096)
        self.halt = threading.Event()
        self.latency_s: list[float] = []  # answered queries only
        self.lag_s: list[float] = []  # how late the generator sent
        self.answers: list[tuple] = []  # (ids, labels, core, latency)
        self.n_sent = 0
        self.n_errors = 0
        self.crash: BaseException | None = None

    def run(self) -> None:
        try:
            with ServeClient(socket_path=self.socket_path, timeout=30.0) as client:
                begin = now()
                while not self.halt.is_set() and self.n_sent < len(self.ids):
                    due = begin + self.n_sent / self.spec.query_rate
                    if self.halt.wait(max(0.0, due - now())):
                        break
                    ids = self.ids[self.n_sent].tolist()
                    self.n_sent += 1
                    self.lag_s.append(now() - due)
                    try:
                        labels, core = client.labels(ids)
                    except CLIENT_ERRORS:
                        traceback.print_exc()
                        self.n_errors += 1
                        continue
                    latency = now() - due
                    self.latency_s.append(latency)
                    self.answers.append((ids, labels, core, latency))
        except BaseException as exc:  # surfaced by finish()
            self.crash = exc

    def finish(self) -> None:
        self.halt.set()
        self.join(timeout=60.0)
        if self.is_alive():
            raise RuntimeError("query stream did not stop")
        if self.crash is not None:
            raise RuntimeError("query stream crashed") from self.crash


def _ingest_stream(client, batches):
    """Closed loop: the next batch goes out when the previous ack is in."""
    latency_s, acks, acked, n_errors = [], [], [], 0
    for batch in batches:
        payload = batch.tolist()
        t0 = now()
        try:
            ack = client.ingest(payload)
        except CLIENT_ERRORS:
            traceback.print_exc()
            n_errors += 1
            continue
        latency_s.append(now() - t0)
        acks.append(ack)
        acked.append(batch)
    return latency_s, acks, acked, n_errors


def _drive(spec, seed, daemon, base, batches) -> dict:
    """Run both streams against a started daemon, then collect its memory
    peak, WAL size and final snapshot, stop it, and check everything."""
    queries = QueryStream(spec, seed, daemon.socket)
    with ServeClient(socket_path=daemon.socket, timeout=120.0) as client:
        client.ping()
        queries.start()
        try:
            ingest_s, acks, acked, ingest_errors = _ingest_stream(client, batches)
        finally:
            queries.finish()
        rss = daemon.peak_rss_mb()
        wal_bytes = harness.tree_bytes(daemon.run_dir)
        dump = client.dump()
        client.shutdown()
    daemon.proc.wait(timeout=60.0)

    failures = oracle.check_snapshot(base, acked, _config(spec), dump)
    snapshot_wrong = 1 if failures else 0
    final_core = np.asarray(dump["core"], dtype=bool)
    verdicts = [
        (oracle.query_is_correct(ids, labels, core, final_core), latency)
        for ids, labels, core, latency in queries.answers
    ]
    wrong = sum(1 for ok, _ in verdicts if not ok)
    in_limit = sum(1 for ok, lat in verdicts if ok and lat <= spec.query_limit_s)
    if ingest_errors:
        failures.append(f"{ingest_errors} ingest(s) failed or were shed")
    if queries.n_errors:
        failures.append(f"{queries.n_errors} query(ies) failed or were refused")
    if wrong:
        failures.append(f"{wrong} query answer(s) contradict the final snapshot")
    return {
        "verdict": {
            # every ingest, every query, and the final snapshot
            "attempted": len(acks) + ingest_errors + queries.n_sent + 1,
            "failed": ingest_errors + queries.n_errors + wrong + snapshot_wrong,
            "failures": failures,
        },
        "ingest_s": ingest_s,
        "acks": acks,
        "acked": acked,
        "queries": queries,
        "query_ok_share": in_limit / max(1, queries.n_sent),
        "rss": rss,
        "wal_bytes": wal_bytes,
    }


def _set_up(spec: ServeSpec, seed: int, seconds: float, stack: contextlib.ExitStack):
    """Everything before the first timed operation: generate the base and
    the batches, write the base file, start the daemon, wait for it."""
    t0 = now()
    workdir = stack.enter_context(harness.scratch_dir(f"{spec.name}-"))
    base = serve_base(spec, seed)
    batches = serve_batches(spec, seed, base, seconds)
    write_points_binary(workdir / "base.bin", base)
    daemon = stack.enter_context(Daemon(spec, workdir))
    with ServeClient(socket_path=daemon.socket, timeout=120.0) as client:
        client.ping()
    return daemon, base, batches, workdir, now() - t0


# --------------------------------------------------------------------- #
# Untraced pass: the end-to-end metrics
# --------------------------------------------------------------------- #


def run_measured(spec: ServeSpec, seed: int, seconds: float) -> dict:
    setups, readies = [], []
    with contextlib.ExitStack() as stack:
        for _ in range(SETUPS):
            stack.close()  # the previous set-up's daemon and files
            daemon, base, batches, _, setup_s = _set_up(spec, seed, seconds, stack)
            setups.append(setup_s)
            readies.append(daemon.ready_s)
        run = _drive(spec, seed, daemon, base, batches)
    return {
        **run["verdict"],
        "values": {
            "wall_s": median(run["ingest_s"]) if run["ingest_s"] else float("nan"),
            "setup_s": median(setups),
            "peak_rss_mb": run["rss"],
        },
        "samples": {
            "wall_s": run["ingest_s"], "setup_s": setups, "ready_s": readies,
            "query_s": run["queries"].latency_s,
        },
    }


# --------------------------------------------------------------------- #
# Traced pass: the per-layer metrics
# --------------------------------------------------------------------- #


def _replay(spec, seed, workdir, batches, spans: Spans) -> None:
    """The same stream against an in-process ``ServeState``, then each
    layer an ingest blocks on, called on the state's public attributes
    as they stand after the last batch."""
    config = _config(spec)
    eps, minpts = spec.eps, spec.minpts
    with spans.span("replay"):
        with spans.span("io.read"):
            base = read_points_binary(workdir / "base.bin")
        with spans.span("serve.bootstrap"):
            state = ServeState(base, config, transport=LocalTransport())
        for batch in batches:
            with spans.span("serve.state_ingest"):
                outcome = state.ingest(batch)
    dirty = frozenset(outcome.dirty_leaves)
    n = len(state.points)
    with spans.span("probe"):
        with spans.span("partition.materialize"):
            partition_points(state.points, state.plan)
        for name, leaves in (("serve.partial_run", dirty), ("serve.merge_sweep", frozenset())):
            with spans.span(name):
                cluster_merge_sweep(
                    partitions=state.partitions, plan=state.plan, n_points=n,
                    config=config, transport=LocalTransport(), dirty=leaves,
                    cached_outputs={
                        pid: out for pid, out in state.outputs.items()
                        if pid not in leaves
                    },
                )
        for pid in sorted(dirty):
            own, shadow = state.partitions[pid]
            view = own.concat(shadow)
            with spans.span("gpu.leaf", leaf=pid, n_points=len(view)):
                out = mrscan_gpu(view, eps, minpts)
            with spans.span("merge.summarize", leaf=pid):
                summarize_leaf(
                    pid, view, out.labels, out.core_mask, eps,
                    set(state.plan.partitions[pid].cells),
                )
        outputs = [state.outputs[pid] for pid in range(spec.n_leaves)]
        with spans.span("merge.reduce"):
            assignment = assign_global_ids(
                MergeFilter(eps).combine([out.summary for out in outputs])
            )
        swept = []
        for pid, (out, (own, shadow)) in enumerate(zip(outputs, state.partitions)):
            view = own.concat(shadow)
            with spans.span("sweep.leaf", leaf=pid):
                swept.append(
                    sweep_leaf(
                        pid, view, out.labels, out.n_owned,
                        assignment.for_leaf(pid), core_mask=out.core_mask,
                    )
                )
        with spans.span("sweep.combine"):
            combine_leaf_outputs(swept, n)
            combine_core_masks(swept, n)
        for row in query_ids(spec, seed, 200):
            with spans.span("serve.lookup"):
                state.labels_for(row)
        with IngestLog(workdir / "wal-probe") as log:  # fsync on, as the daemon's
            for seq in range(5):
                with spans.span("durability.wal_commit"):
                    digest = log.save_batch(seq, batches[0], np.arange(len(batches[0])))
                    log.commit(
                        seq, digest=digest, n_points=len(batches[0]),
                        dirty_leaves=dirty, n_touched_cells=0,
                    )


def run_traced(spec: ServeSpec, seed: int, spans_path) -> dict:
    spans = Spans(spec.name)
    with contextlib.ExitStack() as stack:
        daemon, base, batches, workdir, _ = _set_up(spec, seed, 0.0, stack)
        run = _drive(spec, seed, daemon, base, batches)
        _replay(spec, seed, workdir, batches, spans)
    spans.write(spans_path)
    print(f"# spans: {len(spans.rows)} written to {spans_path}", file=sys.stderr)

    acks, queries = run["acks"], run["queries"]
    ingest_p50 = median(run["ingest_s"]) if run["ingest_s"] else float("nan")
    server_s = median([a["seconds"] for a in acks]) if acks else float("nan")
    leaf_s = spans.durations("gpu.leaf")
    explained = (
        spans.total("partition.materialize")
        + spans.total("serve.partial_run")
        + median(spans.durations("durability.wal_commit"))
    )

    def mean(key: str) -> float:
        return float(np.mean([ack[key] for ack in acks])) if acks else 0.0

    values = {
        "core.wall_s": ingest_p50,
        "serve.ready_s": daemon.ready_s,
        "serve.query_p50_s": median(queries.latency_s),
        "serve.query_p99_s": percentile(queries.latency_s, 99),
        "serve.query_max_s": max(queries.latency_s),
        "serve.query_ok_share": run["query_ok_share"],
        "serve.loadgen_lag_p99_s": percentile(queries.lag_s, 99),
        "serve.ingest_max_s": max(run["ingest_s"]),
        "serve.server_ingest_s": server_s,
        "serve.protocol_overhead_s": ingest_p50 - server_s,
        "serve.dirty_ratio_mean": mean("dirty_ratio"),
        "serve.reclustered_leaves_per_batch": mean("n_reclustered"),
        "serve.touched_cells_per_batch": mean("n_touched_cells"),
        "serve.wal_bytes": run["wal_bytes"],
        "io.read_s": spans.total("io.read"),
        "serve.bootstrap_s": spans.total("serve.bootstrap"),
        "serve.partial_run_s": spans.total("serve.partial_run"),
        "serve.merge_sweep_s": spans.total("serve.merge_sweep"),
        "serve.lookup_s": median(spans.durations("serve.lookup")),
        "partition.materialize_s": spans.total("partition.materialize"),
        "gpu.leaf_s_sum": sum(leaf_s),
        "gpu.leaf_s_max": max(leaf_s),
        "gpu.leaf_skew": max(leaf_s) / (sum(leaf_s) / len(leaf_s)),
        "merge.summarize_s": spans.total("merge.summarize"),
        "merge.reduce_s": spans.total("merge.reduce"),
        "sweep.leaf_s": spans.total("sweep.leaf"),
        "sweep.combine_s": spans.total("sweep.combine"),
        "durability.wal_commit_s": median(spans.durations("durability.wal_commit")),
        # For an ingest the "wall" the replay has to explain is the
        # server-side ingest of the last batch's shape.
        "core.glue_s": server_s - explained,
        "trace.coverage_frac": explained / server_s,
        "trace.overhead_frac": (
            median(spans.durations("serve.state_ingest")) - server_s
        ) / server_s,
    }
    return {
        **run["verdict"],
        "values": values,
        "samples": {
            "core.wall_s": run["ingest_s"],
            "serve.query_p50_s": queries.latency_s,
        },
    }
