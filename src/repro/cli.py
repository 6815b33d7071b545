"""Command-line interface: ``mrscan`` / ``python -m repro``.

Subcommands
-----------
``generate``  write a synthetic dataset (twitter / sdss / blobs) to a file
``cluster``   run the full Mr. Scan pipeline over a point file
``quality``   compare a clustering against single-CPU reference DBSCAN
``serve``     long-lived clustering daemon with incremental batch ingest
``worker``    TCP worker agent: dial a coordinator and execute leaf tasks
``simulate``  reproduce a paper figure through the performance model
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .points import PointSet

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .runtime.executor import TRANSPORT_NAMES

    parser = argparse.ArgumentParser(
        prog="mrscan",
        description="Mr. Scan (SC'13) reproduction: tree-distributed GPU DBSCAN",
    )
    parser.add_argument("--version", action="version", version=f"mrscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("dataset", choices=["twitter", "sdss", "blobs"])
    gen.add_argument("n_points", type=int)
    gen.add_argument("output", type=Path)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["binary", "text"], default="binary")

    clu = sub.add_parser("cluster", help="run the Mr. Scan pipeline")
    clu.add_argument("input", type=Path)
    clu.add_argument("--eps", type=float, required=True)
    clu.add_argument("--minpts", type=int, required=True)
    clu.add_argument("--leaves", type=int, default=4)
    clu.add_argument("--fanout", type=int, default=256)
    clu.add_argument("--partition-nodes", type=int, default=None)
    clu.add_argument("--no-densebox", action="store_true")
    clu.add_argument(
        "--partition-output", choices=["lustre", "network"], default="lustre"
    )
    clu.add_argument("--output", type=Path, default=None, help="labels file (text)")
    clu.add_argument("--json", action="store_true", help="print a JSON report")
    clu.add_argument("--verbose", action="store_true", help="log phase progress")
    clu.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="record telemetry and write a Chrome trace_event JSON file "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    clu.add_argument(
        "--trace-jsonl",
        type=Path,
        default=None,
        metavar="PATH",
        help="record telemetry and write a flat JSONL span/metric log",
    )
    clu.add_argument(
        "--trace-summary",
        action="store_true",
        help="record telemetry and print the span/metric summary table",
    )
    clu.add_argument(
        "--trace-summary-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="record telemetry and write the machine-readable summary "
        "(mrscan-telemetry-summary/1: per-phase walls, span stats, "
        "metrics) as JSON",
    )
    clu.add_argument(
        "--faults",
        type=Path,
        default=None,
        metavar="PATH",
        help="inject faults from a FaultPlan JSON file (chaos testing); "
        "the run recovers via retries/failover and reports every event",
    )
    clu.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="per-node retry budget before failover (default 2)",
    )
    clu.add_argument(
        "--leaf-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline per leaf attempt; a straggler exceeding it fails "
        "with LeafTimeoutError and is retried (default: none)",
    )
    clu.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable-run directory (repro.durability): write-ahead "
        "journal, phase checkpoints and leaf spills (a retried or "
        "failed-over leaf resumes without re-clustering); a crashed run "
        "restarts with --resume and re-executes only unfinished work",
    )
    clu.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed run from --run-dir (labels are "
        "byte-identical to an uninterrupted run)",
    )
    clu.add_argument(
        "--drop-invalid",
        action="store_true",
        help="strip NaN/Inf input rows (reported in the summary) instead "
        "of rejecting the file",
    )
    clu.add_argument(
        "--validate",
        choices=["off", "cheap", "full"],
        default="off",
        help="check the paper's phase-boundary invariants at runtime "
        "(repro.validate): 'cheap' is O(n) bookkeeping, 'full' adds the "
        "geometric re-verifications; violations exit with status 3",
    )
    clu.add_argument(
        "--transport",
        choices=TRANSPORT_NAMES,
        default=None,
        help="execution backend for both MRNet trees (repro.runtime): "
        "'local' runs in-process, 'shm' ships shared-memory refs to "
        "localhost worker agents, 'tcp' dispatches "
        "to socket-connected worker agents (default: $MRSCAN_TRANSPORT, "
        "then local)",
    )
    clu.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the shm/tcp transports (default: CPU count)",
    )

    ana = sub.add_parser("analyze", help="per-cluster statistics of a clustering")
    ana.add_argument("input", type=Path, help="point file")
    ana.add_argument("labels", type=Path, help="labels file from `cluster --output`")
    ana.add_argument("--top", type=int, default=10)
    ana.add_argument("--json", action="store_true")

    qua = sub.add_parser("quality", help="DBDC quality vs reference DBSCAN")
    qua.add_argument("input", type=Path)
    qua.add_argument("--eps", type=float, required=True)
    qua.add_argument("--minpts", type=int, required=True)
    qua.add_argument("--leaves", type=int, default=4)

    srv = sub.add_parser(
        "serve",
        help="run the long-lived clustering daemon (repro.serve): async "
        "batch ingest + incremental dirty-partition re-clustering",
    )
    srv.add_argument("input", type=Path, help="base dataset to load resident")
    srv.add_argument("--eps", type=float, required=True)
    srv.add_argument("--minpts", type=int, required=True)
    srv.add_argument("--leaves", type=int, default=8)
    srv.add_argument("--fanout", type=int, default=256)
    srv.add_argument(
        "--socket", type=Path, default=None, metavar="PATH",
        help="unix socket to listen on (default /tmp/mrscan-serve.sock "
        "unless --port is given)",
    )
    srv.add_argument(
        "--port", type=int, default=None,
        help="listen on 127.0.0.1:PORT instead of a unix socket (0 = "
        "ephemeral, printed at startup)",
    )
    srv.add_argument(
        "--transport", choices=TRANSPORT_NAMES, default=None,
        help="resident execution backend (default: $MRSCAN_TRANSPORT, "
        "then local); agents and arenas stay warm across ingests",
    )
    srv.add_argument("--workers", type=int, default=None, metavar="N")
    srv.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="durable serving session: every acked ingest is journaled "
        "(repro.durability.IngestLog); restart with --resume to recover",
    )
    srv.add_argument(
        "--resume", action="store_true",
        help="replay the run-dir's acked ingests on top of the base "
        "dataset before accepting traffic",
    )
    srv.add_argument(
        "--faults", type=Path, default=None, metavar="PATH",
        help="inject faults from a FaultPlan JSON file into the "
        "incremental runs (chaos testing)",
    )
    srv.add_argument(
        "--max-queued-ingests", type=int, default=8, metavar="N",
        help="ingests queued-or-running before new ones are shed with a "
        "retryable 'overloaded' response (default 8)",
    )
    srv.add_argument(
        "--max-connections", type=int, default=64, metavar="N",
        help="concurrent client connections before new ones are refused "
        "(default 64)",
    )
    srv.add_argument(
        "--ingest-deadline", type=float, default=None, metavar="SECONDS",
        help="server-side ceiling on any ingest; past it the transaction "
        "is cancelled and rolled back (default: none)",
    )
    srv.add_argument(
        "--max-batch-points", type=int, default=1_000_000, metavar="N",
        help="hard cap on points per ingest batch (default 1M)",
    )
    srv.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive infrastructure ingest failures that trip the "
        "circuit breaker into degraded mode (default 3)",
    )
    srv.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="SECONDS",
        help="seconds the breaker stays open before a half-open probe "
        "(default 30)",
    )
    srv.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="seconds a SIGTERM/drain waits for the in-flight ingest "
        "before cancelling it (default 10)",
    )
    srv.add_argument("--verbose", action="store_true")

    wrk = sub.add_parser(
        "worker",
        help="TCP worker agent (repro.mrnet.tcp): connect to a "
        "coordinator running with --transport tcp and execute leaf tasks; "
        "reconnects with backoff if the connection drops",
    )
    wrk.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (the coordinator's MRSCAN_TCP_PORT)",
    )
    wrk.add_argument(
        "--worker-id",
        default=None,
        help="stable identity in handshakes and logs (default: "
        "worker-<hostname>-<pid>)",
    )
    wrk.add_argument(
        "--fingerprint",
        default=None,
        help="config fingerprint offered at handshake; a coordinator "
        "expecting a different one rejects this agent "
        "(default: $MRSCAN_TCP_FINGERPRINT)",
    )
    wrk.add_argument(
        "--max-reconnects",
        type=int,
        default=None,
        metavar="N",
        help="reconnect attempts before giving up (default 60; 0 = "
        "never reconnect)",
    )
    wrk.add_argument("--verbose", action="store_true")

    sim = sub.add_parser("simulate", help="reproduce a paper figure (perf model)")
    sim.add_argument(
        "figure",
        choices=[
            "fig8",
            "fig9a",
            "fig9b",
            "fig9c",
            "fig10",
            "fig12",
            "fig13",
            "table1",
            "whatif_network_partition",
            "whatif_subdivide_dense_cells",
        ],
    )
    sim.add_argument("--json", action="store_true")

    return parser


def _load_points(path: Path, *, validate: bool = True) -> PointSet:
    from .io.formats import read_points_binary, read_points_text

    if path.suffix in (".txt", ".csv", ".tsv"):
        return read_points_text(path, validate=validate)
    return read_points_binary(path, validate=validate)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data import gaussian_blobs, generate_sdss, generate_twitter
    from .io.formats import write_points_binary, write_points_text

    if args.dataset == "twitter":
        points = generate_twitter(args.n_points, seed=args.seed)
    elif args.dataset == "sdss":
        points = generate_sdss(args.n_points, seed=args.seed)
    else:
        points = gaussian_blobs(args.n_points, seed=args.seed)
    writer = write_points_binary if args.format == "binary" else write_points_text
    nbytes = writer(args.output, points)
    print(f"wrote {len(points):,} points ({nbytes:,} bytes) to {args.output}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import logging

    from .core.pipeline import mrscan

    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    # Fail fast on unwritable trace paths, before the (expensive) run.
    for opt, path in (
        ("--trace-out", args.trace_out),
        ("--trace-jsonl", args.trace_jsonl),
        ("--trace-summary-json", args.trace_summary_json),
    ):
        if path is None:
            continue
        if path.is_dir():
            print(f"error: {opt} {path} is a directory", file=sys.stderr)
            return 2
        if not path.parent.exists():
            print(f"error: {opt}: directory {path.parent} does not exist", file=sys.stderr)
            return 2
    fault_plan = None
    if args.faults is not None:
        from .resilience import FaultPlan

        if not args.faults.exists():
            print(f"error: --faults {args.faults} does not exist", file=sys.stderr)
            return 2
        fault_plan = FaultPlan.load(args.faults)
        print(f"injecting {fault_plan.describe()}")
    if args.resume and args.run_dir is None:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2
    from .errors import DataValidationError, DurabilityError, ValidationError

    try:
        points = _load_points(args.input, validate=not args.drop_invalid)
    except DataValidationError as exc:
        print(
            f"error: {exc}\n(re-run with --drop-invalid to strip the "
            "offending rows)",
            file=sys.stderr,
        )
        return 2
    trace_enabled = bool(
        args.trace_out
        or args.trace_jsonl
        or args.trace_summary
        or args.trace_summary_json
    )

    try:
        result = mrscan(
            points,
            args.eps,
            args.minpts,
            n_leaves=args.leaves,
            fanout=args.fanout,
            n_partition_nodes=args.partition_nodes,
            use_densebox=not args.no_densebox,
            partition_output=args.partition_output,
            telemetry=trace_enabled,
            fault_plan=fault_plan,
            max_retries=args.max_retries,
            leaf_timeout=args.leaf_timeout,
            validate=args.validate,
            transport=args.transport,
            transport_workers=args.workers,
            run_dir=(str(args.run_dir) if args.run_dir is not None else None),
            resume=args.resume,
            drop_invalid=args.drop_invalid,
        )
    except DurabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation FAILED: {exc}", file=sys.stderr)
        for v in exc.violations[:20]:
            print(f"  {v}", file=sys.stderr)
        return 3
    if result.resumed:
        restored = ", ".join(result.phases_restored) or "none"
        print(
            f"resumed from {args.run_dir} (phases restored: {restored}; "
            f"leaf checkpoint hits: {result.checkpoint_hits})"
        )
    if result.n_dropped_invalid:
        print(
            f"dropped {result.n_dropped_invalid} input row(s) with "
            "non-finite coordinates/weights"
        )
    if args.validate != "off" and result.validation is not None:
        print(result.validation.summary().splitlines()[0])
    if result.fault_summary.get("total"):
        print(
            "faults survived: "
            + ", ".join(
                f"{k}={v}" for k, v in result.fault_summary["by_kind"].items()
            )
            + " | actions: "
            + ", ".join(
                f"{k}={v}" for k, v in result.fault_summary["by_action"].items()
            )
            + (
                f" | checkpoint hits: {result.checkpoint_hits}"
                if result.checkpoint_hits
                else ""
            )
        )
    if args.json:
        print(
            json.dumps(
                {
                    "n_points": result.n_points,
                    "n_clusters": result.n_clusters,
                    "n_noise": result.n_noise,
                    "n_leaves": result.n_leaves,
                    "timings": result.timings.as_dict(),
                    "densebox_eliminated": result.total_densebox_eliminated,
                    "faults": result.fault_summary,
                    "checkpoint_hits": result.checkpoint_hits,
                    "resumed": result.resumed,
                    "phases_restored": result.phases_restored,
                    "n_dropped_invalid": result.n_dropped_invalid,
                },
                indent=1,
            )
        )
    else:
        print(result.summary())
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            for pid, lab in zip(points.ids, result.labels):
                fh.write(f"{int(pid)} {int(lab)}\n")
        print(f"labels written to {args.output}")
    if trace_enabled:
        telemetry = result.telemetry
        if args.trace_out is not None:
            n_events = telemetry.write_chrome_trace(args.trace_out)
            print(
                f"chrome trace ({n_events} events) written to {args.trace_out} "
                "- open in chrome://tracing or https://ui.perfetto.dev"
            )
        if args.trace_jsonl is not None:
            n_lines = telemetry.write_jsonl(args.trace_jsonl)
            print(f"telemetry JSONL ({n_lines} lines) written to {args.trace_jsonl}")
        if args.trace_summary_json is not None:
            telemetry.write_summary_json(args.trace_summary_json)
            print(f"telemetry summary JSON written to {args.trace_summary_json}")
        if args.trace_summary:
            print(telemetry.summary())
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from .core.pipeline import mrscan
    from .dbscan import dbscan_reference
    from .quality import dbdc_quality_score

    points = _load_points(args.input)
    ref = dbscan_reference(points, args.eps, args.minpts)
    result = mrscan(points, args.eps, args.minpts, n_leaves=args.leaves)
    report = dbdc_quality_score(ref.labels, result.labels)
    print(report)
    return 0 if report.score >= 0.99 else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import cluster_table, noise_summary
    from .errors import FormatError

    points = _load_points(args.input)
    id_to_label: dict[int, int] = {}
    with open(args.labels, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{args.labels}:{lineno}: expected 'id label'")
            id_to_label[int(parts[0])] = int(parts[1])
    try:
        labels = np.array([id_to_label[int(pid)] for pid in points.ids])
    except KeyError as exc:
        raise FormatError(f"labels file is missing point id {exc}") from exc

    table = cluster_table(points, labels)
    noise = noise_summary(points, labels)
    if args.json:
        print(
            json.dumps(
                {
                    "clusters": [s.as_dict() for s in table[: args.top]],
                    "n_clusters": len(table),
                    "noise": noise,
                },
                indent=1,
            )
        )
        return 0
    print(f"{len(table)} clusters, {noise['count']} noise points "
          f"({100*noise['fraction']:.1f}%)")
    print(f"{'label':>6} {'size':>8} {'centroid':>22} {'rms':>8} {'weight':>10}")
    for s in table[: args.top]:
        print(
            f"{s.label:>6} {s.size:>8,} "
            f"({s.centroid[0]:9.3f},{s.centroid[1]:9.3f}) "
            f"{s.rms_radius:>8.3f} {s.total_weight:>10.1f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from .core.config import MrScanConfig
    from .errors import MrScanError
    from .serve.server import ServeServer

    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    if args.resume and args.run_dir is None:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults is not None:
        from .resilience import FaultPlan

        if not args.faults.exists():
            print(f"error: --faults {args.faults} does not exist", file=sys.stderr)
            return 2
        fault_plan = FaultPlan.load(args.faults)
        print(f"injecting {fault_plan.describe()}")
    socket_path = args.socket
    if socket_path is None and args.port is None:
        socket_path = Path("/tmp/mrscan-serve.sock")
    points = _load_points(args.input)
    config = MrScanConfig(
        eps=args.eps,
        minpts=args.minpts,
        n_leaves=args.leaves,
        fanout=args.fanout,
        transport=args.transport,
        transport_workers=args.workers,
        fault_plan=fault_plan,
    )

    async def _run() -> None:
        import signal

        server = ServeServer(
            points,
            config,
            socket_path=socket_path,
            port=args.port,
            run_dir=args.run_dir,
            resume=args.resume,
            max_queued_ingests=args.max_queued_ingests,
            max_connections=args.max_connections,
            ingest_deadline=args.ingest_deadline,
            max_batch_points=args.max_batch_points,
            breaker_threshold=args.breaker_threshold,
            breaker_reset=args.breaker_reset,
            drain_grace=args.drain_grace,
        )
        loop = asyncio.get_running_loop()
        # Graceful drain on SIGTERM/SIGINT: stop admitting ingests, let
        # the in-flight one finish (or cancel it after --drain-grace),
        # quiesce the journal, exit 0.
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.begin_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix event loop: fall back to KeyboardInterrupt
        try:
            await server.start()
            stats = server.state.stats()
            where = (
                str(socket_path) if socket_path is not None
                else f"127.0.0.1:{server.port}"
            )
            print(
                f"serving {stats['n_points']} points "
                f"({stats['n_clusters']} clusters) on {where}",
                flush=True,
            )
            await server.serve_forever()
        finally:
            server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; daemon stopped")
    except MrScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import logging

    from .mrnet.tcp import DEFAULT_MAX_RECONNECTS, run_worker_agent

    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    max_reconnects = (
        DEFAULT_MAX_RECONNECTS if args.max_reconnects is None else args.max_reconnects
    )
    try:
        return run_worker_agent(
            args.connect,
            worker_id=args.worker_id,
            fingerprint=args.fingerprint,
            max_reconnects=max_reconnects,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .perf import figures

    builder = getattr(figures, args.figure)
    series = builder()
    if args.json:
        print(json.dumps(series.as_dict(), indent=1))
    else:
        print(series.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "quality": _cmd_quality,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "simulate": _cmd_simulate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
