"""Profile the serve daemon's ingest at a chosen resident size, in process.

Replays a serve workload's stream (``bench/workloads.py``; ``serve_local``:
a blob base, 500 point batches around fixed anchors, 16 leaves;
``serve_scatter``: every batch dirties every leaf) against a ``ServeState``
with the WAL and leaf spills on and the ``local`` transport, then prints
one JSON line of per-ingest medians and quartiles: the whole ingest, the
traced ``cluster`` / ``merge`` / ``sweep`` phase spans that
``cluster_merge_sweep`` records (the names a batch run's phases carry),
the ``leaf.cluster`` seconds of each leaf-engine mode (``append``: a
dirty leaf updated from its last output; ``full``: a whole-view pass),
summed per ingest and per leaf, the cells and rows an appending leaf
read from its cell index (``cells_read`` / ``rows_read``, per leaf), and
the ``leaf.summarize`` seconds beside them, per ingest and per leaf.

    PYTHONPATH=src python tools/serve_profile.py                     # 150k resident
    PYTHONPATH=src python tools/serve_profile.py --resident 1000000 --batches 16
    PYTHONPATH=src python tools/serve_profile.py --workload serve_scatter
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import SPECS, serve_base, serve_batches  # noqa: E402

from repro.core import MrScanConfig  # noqa: E402
from repro.durability import IngestLog  # noqa: E402
from repro.mrnet import LocalTransport  # noqa: E402
from repro.serve import ServeState  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

SPANS = ("cluster", "merge", "sweep")


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resident", type=int, default=150_000, help="base points")
    parser.add_argument("--batches", type=int, default=16, help="ingests replayed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", choices=("serve_local", "serve_scatter"), default="serve_local"
    )
    args = parser.parse_args()

    spec = SPECS[args.workload]
    spec = replace(spec, n_base=args.resident, n_blobs=max(1, spec.n_blobs * args.resident // spec.n_base))
    base = serve_base(spec, args.seed)
    # The stream floors at the workload's min_ops; replay exactly --batches.
    batches = serve_batches(spec, args.seed, base, args.batches / spec.ops_per_second)
    batches = batches[: args.batches]
    config = MrScanConfig(eps=spec.eps, minpts=spec.minpts, n_leaves=spec.n_leaves)
    telemetry = Telemetry()
    walls: list[float] = []
    with tempfile.TemporaryDirectory() as run_dir, IngestLog(run_dir) as log:
        state = ServeState(
            base, config, transport=LocalTransport(), telemetry=telemetry,
            ingest_log=log,
        )
        telemetry.tracer.drain()
        per_span: dict[str, list[float]] = {name: [] for name in SPANS}
        # leaf.cluster seconds by engine mode, per ingest and per leaf.
        per_ingest: dict[str, list[float]] = {}
        per_leaf: dict[str, list[float]] = {}
        reads: dict[str, list[float]] = {"cells_read": [], "rows_read": []}
        summarize_per_ingest: list[float] = []
        summarize_per_leaf: list[float] = []
        for batch in batches:
            t0 = time.perf_counter()
            state.ingest(batch)
            walls.append(time.perf_counter() - t0)
            spans = telemetry.tracer.drain()
            for name in SPANS:
                per_span[name].append(sum(s.dur for s in spans if s.name == name))
            ingest: dict[str, float] = {}
            for span in spans:
                if span.name == "leaf.cluster":
                    mode = span.args.get("mode", "full")
                    per_leaf.setdefault(mode, []).append(span.dur)
                    ingest[mode] = ingest.get(mode, 0.0) + span.dur
                    for name, values in reads.items():
                        if name in span.args:
                            values.append(span.args[name])
            for mode, seconds in ingest.items():
                per_ingest.setdefault(mode, []).append(seconds)
            summarize = [span.dur for span in spans if span.name == "leaf.summarize"]
            summarize_per_leaf.extend(summarize)
            summarize_per_ingest.append(sum(summarize))
    merge_sweep = [m + s for m, s in zip(per_span["merge"], per_span["sweep"])]
    print(json.dumps({
        "workload": args.workload,
        "resident": args.resident,
        "ingests": len(walls),
        "ingest_s": _quartiles(walls),
        **{f"{name}_s": _quartiles(v) for name, v in per_span.items()},
        "merge_plus_sweep_s": _quartiles(merge_sweep),
        "leaf_cluster_s_per_ingest": {m: _quartiles(v) for m, v in sorted(per_ingest.items())},
        "leaf_cluster_s_per_leaf": {m: _quartiles(v) for m, v in sorted(per_leaf.items())},
        **{f"{name}_per_leaf": _quartiles(v) for name, v in reads.items() if v},
        "leaf_summarize_s_per_ingest": _quartiles(summarize_per_ingest),
        "leaf_summarize_s_per_leaf": _quartiles(summarize_per_leaf),
    }))


if __name__ == "__main__":
    main()
