#!/usr/bin/env python3
"""One benchmark for the whole system.

    python3 bench/run.py --seed 0                      # every workload, untraced
    python3 bench/run.py --seed 0 --traced             # every workload, per-layer
    python3 bench/run.py --workload cluster_sdss --seed 3 --seconds 8 --trace 0
    python3 bench/run.py --runs 10 --out A.json        # a set, for compare.py

Each workload runs in a fresh process (the one started with
``--workload``; without it this script starts one per workload).  Every
metric is printed as ``workload metric value unit``; the last line of a
``--workload`` run is one JSON object ``{correct, attempted, failed,
metrics}`` holding every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``; 0 = not measured
on this workload).  A wrong output makes ``correct`` false and the exit
code non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import harness


def parse_args(argv=None) -> argparse.Namespace:
    contract = harness.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in contract["workloads"]],
        help="run this one workload in this process (default: all, one process each)",
    )
    parser.add_argument("--seed", type=int, default=0, help="inputs are made from it")
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="length of the untraced measurement: the timed loop of cluster_*, "
        "the number of batches of a serve_* stream (the traced pass replays "
        "a fixed amount of work instead)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1: the per-layer pass",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="repeat with seeds seed..seed+runs-1 (a set for compare.py)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for testing the harness; never comparable with a full run",
    )
    parser.add_argument("--out", help="write host record, samples and quartiles here")
    parser.add_argument("--spans", help="span file of a traced --workload run")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds < 0:
        parser.error("--runs must be >= 1 and --seconds >= 0")
    args.contract = contract
    return args


def run_workload(args: argparse.Namespace) -> dict:
    """Measure one workload in this process and return its record."""
    harness.bootstrap()
    from workloads import spec_for  # imports numpy and repro: after bootstrap

    spec = spec_for(args.workload, args.smoke)
    if spec.kind == "cluster":
        import cluster as module
    else:
        import serve as module
    began = time.perf_counter()
    if args.trace:
        spans_path = args.spans or (
            harness.WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
        )
        result = module.run_traced(spec, args.seed, Path(spans_path))
    else:
        result = module.run_measured(spec, args.seed, args.seconds)
    failures = result["failures"] + harness.leak_failures()

    units = harness.metric_units(args.contract, bool(args.trace))
    unknown = set(result["values"]) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer this workload does not exercise reads 0 in the traced pass
    # (and is listed as not_measured); an end-to-end metric never may.
    not_measured = sorted(set(units) - set(result["values"])) if args.trace else []
    metrics = {}
    for name, unit in units.items():
        value = float(result["values"].get(name, 0.0 if args.trace else math.nan))
        if not math.isfinite(value):
            raise RuntimeError(f"{args.workload}: no finite value for {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "correct": not failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "failures": failures,
        "metrics": metrics,
        "not_measured": not_measured,
        "samples": {k: harness.describe(v) for k, v in result["samples"].items() if v},
        "elapsed_s": time.perf_counter() - began,
        "host": harness.host_record(),
    }


def print_record(record: dict) -> None:
    tag = " smoke" if record["smoke"] else ""
    for name, metric in record["metrics"].items():
        detail = record["samples"].get(name)
        extra = (
            f"  n={detail['n']} q1={detail['q1']:.6g} q3={detail['q3']:.6g}"
            if detail else ""
        )
        value = (
            "not_measured" if name in record["not_measured"] else f"{metric['value']:.6g}"
        )
        print(f"{record['workload']} {name} {value} {metric['unit']}{tag}{extra}")
    for failure in record["failures"]:
        print(f"# {record['workload']} WRONG: {failure}")
    print(
        f"# {record['workload']} seed={record['seed']} attempted={record['attempted']} "
        f"failed={record['failed']} correct={record['correct']} "
        f"elapsed={record['elapsed_s']:.1f}s{tag}",
        flush=True,
    )


def fan_out(args: argparse.Namespace) -> list[dict]:
    """One fresh process per (seed, workload); their records, in order."""
    names = [args.workload] if args.workload else [
        w["name"] for w in args.contract["workloads"]
    ]
    harness.WORK.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            part = harness.WORK / f"record-{name}-{seed}-{args.trace}.json"
            part.unlink(missing_ok=True)
            command = [
                sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            # The child prints its own lines; its last (JSON) line is for
            # the driver and is dropped from this listing.
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1] if part.exists() else lines), flush=True)
            if not part.exists():
                print(f"# {name} seed={seed} produced no result (exit {child.returncode})")
                records.append({"workload": name, "seed": seed, "correct": False})
                continue
            records.append(json.loads(part.read_text(encoding="utf-8"))["runs"][0])
            part.unlink()
    return records


def write_out(path: str, records: list[dict], smoke: bool) -> None:
    body = {"schema": harness.SCHEMA, "smoke": smoke, "runs": records}
    Path(path).write_text(json.dumps(body, indent=1), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload and args.runs == 1:
        try:
            record = run_workload(args)
        finally:
            # run_workload has done this already unless it raised: no path
            # out of here leaves a process behind.
            harness.end_descendants()
        print_record(record)
        if args.out:
            write_out(args.out, [record], args.smoke)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
        return 0 if record["correct"] else 1
    records = fan_out(args)
    if args.out:
        write_out(args.out, records, args.smoke)
    wrong = [f"{r['workload']}@{r['seed']}" for r in records if not r["correct"]]
    print(f"# {len(records)} run(s), {len(wrong)} wrong{': ' + ' '.join(wrong) if wrong else ''}")
    return 1 if wrong else 0


# shm/tcp transports start workers with the spawn context, which imports
# this file again in every worker: nothing may run at import.
if __name__ == "__main__":
    sys.exit(main())
