#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of the same
commit), ``B`` the candidate; both are ``run.py --runs N --out`` files.
One row per (workload, end-to-end metric):

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  a set's own spread (interquartile distance over median) is
                wider than the bound, so neither verdict can be trusted -
                unless every run of B reads better than every run of A

Every ratio is B's median over A's median, printed beside A's median (its
base).  Exits 1 if any row is ``worse``, 2 if none is but some are
``unresolved``, else 0.  Smoke-scale files are refused.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import harness


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of the untraced, correct runs."""
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)
    if body.get("schema") != harness.SCHEMA:
        raise SystemExit(f"{path}: not a {harness.SCHEMA} file")
    if body.get("smoke"):
        raise SystemExit(f"{path}: smoke-scale runs are never compared")
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in body["runs"]:
        if run.get("trace") or not run.get("correct"):
            continue
        for name, metric in run["metrics"].items():
            values[run["workload"], name].append(metric["value"])
    return values


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    if max(harness.spread(a), harness.spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if all_better else "unresolved"
    worsening = sign * (harness.median(b) - harness.median(a)) / harness.median(a)
    return "worse" if worsening > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 64
    base, cand = load(argv[0]), load(argv[1])
    contract = harness.load_contract()
    counts = {"ok": 0, "worse": 0, "unresolved": 0, "missing": 0}
    print(
        f"{'workload':22} {'metric':12} {'verdict':10} {'ratio':>7} {'base':>10} "
        f"{'cand':>10} unit  {'bound':>5} {'spreadA':>7} {'spreadB':>7}  nA nB"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a, b = base.get((workload, metric["name"])), cand.get((workload, metric["name"]))
            if not a or not b:
                counts["missing"] += 1
                print(f"{workload:22} {metric['name']:12} missing")
                continue
            row = verdict(a, b, metric["bound"], metric["better"] == "lower")
            counts[row] += 1
            med_a, med_b = harness.median(a), harness.median(b)
            print(
                f"{workload:22} {metric['name']:12} {row:10} {med_b / med_a:7.3f} "
                f"{med_a:10.4g} {med_b:10.4g} {metric['unit']:5} {metric['bound']:5.2f} "
                f"{harness.spread(a):7.3f} {harness.spread(b):7.3f}  {len(a):2d} {len(b):2d}"
            )
    print("# " + ", ".join(f"{n} {k}" for k, n in counts.items() if n))
    if counts["worse"]:
        return 1
    return 2 if counts["unresolved"] or counts["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
