"""Exporters: Chrome ``trace_event`` JSON, flat JSONL, and a summary table.

The Chrome format is the `trace_event` JSON-object form — a top-level
``{"traceEvents": [...]}`` — loadable directly in ``chrome://tracing`` or
https://ui.perfetto.dev.  Spans become ``"X"`` (complete) events, instant
markers become ``"i"`` events, and ``"M"`` metadata events name the
logical process/thread tracks (driver, partition tree, cluster tree, GPU
leaves).  Timestamps are microseconds relative to the tracer's origin.

The JSONL export is one JSON object per line — ``span``/``instant``
records first, then ``metric`` records — for ad-hoc ``jq``/pandas work.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable

from .tracer import TRACK_NAMES, SpanRecord

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
    "summary_table",
    "summary_dict",
    "write_summary_json",
]

#: Schema tag for :func:`summary_dict` / ``--trace-summary-json`` files.
SUMMARY_SCHEMA = "mrscan-telemetry-summary/1"


def _json_safe(value: Any) -> Any:
    """Coerce span/metric attribute values to JSON-encodable types."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    try:  # numpy scalars expose item()
        return _json_safe(value.item())
    except AttributeError:
        return str(value)


def chrome_trace_events(records: Iterable[SpanRecord], *, origin: float = 0.0) -> list[dict[str, Any]]:
    """Convert span records to Chrome ``traceEvents`` dicts (µs timestamps)."""
    events: list[dict[str, Any]] = []
    seen_tracks: set[tuple[int, int]] = set()
    for r in records:
        ev: dict[str, Any] = {
            "name": r.name,
            "cat": r.cat,
            "ph": r.ph,
            "ts": (r.ts - origin) * 1e6,
            "pid": r.pid,
            "tid": r.tid,
            "args": _json_safe(r.args),
        }
        if r.ph == "X":
            ev["dur"] = r.dur * 1e6
        elif r.ph == "i":
            ev["s"] = "t"  # thread-scoped instant
        events.append(ev)
        seen_tracks.add((r.pid, r.tid))

    meta: list[dict[str, Any]] = []
    for pid in sorted({p for p, _ in seen_tracks}):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": TRACK_NAMES.get(pid, f"pid {pid}")},
            }
        )
    for pid, tid in sorted(seen_tracks):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"node {tid}"},
            }
        )
    return meta + events


def to_chrome_trace(telemetry: Any) -> dict[str, Any]:
    """Build the full Chrome trace JSON object for a :class:`Telemetry`."""
    return {
        "traceEvents": chrome_trace_events(
            telemetry.tracer.records, origin=telemetry.tracer.origin
        ),
        "displayTimeUnit": "ms",
        "otherData": {"metrics": telemetry.metrics.as_dict()},
    }


def write_chrome_trace(path: str | Path, telemetry: Any) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = to_chrome_trace(telemetry)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return len(doc["traceEvents"])


def jsonl_lines(telemetry: Any) -> Iterable[str]:
    """Yield one JSON line per span/instant/metric."""
    origin = telemetry.tracer.origin
    for r in telemetry.tracer.records:
        yield json.dumps(
            {
                "type": "span" if r.ph == "X" else "instant",
                "name": r.name,
                "cat": r.cat,
                "ts": r.ts - origin,
                "dur": r.dur,
                "pid": r.pid,
                "tid": r.tid,
                "id": r.span_id,
                "parent": r.parent,
                "depth": r.depth,
                "args": _json_safe(r.args),
            }
        )
    for name, payload in telemetry.metrics.as_dict().items():
        safe = dict(_json_safe(payload))
        instrument = safe.pop("type")
        yield json.dumps(
            {"type": "metric", "name": name, "instrument": instrument, **safe}
        )


def write_jsonl(path: str | Path, telemetry: Any) -> int:
    """Write the JSONL event log; returns the number of lines."""
    lines = list(jsonl_lines(telemetry))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return len(lines)


def summary_dict(telemetry: Any) -> dict[str, Any]:
    """Machine-readable run summary (schema ``mrscan-telemetry-summary/1``).

    The structured sibling of :func:`summary_table`, built so downstream
    consumers never scrape the human text:

    - ``phases``: wall seconds per pipeline phase, from the driver's
      ``cat="phase"`` spans — summed, since a serve daemon runs
      ``cluster``, ``merge`` and ``sweep`` once per ingest in one
      telemetry lifetime; a dotted phase name rolls up under its first
      component).
    - ``spans``: the full rollup — count / total seconds / mean ms per
      span name.
    - ``metrics``: the metrics registry verbatim (JSON-safe).
    """
    spans = telemetry.tracer.spans()
    rollup: dict[str, dict[str, Any]] = {}
    phases: dict[str, float] = {}
    for s in spans:
        entry = rollup.setdefault(s.name, {"count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += s.dur
        if s.cat == "phase":
            phase = s.name.split(".", 1)[0]
            phases[phase] = phases.get(phase, 0.0) + s.dur
    for entry in rollup.values():
        entry["mean_ms"] = 1e3 * entry["total_seconds"] / entry["count"]
    return {
        "schema": SUMMARY_SCHEMA,
        "phases": {k: phases[k] for k in sorted(phases)},
        "spans": {k: rollup[k] for k in sorted(rollup)},
        "n_instants": len(telemetry.tracer.instants()),
        "metrics": _json_safe(telemetry.metrics.as_dict()),
    }


def write_summary_json(path: str | Path, telemetry: Any) -> dict[str, Any]:
    """Write :func:`summary_dict` as JSON; returns the document."""
    doc = summary_dict(telemetry)
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return doc


def summary_table(telemetry: Any, *, top: int = 12) -> str:
    """Human-readable run summary: span rollup then the busiest metrics."""
    spans = telemetry.tracer.spans()
    rollup: dict[str, tuple[int, float]] = {}
    for s in spans:
        count, seconds = rollup.get(s.name, (0, 0.0))
        rollup[s.name] = (count + 1, seconds + s.dur)
    lines = ["telemetry summary", "-----------------"]
    if rollup:
        lines.append(f"{'span':<32} {'count':>7} {'total s':>10} {'mean ms':>10}")
        for name, (count, seconds) in sorted(
            rollup.items(), key=lambda kv: kv[1][1], reverse=True
        ):
            lines.append(
                f"{name:<32} {count:>7} {seconds:>10.4f} {1e3 * seconds / count:>10.3f}"
            )
    n_instants = len(telemetry.tracer.instants())
    if n_instants:
        lines.append(f"instant events: {n_instants}")
    metrics = telemetry.metrics.as_dict()
    # Fault/recovery counters get their own section — a chaos run's first
    # question is "what failed and what did the resilience layer do".
    fault_metrics = {
        name: payload
        for name, payload in metrics.items()
        if name.startswith("resilience.")
    }
    if fault_metrics:
        metrics = {k: v for k, v in metrics.items() if k not in fault_metrics}
        lines.append("")
        lines.append("faults & recovery")
        for name, payload in sorted(fault_metrics.items()):
            lines.append(f"{name:<44} {payload['value']:>14,.6g}")
    if metrics:
        lines.append("")
        lines.append(f"{'metric':<44} {'value':>14}")
        shown = 0
        for name, payload in sorted(metrics.items()):
            if shown >= top:
                lines.append(f"... and {len(metrics) - shown} more metrics")
                break
            if payload.get("type") == "histogram":
                value = (
                    f"n={payload['count']} mean={payload['mean']:.3g}"
                    if payload["count"]
                    else "n=0"
                )
                lines.append(f"{name:<44} {value:>14}")
            else:
                lines.append(f"{name:<44} {payload['value']:>14,.6g}")
            shown += 1
    return "\n".join(lines)
