"""Trace and metrics exporters.

Three wire formats plus a human-facing renderer (see
:mod:`repro.core.observability.flame`):

* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` or
  Perfetto.  The timeline is *virtual time* (cost-model ms rendered as
  trace µs), one thread row per paper layer, so optimize → enumerate →
  atom → operator → movement nesting is visible at a glance.
* **JSONL span log** — one JSON object per span, append-friendly,
  trivially greppable / pandas-loadable for offline analysis.
* **Prometheus text exposition** — the metrics registry rendered in the
  ``# HELP`` / ``# TYPE`` / sample-line format scrapers understand.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.observability.registry import (
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.core.observability.spans import Span, Tracer

#: stable thread-row ids per span kind (Chrome sorts rows by tid)
_KIND_TIDS = {
    "task": 0,
    "optimizer": 1,
    "executor": 2,
    "platform": 3,
    "movement": 4,
    "storage": 5,
}


#: tid base for per-worker rows (concurrent scheduler): worker w → 100+w
_WORKER_TID_BASE = 100


def _tid(span: Span) -> int:
    """Thread row for a span.

    Spans stamped with a ``worker`` attribute (grafted from the
    concurrent scheduler's shard tracers) get their own lane —
    ``100 + worker`` — so parallel atom execution renders as genuinely
    parallel tracks instead of overlapping boxes on one row.  Everything
    else keeps the per-layer row of its kind.
    """
    worker = span.attributes.get("worker")
    if isinstance(worker, int):
        return _WORKER_TID_BASE + worker
    return _KIND_TIDS.get(span.kind, 9)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Render the span tree as a Chrome trace-event document.

    Complete (``"ph": "X"``) events on the virtual timeline: ``ts`` and
    ``dur`` are the span's virtual start/duration in microseconds (1
    virtual ms = 1000 trace µs), so subtree durations in the viewer sum
    to the run's ``CostLedger`` totals.  Wall durations ride along in
    ``args``.  Span events become instant (``"ph": "i"``) events.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": f"repro trace {tracer.trace_id} (virtual time)"},
        },
    ]
    for kind, tid in sorted(_KIND_TIDS.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": kind},
        })
    workers = sorted({
        w for s in tracer.spans
        if isinstance(w := s.attributes.get("worker"), int)
    })
    for worker in workers:
        events.append({
            "ph": "M", "pid": 1, "tid": _WORKER_TID_BASE + worker,
            "name": "thread_name",
            "args": {"name": f"worker-{worker}"},
        })
    for span in tracer.spans:
        if not span.complete:
            continue
        args = dict(_json_safe(span.attributes))
        args.update({
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "wall_ms": round(span.wall_ms, 3),
            "v_self_ms": round(span.v_self, 4),
        })
        events.append({
            "ph": "X",
            "pid": 1,
            "tid": _tid(span),
            "name": span.name,
            "cat": span.kind,
            "ts": span.v_start * 1000.0,
            "dur": span.virtual_ms * 1000.0,
            "args": args,
        })
        for point in span.events:
            events.append({
                "ph": "i",
                "pid": 1,
                "tid": _tid(span),
                "name": point.name,
                "cat": span.kind,
                "s": "t",
                "ts": point.virtual_ms * 1000.0,
                "args": dict(_json_safe(point.attributes)),
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": tracer.trace_id,
            "virtual_total_ms": tracer.total_virtual_ms(),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write :func:`to_chrome_trace` output to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracer), handle, indent=1)


# ----------------------------------------------------------------------
# JSONL span log
# ----------------------------------------------------------------------
def span_records(tracer: Tracer) -> list[dict[str, Any]]:
    """One plain dict per span (the JSONL rows)."""
    records = []
    for span in tracer.spans:
        records.append({
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "v_start_ms": span.v_start,
            "v_ms": span.virtual_ms,
            "v_self_ms": span.v_self,
            "wall_ms": round(span.wall_ms, 3),
            "complete": span.complete,
            "attributes": _json_safe(span.attributes),
            "events": [
                {"name": e.name, "v_ms": e.virtual_ms,
                 "attributes": _json_safe(e.attributes)}
                for e in span.events
            ],
        })
    return records


def to_jsonl(tracer: Tracer) -> str:
    """The whole trace as newline-delimited JSON (one span per line)."""
    return "\n".join(json.dumps(r) for r in span_records(tracer)) + "\n"


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(tracer))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in Prometheus text exposition format.

    Every metric name carries the ``repro_`` prefix.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        name = "repro_" + _prom_name(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, Histogram):
            for key, series in sorted(instrument.series.items()):
                cumulative = 0
                for bound, count in zip(series.bounds, series.counts):
                    cumulative += count
                    labels = _prom_labels(key, f'le="{bound}"')
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _prom_labels(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{labels} {series.n}")
                lines.append(f"{name}_sum{_prom_labels(key)} {series.total}")
                lines.append(f"{name}_count{_prom_labels(key)} {series.n}")
        else:
            kind = "gauge" if isinstance(instrument, Gauge) else "counter"
            assert kind == instrument.kind
            for key, value in sorted(instrument.series.items()):
                lines.append(f"{name}{_prom_labels(key)} {value}")
    return "\n".join(lines) + "\n"

