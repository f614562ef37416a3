"""End-to-end tracing & metrics (paper §4.2: the Executor "monitors the
progress of plan execution"; the RHEEMix feedback loop consumes exactly
this telemetry).

Public surface:

* :class:`Tracer` / :class:`Span` — hierarchical, virtual-time-aware
  spans covering application optimizer, enumerator, Executor, platform
  operators, data movement and storage transformations;
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — labeled series + ``snapshot()``;
* exporters — Chrome trace-event JSON (``chrome://tracing`` / Perfetto),
  JSONL span logs, Prometheus text exposition, and a pure-python
  flamegraph-style text renderer;
* :class:`ResourceProfiler` — opt-in (``REPRO_PROFILE=1``) per-atom
  real-resource attribution: CPU vs wall, peak allocation, GC pauses,
  scheduler queue wait, channel payload bytes — charged as span attrs
  and registry histograms;
* :func:`set_build_info` — the ``repro_run_info`` gauge (git sha +
  config epoch) that ``repro serve`` stamps on its ``/metrics``;
* :func:`diff_traces` — align two JSONL span logs (``repro trace-diff``).

Attach a tracer via ``RheemContext(tracer=...)`` (or
``ctx.attach_tracer``); with no tracer attached nothing here is touched
— the instrumented paths allocate no spans.  Profiling is equally
opt-in: unprofiled runs allocate no probes and never start tracemalloc.
"""

from repro.core.observability.diff import (
    TraceDiff,
    diff_files,
    diff_traces,
    load_records,
    render_diff,
)
from repro.core.observability.export import (
    prometheus_text,
    span_records,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.core.observability.flame import render_flamegraph
from repro.core.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    set_build_info,
)
from repro.core.observability.resources import (
    BYTE_BUCKETS,
    PROFILE_ENV,
    AtomProbe,
    ResourceProfiler,
    profiling_enabled,
    resource_summary,
)
from repro.core.observability.spans import (
    KIND_EXECUTOR,
    KIND_MOVEMENT,
    KIND_OPTIMIZER,
    KIND_PLATFORM,
    KIND_STORAGE,
    KIND_TASK,
    NULL_SPAN,
    Span,
    SpanEvent,
    Tracer,
    maybe_span,
)

__all__ = [
    "AtomProbe",
    "BYTE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "KIND_EXECUTOR",
    "KIND_MOVEMENT",
    "KIND_OPTIMIZER",
    "KIND_PLATFORM",
    "KIND_STORAGE",
    "KIND_TASK",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROFILE_ENV",
    "ResourceProfiler",
    "Span",
    "SpanEvent",
    "TraceDiff",
    "Tracer",
    "diff_files",
    "diff_traces",
    "load_records",
    "maybe_span",
    "profiling_enabled",
    "render_diff",
    "prometheus_text",
    "set_build_info",
    "render_flamegraph",
    "resource_summary",
    "span_records",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
