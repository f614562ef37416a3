"""Exporter tests: Chrome trace, JSONL, Prometheus text, flamegraph."""

import json

import pytest

from repro.core.metrics import CostLedger
from repro.core.observability import (
    KIND_PLATFORM,
    MetricsRegistry,
    Tracer,
    prometheus_text,
    render_flamegraph,
    span_records,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture()
def traced():
    """A small hand-built trace: root -> (op, movement event)."""
    tracer = Tracer()
    ledger = CostLedger(tracer=tracer)
    with tracer.span("execute"):
        with tracer.span("atom#1", platform="java"):
            with tracer.span("op.map", KIND_PLATFORM, platform="java"):
                ledger.charge("op.map", 4.0, "java")
            tracer.event("retry", attempt=1)
            ledger.charge("overhead", 1.0, "java")
    return tracer


class TestChromeTrace:
    def test_document_shape(self, traced):
        doc = to_chrome_trace(traced)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace_id"] == traced.trace_id
        assert doc["otherData"]["virtual_total_ms"] == pytest.approx(5.0)
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_complete_events_on_virtual_timeline(self, traced):
        doc = to_chrome_trace(traced)
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        # 1 virtual ms = 1000 trace microseconds
        assert by_name["op.map"]["dur"] == pytest.approx(4000.0)
        assert by_name["execute"]["dur"] == pytest.approx(5000.0)
        # children fit inside parents on the timeline
        op = by_name["op.map"]
        parent = by_name["atom#1"]
        assert parent["ts"] <= op["ts"]
        assert op["ts"] + op["dur"] <= parent["ts"] + parent["dur"] + 1e-6

    def test_span_events_become_instants(self, traced):
        doc = to_chrome_trace(traced)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "retry"
        assert instants[0]["args"] == {"attempt": 1}

    def test_incomplete_spans_skipped(self):
        tracer = Tracer()
        tracer.start_span("open")
        doc = to_chrome_trace(tracer)
        assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_write_round_trips_through_json(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced, str(path))
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_non_json_attributes_are_stringified(self):
        tracer = Tracer()
        with tracer.span("s", obj=object(), seq=(1, 2)):
            pass
        doc = json.dumps(to_chrome_trace(tracer))
        assert "seq" in doc  # tuples become lists, objects become repr


class TestJsonl:
    def test_one_line_per_span(self, traced):
        text = to_jsonl(traced)
        lines = text.strip().split("\n")
        assert len(lines) == len(traced.spans) == 3
        rows = [json.loads(line) for line in lines]
        assert {row["name"] for row in rows} == {
            "execute", "atom#1", "op.map",
        }

    def test_records_carry_tree_and_clock_fields(self, traced):
        rows = span_records(traced)
        root = next(r for r in rows if r["parent_id"] is None)
        assert root["name"] == "execute"
        assert root["v_ms"] == pytest.approx(5.0)
        assert root["complete"] is True
        op = next(r for r in rows if r["name"] == "op.map")
        assert op["v_self_ms"] == pytest.approx(4.0)

    def test_write_jsonl(self, traced, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_jsonl(traced, str(path))
        assert len(path.read_text().strip().split("\n")) == 3


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("atoms_executed", "atoms run").inc(3)
        registry.counter("atoms_by_platform").inc(2, platform="java")
        registry.gauge("inflight").inc(1)
        text = prometheus_text(registry)
        assert "# HELP repro_atoms_executed atoms run" in text
        assert "# TYPE repro_atoms_executed counter" in text
        assert "repro_atoms_executed 3.0" in text
        assert 'repro_atoms_by_platform{platform="java"} 2.0' in text
        assert "# TYPE repro_inflight gauge" in text

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("ms", buckets=(1.0, 10.0))
        hist.observe(0.5, pair="a->b")
        hist.observe(1.0, pair="a->b")   # le="1.0" (closed upper bound)
        hist.observe(99.0, pair="a->b")
        text = prometheus_text(registry)
        assert 'repro_ms_bucket{pair="a->b",le="1.0"} 2' in text
        assert 'repro_ms_bucket{pair="a->b",le="10.0"} 2' in text
        assert 'repro_ms_bucket{pair="a->b",le="+Inf"} 3' in text
        assert 'repro_ms_sum{pair="a->b"} 100.5' in text
        assert 'repro_ms_count{pair="a->b"} 3' in text

    def test_metric_names_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("enumerator.candidates").inc()
        text = prometheus_text(registry)
        assert "repro_enumerator_candidates 1.0" in text


class TestFlamegraph:
    def test_empty_trace(self):
        assert render_flamegraph(Tracer()) == "(empty trace)"

    def test_tree_structure_and_percentages(self, traced):
        text = render_flamegraph(traced)
        lines = text.split("\n")
        assert lines[0].startswith("execute")
        assert "100.0%" in lines[0]
        assert any(
            line.strip().startswith("atom#1 [java]") for line in lines
        )
        op_line = next(line for line in lines if "op.map" in line)
        assert "80.0%" in op_line  # 4 of 5 virtual ms

    def test_min_virtual_ms_prunes_subtrees(self, traced):
        text = render_flamegraph(traced, min_virtual_ms=4.5)
        assert "op.map" not in text
        assert "execute" in text  # roots always render

    def test_bars_scale_with_fraction(self, traced):
        text = render_flamegraph(traced, width=10)
        root_line = text.split("\n")[0]
        assert "██████████" in root_line  # 100% -> full bar


class TestWorkerLanes:
    """Concurrent-scheduler spans (stamped with ``worker``) get their own
    Chrome-trace thread rows so parallel atoms render as parallel."""

    @pytest.fixture()
    def parallel_trace(self):
        tracer = Tracer()
        ledger = CostLedger(tracer=tracer)
        with tracer.span("execute"):
            with tracer.span("atom#1", platform="java", worker=0, slot=0):
                ledger.charge("op.map", 2.0, "java")
            with tracer.span("atom#2", platform="java", worker=1, slot=1):
                ledger.charge("op.map", 3.0, "java")
        return tracer

    def test_worker_spans_on_dedicated_tids(self, parallel_trace):
        doc = to_chrome_trace(parallel_trace)
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["atom#1"]["tid"] == 100
        assert by_name["atom#2"]["tid"] == 101
        assert by_name["execute"]["tid"] == 2  # executor layer row

    def test_worker_thread_name_metadata(self, parallel_trace):
        doc = to_chrome_trace(parallel_trace)
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[100] == "worker-0"
        assert names[101] == "worker-1"
        assert names[2] == "executor"

    def test_flamegraph_column_adapts_to_long_labels(self):
        tracer = Tracer()
        ledger = CostLedger(tracer=tracer)
        long_name = "atom#1." + "x" * 70
        with tracer.span("execute"):
            with tracer.span(long_name, platform="java", worker=3):
                ledger.charge("op.map", 1.0, "java")
        text = render_flamegraph(tracer)
        lines = text.split("\n")
        # the long label is not truncated, and every row still aligns
        label_line = next(line for line in lines if long_name in line)
        assert f"{long_name} [java] w3" in label_line
        columns = {line.rindex("%") for line in lines}
        assert len(columns) == 1
