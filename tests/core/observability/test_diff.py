"""Trace diffing: structural alignment of two span logs.

Covers the alignment rules (``#<digits>`` normalisation, identity-attr
whitelist, occurrence indexing), the reported deltas (per-layer totals,
span moves, movement hops, candidate flips), the renderer, and the
``repro trace-diff`` CLI wiring — both on synthetic records and on real
traces exported from two runs of the same workload.
"""

from __future__ import annotations

import json
from operator import itemgetter

import pytest

from repro import RheemContext
from repro.cli import main
from repro.core.observability import (
    diff_files,
    diff_traces,
    load_records,
    render_diff,
)
from repro.core.observability.diff import span_identity
from repro.errors import ValidationError


def _span(name, kind="executor", v_ms=1.0, v_self_ms=None, **attributes):
    return {
        "name": name,
        "kind": kind,
        "v_ms": v_ms,
        "v_self_ms": v_ms if v_self_ms is None else v_self_ms,
        "attributes": attributes,
    }


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
class TestLoadRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [_span("atom#3"), _span("atom#4")]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n\n",
            encoding="utf-8",
        )
        assert load_records(str(path)) == records

    def test_bad_json_is_a_validation_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=":2:"):
            load_records(str(path))

    def test_missing_name_is_a_validation_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "executor"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="missing 'name'"):
            load_records(str(path))


# ----------------------------------------------------------------------
# identity + alignment
# ----------------------------------------------------------------------
class TestAlignment:
    def test_numeric_ids_are_normalised(self):
        assert span_identity(_span("atom#12")) == span_identity(
            _span("atom#97")
        )

    def test_identity_attrs_distinguish(self):
        a = _span("atom#1", platform="java")
        b = _span("atom#1", platform="spark")
        assert span_identity(a) != span_identity(b)

    def test_outcome_attrs_do_not_distinguish(self):
        """``batch_kernel`` is what a run *did* — a row-path and a
        columnar trace of the same plan must still align."""
        a = _span("atom#1", platform="java", batch_kernel="fused.compiled")
        b = _span("atom#1", platform="java")
        assert span_identity(a) == span_identity(b)

    def test_repeated_spans_pair_by_occurrence(self):
        diff = diff_traces(
            [_span("atom#1", v_ms=1.0), _span("atom#2", v_ms=2.0)],
            [_span("atom#8", v_ms=1.0), _span("atom#9", v_ms=5.0)],
        )
        assert not diff.only_in_a and not diff.only_in_b
        assert [m.delta for m in diff.matched] == [3.0, 0.0]

    def test_unmatched_spans_are_reported(self):
        diff = diff_traces(
            [_span("atom#1"), _span("spill", kind="storage")],
            [_span("atom#1")],
        )
        assert [r["name"] for r in diff.only_in_a] == ["spill"]
        assert diff.only_in_b == []


# ----------------------------------------------------------------------
# deltas
# ----------------------------------------------------------------------
class TestDeltas:
    def test_layer_totals_sum_self_time(self):
        diff = diff_traces(
            [
                _span("a", kind="executor", v_self_ms=1.0),
                _span("b", kind="executor", v_self_ms=2.0),
                _span("c", kind="optimizer", v_self_ms=4.0),
            ],
            [_span("a", kind="executor", v_self_ms=8.0)],
        )
        assert diff.layer_totals_a == {"executor": 3.0, "optimizer": 4.0}
        assert diff.layer_totals_b == {"executor": 8.0}
        assert diff.total_a == 7.0
        assert diff.total_b == 8.0

    def test_matched_sorted_by_absolute_delta(self):
        diff = diff_traces(
            [_span("a", v_ms=1.0), _span("b", v_ms=10.0)],
            [_span("a", v_ms=2.0), _span("b", v_ms=4.0)],
        )
        assert [m.delta for m in diff.matched] == [-6.0, 1.0]

    def test_candidate_flip_and_winner_change(self):
        def candidates(java, spark):
            return [
                _span(
                    "candidate",
                    kind="optimizer",
                    platforms=["java"],
                    feasible=True,
                    estimated_cost_ms=java,
                ),
                _span(
                    "candidate",
                    kind="optimizer",
                    platforms=["spark"],
                    feasible=True,
                    estimated_cost_ms=spark,
                ),
            ]

        diff = diff_traces(candidates(1.0, 2.0), candidates(5.0, 2.0))
        assert len(diff.candidate_flips) == 1
        flip = diff.candidate_flips[0]
        assert {flip.first, flip.second} == {"java", "spark"}
        assert diff.winner_a == "java"
        assert diff.winner_b == "spark"

    def test_infeasible_candidates_are_ignored(self):
        records = [
            _span(
                "candidate",
                kind="optimizer",
                platforms=["java"],
                feasible=False,
                estimated_cost_ms=1.0,
            )
        ]
        diff = diff_traces(records, records)
        assert diff.winner_a is None and diff.winner_b is None


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRender:
    def test_identical_traces_render_no_differences(self):
        records = [_span("atom#1", platform="java")]
        text = render_diff(diff_traces(records, records))
        assert "no virtual-time differences" in text
        assert "<-- changed" not in text

    def test_changed_layers_and_moves_are_marked(self):
        diff = diff_traces(
            [_span("atom#1", v_ms=1.0)], [_span("atom#1", v_ms=3.0)]
        )
        text = render_diff(diff, label_a="before", label_b="after")
        assert "<-- changed" in text
        assert "biggest span moves" in text
        assert "+2.0000ms" in text

    def test_movement_hops_are_called_out(self):
        diff = diff_traces(
            [_span("atom#1")],
            [_span("atom#1"), _span("move.java->spark", kind="movement")],
        )
        text = render_diff(diff)
        assert "movement hops changed:" in text
        assert "+ added   movement/move.java->spark" in text

    def test_winner_change_is_rendered(self):
        a = [
            _span(
                "candidate",
                kind="optimizer",
                platforms=["java"],
                feasible=True,
                estimated_cost_ms=1.0,
            )
        ]
        b = [
            _span(
                "candidate",
                kind="optimizer",
                platforms=["spark"],
                feasible=True,
                estimated_cost_ms=1.0,
            )
        ]
        text = render_diff(diff_traces(a, b))
        assert "{java} -> {spark}" in text


# ----------------------------------------------------------------------
# end to end: real traces + CLI
# ----------------------------------------------------------------------
def _write_trace(path):
    from repro import Tracer
    from repro.core.observability import write_jsonl

    tracer = Tracer()
    ctx = RheemContext(tracer=tracer)
    (
        ctx.collection([(i % 3, i) for i in range(30)])
        .map(itemgetter(1, 0))
        .reduce_by(itemgetter(0), lambda x, y: (x[0], x[1] + y[1]))
        .sort(itemgetter(0))
        .collect_with_metrics(platform="java")
    )
    write_jsonl(tracer, str(path))


class TestEndToEnd:
    def test_two_runs_of_the_same_plan_align(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _write_trace(path_a)
        _write_trace(path_b)
        diff = diff_traces(
            load_records(str(path_a)), load_records(str(path_b))
        )
        assert not diff.only_in_a and not diff.only_in_b
        assert all(m.delta == 0.0 for m in diff.matched)
        text = diff_files(str(path_a), str(path_b))
        assert "no virtual-time differences" in text

    def test_cli_trace_diff(self, tmp_path, capsys):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _write_trace(path_a)
        _write_trace(path_b)
        assert main(["trace-diff", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "virtual time:" in out
        assert str(path_a) in out
