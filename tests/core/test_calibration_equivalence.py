"""Property-style equivalence: calibration off vs cold-store on.

Calibration must be a pure *learning* layer: until the store has
evidence, attaching it may not move a single estimate, plan choice, or
ledger charge.  For every seeded workload here, outputs, the virtual
bill, and the full ledger entry sequence are identical between a plain
context and a ``calibrate=True`` context with a cold store.  Mirrors
the data-path suite's ``(label, ms, platform)`` bill comparison (atom ids are process-global, so labels are compared
positionally).
"""

from __future__ import annotations

from operator import itemgetter

import pytest

from repro import CostHints, RheemContext
from repro.core.logical.operators import CollectSink
from repro.core.optimizer.calibration import CalibrationStore

KEY = itemgetter(0)

WORDS = [
    "freedom is the recognition of necessity",
    "the road to freedom is long",
    "freedom necessity freedom",
] * 5


def _bill(metrics):
    return [
        (entry.label, entry.ms, entry.platform)
        for entry in metrics.ledger.entries
    ]


def _wordcount(ctx):
    return (
        ctx.collection(WORDS)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .reduce_by(KEY, lambda a, b: (a[0], a[1] + b[1]))
        .sort(lambda kv: (-kv[1], kv[0]))
        .collect_with_metrics()
    )


def _filter_groupby(ctx):
    return (
        ctx.collection(range(2_000))
        .filter(lambda x: x % 3 == 0, hints=CostHints(selectivity=0.33))
        .map(lambda x: (x % 7, x))
        .group_by(KEY)
        .map(lambda kv: (kv[0], len(kv[1])))
        .sort(KEY)
        .collect_with_metrics()
    )


def _join(ctx):
    left = ctx.collection([(i, f"l{i}") for i in range(200)])
    right = ctx.collection([(i % 50, f"r{i}") for i in range(200)])
    return (
        left.join(right, KEY, KEY)
        .map(lambda pair: (pair[0][0], pair[1][1]))
        .sort(lambda kv: (kv[0], kv[1]))
        .collect_with_metrics()
    )


WORKLOADS = {
    "wordcount": _wordcount,
    "filter_groupby": _filter_groupby,
    "join": _join,
}


def skewed_logical_plan(ctx):
    dq = (
        ctx.collection(range(20_000))
        .filter(lambda x: True, hints=CostHints(selectivity=0.0001))
        .repeat(
            15,
            lambda s: s.map(lambda x: x + 1, hints=CostHints(udf_load=10.0)),
        )
    )
    dq.plan.add(CollectSink(), [dq.operator])
    return dq.plan


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cold_store_is_byte_identical(workload):
    """Criterion (a): plain vs calibrate=True-with-cold-store runs have
    identical outputs, virtual bills, and ledger entry sequences."""
    run = WORKLOADS[workload]
    out_plain, m_plain = run(RheemContext())
    ctx_cold = RheemContext(calibrate=True)
    out_cold, m_cold = run(ctx_cold)
    assert out_plain == out_cold
    assert m_plain.virtual_ms == m_cold.virtual_ms
    assert _bill(m_plain) == _bill(m_cold)
    # the cold store learned from the run (it records even while it
    # cannot yet correct) without perturbing it
    assert ctx_cold.calibration.sample_count() > 0


def test_adaptive_cold_store_matches_legacy_bill():
    """An adaptive run with a cold store attached and one with no store
    (calibration off) replan the seeded skewed plan identically: same
    outputs, same replan count, same ledger."""
    ctx_cold = RheemContext(calibrate=True)
    result_cold, replans_cold = ctx_cold.execute_adaptive(
        skewed_logical_plan(ctx_cold)
    )

    ctx_plain = RheemContext()
    result_plain, replans_plain = ctx_plain.execute_adaptive(
        skewed_logical_plan(ctx_plain)
    )
    assert replans_cold == replans_plain >= 1
    assert sorted(result_cold.single) == sorted(result_plain.single)
    assert (
        result_cold.metrics.virtual_ms == result_plain.metrics.virtual_ms
    )
    assert _bill(result_cold.metrics) == _bill(result_plain.metrics)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warm_store_preserves_outputs(workload):
    """Corrections may re-place operators but never change results."""
    run = WORKLOADS[workload]
    out_plain, _ = run(RheemContext())
    store = CalibrationStore()
    run(RheemContext(calibrate=store))  # learn
    out_warm, _ = run(RheemContext(calibrate=store))  # apply
    assert out_warm == out_plain


def test_cold_store_trace_shape_matches_plain():
    """Span names are identical plain vs cold store: the calibration
    span attributes only appear once corrections actually move an
    estimate."""
    from repro.core.observability import Tracer

    import re

    def spans(ctx, tracer):
        _wordcount(ctx)
        # atom ids are process-global; compare shapes, not counters
        return [re.sub(r"#\d+", "#N", span.name) for span in tracer.spans]

    tracer_plain = Tracer()
    tracer_cold = Tracer()
    names_plain = spans(RheemContext(tracer=tracer_plain), tracer_plain)
    names_cold = spans(
        RheemContext(calibrate=True, tracer=tracer_cold), tracer_cold
    )
    assert names_plain == names_cold
