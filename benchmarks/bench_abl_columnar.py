"""ABL12 — columnar-native batch kernels (elided egest vs packed egest).

PR 4's columnar transport packs numeric channel payloads into
struct-of-arrays ``array`` buffers but still materialises row tuples at
every consuming hop (``columnar.egest``).  The columnar-native data path
(``repro.core.physical.columnar``) hands the packed buffers straight to
eligible batch kernels — itemgetter projections, single-column predicate
filters, columnwise reduce sweeps — and records the skipped
materialisation as an explicit zero-cost ``columnar.elide`` ledger
entry.  This ablation pins down the contract on a wide numeric
repeat-loop chain:

* **identical everything but the clock** — outputs and ``virtual_ms``
  are byte-identical across native / packed-egest / row modes, and
  the native ledger equals the egest ledger once the zero-ms
  ``columnar.elide`` entries are dropped (the virtual
  ``columnar.egest`` price is still charged; only the real work moves);
* **real wall-clock win over packed egest only** — eliding the per-hop
  row materialisation is ≥1.5x faster than packed egest at full scale
  (≥1.2x quick); the default row path (``wall_ms_rows``, columnar
  transport off) is recorded beside both as the "don't use the feature"
  alternative.
"""

from __future__ import annotations

import time
from operator import itemgetter

from benchmarks.harness import (
    maybe_resources,
    ms,
    pick,
    ratio,
    record_bench,
    record_table,
)
from repro.core.executor import Executor
from repro.core.logical.operators import CollectSink
from repro.core.physical.columnar import ColumnPredicate

#: quanta in the source collection
ROWS = pick(400_000, 40_000)
#: timing repetitions per mode (best-of, to shrug off scheduler noise)
REPS = pick(5, 3)
#: required native/packed-egest wall speedup
FLOOR = pick(1.5, 1.2)
#: repeat-loop trips (each trip adds one elidable loop-state boundary)
TRIPS = 4

_PROJECT = itemgetter(3, 1, 2, 0)
_KEEP = ColumnPredicate(0, (5_000).__gt__)  # keep rows whose col0 < 5000


def _make_execution():
    """A columnar-eligible java plan: repeat loop of filter + project.

    Every row is a flat numeric tuple, the predicate reads a single
    column and the projection is a pure ``itemgetter`` permutation, so
    with columnar transport on, every loop-state hand-off is elidable;
    the packed-egest mode pays a real row materialisation per trip for
    exactly the same answers.
    """
    from repro.core.context import RheemContext

    rows = [
        (i % 9973, (i * 31) % 10007 * 0.5, float(i % 7), i % 11)
        for i in range(ROWS)
    ]
    ctx = RheemContext()
    quanta = ctx.collection(rows, name="rows").repeat(
        TRIPS,
        lambda d: d.filter(_KEEP, name="keep-low").map(
            _PROJECT, name="rotate"
        ),
    )
    sink = CollectSink()
    quanta._builder.plan.add(sink, [quanta._op])
    physical = ctx.app_optimizer.optimize(quanta._builder.plan)
    return ctx.task_optimizer.optimize(physical, forced_platform="java")


def _best_of(execution, reps: int, **executor_kwargs):
    """Execute ``reps`` times; return (last result, best wall seconds)."""
    best = None
    result = None
    for _ in range(reps):
        executor = Executor(**executor_kwargs)
        started = time.perf_counter()
        result = executor.execute(execution)
        wall = time.perf_counter() - started
        best = wall if best is None or wall < best else best
    return result, best


def _ledger_sequence(result, *, drop_elide: bool = False):
    """The bill as comparable tuples (same execution => same atom ids)."""
    return [
        (entry.label, entry.ms, entry.platform, entry.atom_id)
        for entry in result.metrics.ledger.entries
        if not (drop_elide and entry.label == "columnar.elide")
    ]


def test_abl12_columnar_native():
    execution = _make_execution()
    _best_of(execution, 1, columnar=True)  # warm caches and allocator
    native_result, native_wall = _best_of(
        execution, REPS, columnar=True, columnar_native=True
    )
    egest_result, egest_wall = _best_of(
        execution, REPS, columnar=True, columnar_native=False
    )
    row_result, row_wall = _best_of(execution, REPS, columnar=False)

    speedup = egest_wall / native_wall
    metrics = native_result.metrics
    elide_entries = [
        entry for entry in metrics.ledger.entries
        if entry.label == "columnar.elide"
    ]
    identical = (
        native_result.outputs == egest_result.outputs
        and native_result.outputs == row_result.outputs
        and metrics.virtual_ms == egest_result.metrics.virtual_ms
        and _ledger_sequence(native_result, drop_elide=True)
        == _ledger_sequence(egest_result)
    )

    table = record_table(
        "ABL12",
        f"columnar-native kernels — {ROWS} rows through a {TRIPS}-trip "
        "filter+project repeat loop, java, parallelism 1",
        ["mode", "wall", "speedup", "virtual time", "elides", "identical"],
    )
    flag = "yes" if identical else "NO!"
    table.rows.append(
        ["rows (default)", ms(row_wall * 1000.0),
         ratio(egest_wall, row_wall),
         ms(row_result.metrics.virtual_ms), "-", flag])
    table.rows.append(
        ["packed egest", ms(egest_wall * 1000.0), "1.0x",
         ms(egest_result.metrics.virtual_ms), "0", flag])
    table.rows.append(
        ["columnar native", ms(native_wall * 1000.0),
         ratio(egest_wall, native_wall),
         ms(metrics.virtual_ms), str(len(elide_entries)), flag])
    table.notes.append(
        "identical = outputs match across all three modes, native and "
        "egest virtual bills match, and the native ledger equals the "
        "egest ledger minus its zero-ms columnar.elide entries"
    )
    record_bench(
        "ABL12",
        rows=ROWS,
        reps=REPS,
        trips=TRIPS,
        wall_ms_native=native_wall * 1000.0,
        wall_ms_egest=egest_wall * 1000.0,
        wall_ms_rows=row_wall * 1000.0,
        virtual_ms=metrics.virtual_ms,
        makespan_ms=metrics.makespan_ms,
        elide_entries=len(elide_entries),
        speedup=speedup,
        speedup_floor=FLOOR,
        identical=identical,
        **maybe_resources(metrics),
    )

    # the determinism contract: everything but the clock is identical
    assert native_result.outputs == egest_result.outputs
    assert native_result.outputs == row_result.outputs
    assert metrics.virtual_ms == egest_result.metrics.virtual_ms
    assert _ledger_sequence(native_result, drop_elide=True) == (
        _ledger_sequence(egest_result)
    )
    assert elide_entries, "no columnar.elide entries — elision did not engage"
    assert all(entry.ms == 0.0 for entry in elide_entries)
    assert speedup >= FLOOR, (
        f"expected >={FLOOR}x native-vs-egest wall speedup at "
        f"parallelism 1, got {speedup:.2f}x "
        f"({native_wall * 1000:.1f}ms vs {egest_wall * 1000:.1f}ms)"
    )


def test_abl12_columnar_spans_present():
    """A traced native run advertises its elisions and columnar kernels."""
    from repro import Tracer
    from repro.core.context import RheemContext

    ctx = RheemContext(columnar=True, columnar_native=True)
    tracer = Tracer()
    ctx.attach_tracer(tracer)
    out = (
        ctx.collection([(i % 97, float(i % 11), i % 7, i % 5)
                        for i in range(4_000)])
        .repeat(2, lambda d: d.filter(_KEEP).map(_PROJECT))
        .collect(platform="java")
    )
    assert out  # the pipeline ran
    elided = [
        span for span in tracer.spans
        if span.attributes.get("columnar_elided")
    ]
    assert elided, "no span carried columnar_elided — elision did not engage"
    batch = {
        span.attributes.get("batch_kernel")
        for span in tracer.spans
        if span.attributes.get("batch_kernel")
    }
    assert {"filter.columnar", "map.columnar"} <= batch, (
        f"columnar-native kernels did not run (saw {sorted(batch)})"
    )
