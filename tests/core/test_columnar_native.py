"""Columnar-native batch kernels: eligibility, elision, fallbacks, costing.

The columnar-native data path hands packed column buffers straight to
eligible batch kernels instead of materialising rows at every consuming
hop.  These tests pin its contract:

* static eligibility introspection (itemgetter projections,
  single-column predicates, columnwise reducers) and the per-hop elide
  gate, including which loop-body operators consume a loop's state;
* native kernels are byte-identical to the row path, including the
  mid-chain fallbacks — overflowing sums, bool/ragged projections and
  other layout escapes fall back to rows without wrong answers;
* refcount release of a channel never pulls buffers out from under an
  elided batch still being consumed;
* the resource profiler's ``payload_bytes``/``channel_bytes`` stay
  exact on elided boundaries, at parallelism 1 and 4;
* ledger/epoch plumbing: zero-ms ``columnar.elide`` entries, a
  ``columnar_native`` config-epoch component.
"""

from __future__ import annotations

from operator import itemgetter
from types import SimpleNamespace

import pytest

from repro import RheemContext, Tracer
from repro.core.channels import ColumnarChannel
from repro.core.execution.plan import LoopAtom
from repro.core.physical import kernels
from repro.core.physical.columnar import (
    ColumnPredicate,
    ColumnwiseReduce,
    can_elide,
    key_column,
    loop_state_consumers,
    native_filter,
    native_keys,
    native_map,
    native_reduce_by,
    predicate_spec,
    projection_indices,
)
from repro.errors import ExecutionError

ROWS = [(i % 7, float(i % 5) * 0.5, i * 3, i % 11) for i in range(200)]


def make_batch(rows=None):
    channel = ColumnarChannel.from_rows(rows or ROWS, "java")
    assert channel is not None
    return channel.batch()


def run_pipeline(build, **ctx_kwargs):
    """Collect ``build(quanta)`` on java under the given context flags."""
    ctx = RheemContext(**ctx_kwargs)
    return build(ctx).collect(platform="java")


def _loop_execution(ctx, condition=None):
    """The optimized execution of an elide-eligible repeat pipeline."""
    from repro.core.logical.operators import CollectSink

    quanta = ctx.collection(list(ROWS), name="rows").repeat(
        2,
        lambda d: d.filter(ColumnPredicate(0, (6).__gt__)).map(
            itemgetter(3, 1, 2, 0)
        ),
        condition=condition,
    )
    sink = CollectSink()
    quanta._builder.plan.add(sink, [quanta._op])
    physical = ctx.app_optimizer.optimize(quanta._builder.plan)
    return ctx.task_optimizer.optimize(physical, forced_platform="java")


# ----------------------------------------------------------------------
# eligibility introspection
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_itemgetter_projection_indices(self):
        assert projection_indices(itemgetter(2)) == (2,)
        assert projection_indices(itemgetter(3, 1, 0)) == (3, 1, 0)
        assert projection_indices(itemgetter(-1, 0)) == (-1, 0)

    def test_non_projections_are_rejected(self):
        assert projection_indices(lambda t: t[0]) is None
        assert projection_indices(itemgetter("a")) is None
        assert projection_indices(itemgetter(0, "a")) is None

    def test_predicate_spec_variants(self):
        fn = (3).__lt__
        assert predicate_spec(ColumnPredicate(2, fn)) == (2, fn)
        # a bare itemgetter used as predicate means column truthiness
        assert predicate_spec(itemgetter(1)) == (1, None)
        assert predicate_spec(itemgetter(0, 1)) is None
        assert predicate_spec(lambda t: t[0] > 3) is None

    def test_key_column(self):
        assert key_column(itemgetter(0)) == 0
        assert key_column(itemgetter(1, 0)) is None
        assert key_column(lambda t: t[0]) is None

    def test_column_predicate_row_semantics(self):
        predicate = ColumnPredicate(1, (2.0).__gt__)  # 2.0 > value
        assert predicate((9, 1.5)) is True
        assert predicate((9, 3.5)) is False

    def test_columnwise_reduce_row_semantics(self):
        reducer = ColumnwiseReduce(("key", "sum", "min", "max"))
        assert reducer((1, 10, 5, 5), (9, 3, 2, 7)) == (1, 13, 2, 7)

    def test_columnwise_reduce_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown columnwise combine"):
            ColumnwiseReduce(("key", "mean"))


# ----------------------------------------------------------------------
# the elide gate
# ----------------------------------------------------------------------
class TestElideGate:
    def test_map_projection_elides(self):
        op = SimpleNamespace(kind="map", udf=itemgetter(1, 0))
        assert can_elide(op, 0, width=4, scalar=False)
        assert not can_elide(op, 0, width=4, scalar=True)
        assert not can_elide(op, 0, width=1, scalar=False)  # out of range

    def test_map_lambda_does_not_elide(self):
        op = SimpleNamespace(kind="map", udf=lambda t: t[0])
        assert not can_elide(op, 0, width=4, scalar=False)

    def test_filter_single_column_elides(self):
        op = SimpleNamespace(
            kind="filter", predicate=ColumnPredicate(3, (1).__le__)
        )
        assert can_elide(op, 0, width=4, scalar=False)
        assert not can_elide(op, 0, width=3, scalar=False)  # out of range

    def test_reduceby_key_column_elides(self):
        op = SimpleNamespace(
            kind="reduceby.hash", key=itemgetter(0), reducer=None
        )
        assert can_elide(op, 0, width=4, scalar=False)
        op.key = lambda t: t[0]
        assert not can_elide(op, 0, width=4, scalar=False)

    def test_global_reduce_needs_scalar_layout(self):
        op = SimpleNamespace(kind="reduce.global")
        assert can_elide(op, 0, width=1, scalar=True)
        assert not can_elide(op, 0, width=2, scalar=False)

    def test_join_checks_the_consuming_slot(self):
        op = SimpleNamespace(
            kind="join.hash", left_key=itemgetter(0), right_key=lambda t: t[0]
        )
        assert can_elide(op, 0, width=2, scalar=False)
        assert not can_elide(op, 1, width=2, scalar=False)

    def test_unknown_kind_never_elides(self):
        op = SimpleNamespace(kind="sort")
        assert not can_elide(op, 0, width=4, scalar=False)

    def test_loop_state_consumers_finds_the_body_head(self):
        execution = _loop_execution(RheemContext())
        (loop,) = [a for a in execution.atoms if isinstance(a, LoopAtom)]
        consumers = loop_state_consumers(loop)
        assert consumers is not None and len(consumers) == 1
        op, slot = consumers[0]
        assert op.kind in ("filter", "fused.narrow") and slot == 0

    def test_loop_condition_keeps_state_in_rows(self):
        execution = _loop_execution(
            RheemContext(), condition=lambda state: not state
        )
        (loop,) = [a for a in execution.atoms if isinstance(a, LoopAtom)]
        assert loop_state_consumers(loop) is None


# ----------------------------------------------------------------------
# native kernels == row kernels
# ----------------------------------------------------------------------
class TestNativeKernels:
    def test_native_map_matches_row_projection(self):
        batch = make_batch()
        out = native_map(itemgetter(3, 1), batch)
        assert out is not None
        assert out.rows() == [itemgetter(3, 1)(r) for r in ROWS]

    def test_native_map_single_index_is_scalar(self):
        batch = make_batch()
        out = native_map(itemgetter(2), batch)
        assert out is not None and out.scalar
        assert list(out) == [r[2] for r in ROWS]

    def test_native_map_zero_copy_when_compiled(self):
        batch = make_batch()
        out = native_map(itemgetter(1, 3), batch)
        assert out.columns[0] is batch.columns[1]

    def test_native_map_rejects_non_projection(self):
        assert native_map(lambda t: t[0], make_batch()) is None
        assert native_map(itemgetter(9), make_batch()) is None

    def test_native_filter_matches_row_filter(self):
        batch = make_batch()
        predicate = ColumnPredicate(0, (3).__gt__)  # keep col0 < 3
        out = native_filter(predicate, batch)
        assert out is not None
        assert out.rows() == [r for r in ROWS if predicate(r)]

    def test_native_filter_truthiness_predicate(self):
        batch = make_batch()
        out = native_filter(itemgetter(0), batch)
        assert out is not None
        assert out.rows() == [r for r in ROWS if r[0]]

    def test_native_reduce_by_matches_row_kernel(self):
        key = itemgetter(0)
        reducer = ColumnwiseReduce(("key", "sum", "sum", "min"))
        out = native_reduce_by(make_batch(), key, reducer)
        assert out is not None
        expected = kernels.hash_reduce_by(list(ROWS), key, reducer)
        assert list(out) == list(expected)

    def test_native_reduce_by_requires_declared_reducer(self):
        out = native_reduce_by(
            make_batch(), itemgetter(0), lambda a, b: a
        )
        assert out is None

    def test_native_reduce_by_overflow_falls_back_to_rows(self):
        # int64-packed inputs whose sum escapes int64: the sweep keeps
        # exact Python ints and returns row tuples (a batch could not
        # hold them), never a wrong answer
        big = 2**62
        rows = [(0, big), (0, big), (1, 5)]
        out = native_reduce_by(
            make_batch(rows), itemgetter(0), ColumnwiseReduce(("key", "sum"))
        )
        assert isinstance(out, list)
        assert out == kernels.hash_reduce_by(
            rows, itemgetter(0), ColumnwiseReduce(("key", "sum"))
        )
        assert out[0] == (0, 2 * big)

    def test_native_keys_reads_the_buffer(self):
        batch = make_batch()
        built = native_keys(batch, itemgetter(0))
        assert built is not None
        keys, rows = built
        assert keys is batch.columns[0]
        assert rows == list(ROWS)
        assert native_keys(batch, itemgetter(0, 1)) is None
        assert native_keys(list(ROWS), itemgetter(0)) is None


# ----------------------------------------------------------------------
# mid-chain fallbacks, end to end: never a wrong answer
# ----------------------------------------------------------------------
class TestMidChainFallback:
    def _both_modes(self, build):
        native = run_pipeline(build, columnar=True, columnar_native=True)
        plain = run_pipeline(build, columnar=False)
        assert native == plain
        return native

    def test_bool_projection_mid_chain(self):
        # the lambda yields bool columns — ineligible for packing; the
        # chain must degrade to rows with identical outputs
        def build(ctx):
            return (
                ctx.collection(list(ROWS))
                .map(itemgetter(3, 0))
                .map(lambda t: (t[0] > 5, t[1]))
                .filter(itemgetter(0))
            )

        out = self._both_modes(build)
        assert out and all(type(flag) is bool for flag, _ in out)

    def test_ragged_projection_mid_chain(self):
        # ragged widths cannot pack; fallback keeps exact row shapes
        def build(ctx):
            return (
                ctx.collection(list(ROWS))
                .map(lambda t: t[:1] if t[0] % 2 else t[:3])
                .map(lambda t: (len(t), t[0]))
            )

        self._both_modes(build)

    def test_overflowing_sum_mid_chain(self):
        big = 2**62

        def build(ctx):
            return (
                ctx.collection([(i % 3, big) for i in range(12)])
                .reduce_by(
                    key=itemgetter(0),
                    reducer=ColumnwiseReduce(("key", "sum")),
                )
                .map(itemgetter(1))
            )

        out = self._both_modes(build)
        assert sorted(out) == [4 * big] * 3

    def test_elided_loop_with_ineligible_tail(self):
        # the loop state elides; the tail lambda then needs rows — the
        # batch's sequence protocol serves them transparently
        def build(ctx):
            return (
                ctx.collection(list(ROWS))
                .repeat(
                    2,
                    lambda d: d.filter(ColumnPredicate(0, (6).__gt__)).map(
                        itemgetter(3, 1, 2, 0)
                    ),
                )
                .map(lambda t: (t[0] + t[3], t[1]))
            )

        self._both_modes(build)


# ----------------------------------------------------------------------
# refcounting: releasing a channel must not gut a live batch
# ----------------------------------------------------------------------
class TestElidedBufferRelease:
    def test_batch_survives_channel_release(self):
        channel = ColumnarChannel.from_rows(list(ROWS), "java")
        batch = channel.batch()
        channel.release()
        assert channel.released
        assert channel.payload_bytes() == 0
        assert len(channel) == len(ROWS)  # cardinality is kept
        # the elided view holds its own buffer references
        assert batch.rows() == list(ROWS)

    def test_batch_after_release_is_a_loud_error(self):
        channel = ColumnarChannel.from_rows(list(ROWS), "java")
        channel.release()
        with pytest.raises(ExecutionError, match="released"):
            channel.batch()

    def test_release_is_idempotent_with_live_batch(self):
        channel = ColumnarChannel.from_rows(list(ROWS), "java")
        batch = channel.batch()
        channel.release()
        channel.release()
        assert batch[0] == ROWS[0]

    def test_refcounted_native_run_matches_plain(self):
        # end to end: the executor's channel refcounting releases the
        # loop-state channels while elided batches are in flight
        def build(ctx):
            return ctx.collection(list(ROWS)).repeat(
                3,
                lambda d: d.filter(ColumnPredicate(0, (6).__gt__)).map(
                    itemgetter(3, 1, 2, 0)
                ),
            )

        native = run_pipeline(build, columnar=True, columnar_native=True)
        plain = run_pipeline(build, columnar=False)
        assert native == plain


# ----------------------------------------------------------------------
# ledger: elide entries are explicit, zero-cost, and the only delta
# ----------------------------------------------------------------------
class TestElideLedger:
    @staticmethod
    def _run(columnar_native):
        ctx = RheemContext(columnar=True, columnar_native=columnar_native)
        return (
            ctx.collection(list(ROWS))
            .repeat(
                2,
                lambda d: d.filter(ColumnPredicate(0, (6).__gt__)).map(
                    itemgetter(3, 1, 2, 0)
                ),
            )
            .collect_with_metrics()
        )

    def test_native_ledger_is_egest_plus_zero_ms_elides(self):
        native_out, native_metrics = self._run(True)
        egest_out, egest_metrics = self._run(False)
        assert native_out == egest_out
        assert native_metrics.virtual_ms == egest_metrics.virtual_ms

        def entries(metrics, drop_elide=False):
            return [
                (e.label, e.ms, e.platform)
                for e in metrics.ledger.entries
                if not (drop_elide and e.label == "columnar.elide")
            ]

        elides = [
            e for e in native_metrics.ledger.entries
            if e.label == "columnar.elide"
        ]
        assert elides, "native run recorded no columnar.elide entries"
        assert all(e.ms == 0.0 for e in elides)
        assert entries(native_metrics, drop_elide=True) == entries(
            egest_metrics
        )
        # the virtual egest price is still charged at elided boundaries
        assert len(
            [e for e in native_metrics.ledger.entries
             if e.label == "columnar.egest"]
        ) == len(
            [e for e in egest_metrics.ledger.entries
             if e.label == "columnar.egest"]
        )


# ----------------------------------------------------------------------
# resource profiler: exact bytes on elided boundaries, parallelism 1 & 4
# ----------------------------------------------------------------------
class TestProfiledElision:
    N = 300
    #: every hand-off in the loop pipeline below is width 2, int64 —
    #: the filter keeps all rows, the map is a permutation, so every
    #: columnar channel holds exactly 2 * 8 * N buffer bytes
    EXACT_BYTES = 2 * 8 * N

    def _profiled_run(self, parallelism, columnar_native):
        tracer = Tracer()
        ctx = RheemContext(
            profile=True,
            columnar=True,
            columnar_native=columnar_native,
            parallelism=parallelism,
            tracer=tracer,
        )
        out, metrics = (
            ctx.collection([(i, i * 3) for i in range(self.N)])
            .repeat(
                2,
                lambda d: d.filter(ColumnPredicate(0, (-1).__lt__)).map(
                    itemgetter(1, 0)
                ),
            )
            .collect_with_metrics()
        )
        return tracer, out, metrics

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_channel_bytes_exact_on_elided_boundaries(
        self, parallelism, monkeypatch
    ):
        from repro.core.executor import Executor
        from repro.core.observability.resources import ResourceProfiler

        made = []
        orig_make = Executor._make_channel

        def spy_make(self, op_id, data, atom, metrics):
            channel = orig_make(self, op_id, data, atom, metrics)
            made.append((type(channel).__name__, channel.payload_bytes()))
            return channel

        recorded = []
        orig_record = ResourceProfiler.record_channel

        def spy_record(self, probe, nbytes, registry, platform):
            recorded.append(nbytes)
            return orig_record(self, probe, nbytes, registry, platform)

        monkeypatch.setattr(Executor, "_make_channel", spy_make)
        monkeypatch.setattr(ResourceProfiler, "record_channel", spy_record)

        tracer, out, metrics = self._profiled_run(parallelism, True)
        assert out == [(i, i * 3) for i in range(self.N)]
        elided = [
            s for s in tracer.spans
            if s.attributes.get("columnar_elided")
        ]
        assert elided, "profiled native run recorded no elisions"

        # every columnar hand-off carries *exact* buffer arithmetic
        # (2 int64 columns of N rows), not a sampled estimate — elided
        # or not, the packed payload is what gets sized
        columnar = [b for kind, b in made if kind == "ColumnarChannel"]
        assert columnar and all(b == self.EXACT_BYTES for b in columnar)

        # the recorded figures are those exact payload_bytes values
        # (the one sampled estimate is the plain collect-sink hand-off)
        assert recorded
        assert recorded.count(self.EXACT_BYTES) >= len(recorded) - 1

        hist = metrics.registry.histogram("channel_bytes")
        total = sum(series.total for series in hist.series.values())
        assert total == sum(recorded)
        atoms = [s for s in tracer.spans if s.name.startswith("atom#")]
        assert total == sum(s.attributes["channel_bytes"] for s in atoms)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_elision_does_not_change_recorded_bytes(self, parallelism):
        _, native_out, native_metrics = self._profiled_run(parallelism, True)
        _, egest_out, egest_metrics = self._profiled_run(parallelism, False)
        assert native_out == egest_out

        def totals(metrics):
            hist = metrics.registry.histogram("channel_bytes")
            return (
                sum(series.n for series in hist.series.values()),
                sum(series.total for series in hist.series.values()),
            )

        assert totals(native_metrics) == totals(egest_metrics)


# ----------------------------------------------------------------------
# config epoch + env flag
# ----------------------------------------------------------------------
class TestNativeConfig:
    def test_config_epoch_gains_native_component(self):
        from repro.core.recovery import config_epoch

        base = config_epoch(columnar=True)
        native = config_epoch(columnar=True, columnar_native=True)
        assert base != native

    def test_native_without_columnar_is_inert(self):
        from repro.core.recovery import config_epoch

        assert config_epoch(columnar=False, columnar_native=True) == (
            config_epoch(columnar=False)
        )

    def test_env_default_is_on_with_columnar(self):
        assert RheemContext(columnar=True).executor.columnar_native is True
