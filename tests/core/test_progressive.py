"""Tests for progressive (adaptive) re-optimization."""

import pytest

from repro import CostHints
from repro.core.logical.operators import CollectSink
from repro.core.progressive import ProgressiveExecutor
from repro.core.replan import remainder_plan


def misestimated_loop_plan(ctx, rows=20_000, iterations=15):
    """A filter hinted as ultra-selective (but keeping everything) feeding
    an iterative tail: the initial platform choice for the loop is based
    on a cardinality that is wrong by four orders of magnitude."""
    dq = (
        ctx.collection(range(rows))
        .filter(lambda x: True, hints=CostHints(selectivity=0.0001))
        .repeat(
            iterations,
            lambda s: s.map(lambda x: x + 1, hints=CostHints(udf_load=10.0)),
        )
    )
    dq.plan.add(CollectSink(), [dq.operator])
    return ctx.app_optimizer.optimize(dq.plan)


class TestProgressiveExecution:
    def test_replans_on_gross_misestimate(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        result, replans = progressive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert replans >= 1
        assert len(result.single) == 20_000

    def test_results_match_non_adaptive(self, ctx):
        execution = ctx.task_optimizer.optimize(misestimated_loop_plan(ctx))
        plain = ctx.executor.execute(execution)
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        adaptive, _ = progressive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert sorted(adaptive.single) == sorted(plain.single)

    def test_adaptive_cheaper_when_misplacement_is_costly(self, ctx):
        """At a scale where the iterative tail belongs on the cluster,
        placing it by the (wrong) estimate is expensive; the replan moves
        it and wins despite the replan charge."""
        big = lambda: misestimated_loop_plan(ctx, rows=40_000, iterations=25)  # noqa: E731
        execution = ctx.task_optimizer.optimize(big())
        plain = ctx.executor.execute(execution)
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        adaptive, replans = progressive.execute_progressively(big())
        assert replans >= 1
        assert adaptive.metrics.virtual_ms < plain.metrics.virtual_ms
        # the replanned tail landed on a different platform
        assert set(adaptive.metrics.by_platform()) != set(
            plain.metrics.by_platform()
        )

    def test_accurate_estimates_no_replans(self, ctx):
        dq = ctx.collection(range(100)).map(lambda x: x + 1)
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        result, replans = progressive.execute_progressively(physical)
        assert replans == 0
        assert result.single == list(range(1, 101))

    def test_max_replans_bounds_rounds(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer, max_replans=0)
        result, replans = progressive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert replans == 0
        assert len(result.single) == 20_000

    def test_startup_charged_once_across_rounds(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        result, replans = progressive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert replans >= 1
        startups = [
            e for e in result.metrics.ledger.entries if e.label == "startup"
        ]
        platforms = [e.platform for e in startups]
        assert len(platforms) == len(set(platforms))

    def test_forced_platform_respected_across_replans(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        result, _ = progressive.execute_progressively(
            misestimated_loop_plan(ctx), forced_platform="java"
        )
        assert set(result.metrics.by_platform()) == {"java"}

    def test_context_convenience_api(self, ctx):
        dq = (
            ctx.collection(range(5_000))
            .filter(lambda x: True, hints=CostHints(selectivity=0.0001))
            .repeat(5, lambda s: s.map(lambda x: x + 1))
        )
        sink = CollectSink()
        dq.plan.add(sink, [dq.operator])
        result, replans = ctx.execute_adaptive(dq.plan)
        assert len(result.single) == 5_000
        assert replans >= 0


class TestRemainderPlan:
    def test_executed_producers_become_sources(self, ctx):
        dq = ctx.collection(range(10)).map(lambda x: x + 1).map(lambda x: -x)
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        ops = physical.graph.topological_order()
        # pretend the source and the first map already ran
        executed = {ops[0].id, ops[1].id}
        from repro.core.channels import CollectionChannel

        channels = {ops[1].id: CollectionChannel(list(range(1, 11)), "java")}
        remainder = remainder_plan(physical, executed, channels)
        kinds = [op.kind for op in remainder.graph.topological_order()]
        assert kinds[0] == "source.collection"
        assert len(remainder.graph) == len(ops) - 2 + 1
        remainder.graph.validate()

    def test_missing_channel_raises(self, ctx):
        from repro.errors import ExecutionError

        dq = ctx.collection(range(3)).map(lambda x: x)
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        ops = physical.graph.topological_order()
        with pytest.raises(ExecutionError, match="no channel"):
            remainder_plan(physical, {ops[0].id}, {})
