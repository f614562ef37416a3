"""Tests for the broadcast-join variant and cardinality feedback."""

import pytest

from repro import CostHints, RheemContext
from repro.core.metrics import CardinalityMisestimate
from repro.core.physical.operators import PBroadcastJoin


def committed_join_kind(ctx, left_data, right_data, platform="spark"):
    handle = ctx.collection(left_data).join(
        ctx.collection(right_data), lambda t: t[0], lambda t: t[0]
    )
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical, forced_platform=platform)
    return next(
        op.kind
        for atom in execution.atoms
        for op in atom.fragment
        if op.kind.startswith("join.")
    )


class TestBroadcastJoin:
    def test_variant_registered_as_join_alternate(self, ctx):
        handle = ctx.collection([(1, 2)]).join(
            ctx.collection([(1, 3)]), lambda t: t[0], lambda t: t[0]
        )
        physical = ctx.app_optimizer.optimize(handle.plan)
        join_op = next(
            op for op in physical.graph if op.kind.startswith("join.")
        )
        kinds = {join_op.kind} | {alt.kind for alt in join_op.alternates}
        assert "join.broadcast" in kinds

    def test_optimizer_broadcasts_small_side_on_spark(self, ctx):
        big = [(i % 997, i) for i in range(30_000)]
        small = [(k, f"d{k}") for k in range(20)]
        assert committed_join_kind(ctx, big, small) == "join.broadcast"

    def test_optimizer_shuffles_balanced_sides_on_spark(self, ctx):
        big = [(i % 997, i) for i in range(30_000)]
        assert committed_join_kind(ctx, big, list(big)) == "join.hash"

    @pytest.mark.parametrize("platform", ["java", "spark", "postgres"])
    def test_results_match_hash_join(self, platform):
        ctx = RheemContext()
        left = [(i % 7, i) for i in range(60)]
        right = [(k, f"r{k}") for k in range(7)]

        def run(force_broadcast):
            from repro.core.logical.operators import CollectSink

            handle = ctx.collection(left).join(
                ctx.collection(right), lambda t: t[0], lambda t: t[0]
            )
            handle.plan.add(CollectSink(), [handle.operator])
            physical = ctx.app_optimizer.optimize(handle.plan)
            join_op = next(
                op for op in physical.graph if op.kind.startswith("join.")
            )
            if force_broadcast and not isinstance(join_op, PBroadcastJoin):
                variant = next(
                    alt for alt in join_op.alternates
                    if isinstance(alt, PBroadcastJoin)
                )
                physical.graph.relabel(
                    (op, variant if op is join_op else op) for op in physical.graph
                )
                variant.alternates = []
            else:
                join_op.alternates = []
            execution = ctx.task_optimizer.optimize(
                physical, forced_platform=platform
            )
            return sorted(ctx.executor.execute(execution).single)

        assert run(True) == run(False)


class TestCardinalityFeedback:
    def test_bad_selectivity_hint_reported(self, ctx):
        _, metrics = (
            ctx.collection(range(1000))
            .filter(lambda x: True, hints=CostHints(selectivity=0.001))
            .collect_with_metrics(platform="java")
        )
        assert metrics.misestimates
        report = metrics.misestimates[0]
        assert report.observed == 1000
        assert report.factor >= 4.0

    def test_accurate_hint_not_reported(self, ctx):
        _, metrics = (
            ctx.collection(range(1000))
            .filter(lambda x: True, hints=CostHints(selectivity=1.0))
            .collect_with_metrics(platform="java")
        )
        assert metrics.misestimates == []

    def test_underestimate_and_overestimate_both_flagged(self, ctx):
        _, over = (
            ctx.collection(range(1000))
            .filter(lambda x: False, hints=CostHints(selectivity=1.0))
            .collect_with_metrics(platform="java")
        )
        assert over.misestimates
        assert over.misestimates[0].observed == 0

    def test_factor_semantics(self):
        assert CardinalityMisestimate(1, 10.0, 100).factor == pytest.approx(10)
        assert CardinalityMisestimate(1, 100.0, 10).factor == pytest.approx(10)
        assert CardinalityMisestimate(1, 0.0, 0).factor == 1.0
        assert CardinalityMisestimate(1, 5.0, 0).factor == float("inf")
