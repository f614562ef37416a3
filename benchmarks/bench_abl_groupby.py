"""ABL1 — physical-operator variants (paper §3.1, Example 2).

"RHEEM provides two different implementations for GroupBy: the
SortGroupBy (sort-based) and HashGroupBy (hash-based) operators from
which the optimizer of the core level will have to choose."

Measures both variants across key cardinalities on the in-process
platform, and verifies the multi-platform optimizer commits to the
cheaper one.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import ms, pick, record_bench, record_table
from repro import RheemContext
from repro.core.logical.operators import CollectionSource, CollectSink, GroupBy
from repro.core.logical.plan import LogicalPlan
from repro.core.physical.operators import PHashGroupBy, PSortGroupBy

SIZE = pick(200_000, 20_000)
KEY_COUNTS = pick([10, 1_000, 100_000], [10, 1_000])


def groupby_plan(data, key_count):
    plan = LogicalPlan()
    src = plan.add(CollectionSource(data))
    group = plan.add(GroupBy(lambda x: x % key_count), [src])
    plan.add(CollectSink(), [group])
    return plan, group


def run_variant(ctx, data, key_count, variant_class):
    plan, _ = groupby_plan(data, key_count)
    physical = ctx.app_optimizer.optimize(plan)
    group_op = next(
        op for op in physical.graph if op.kind.startswith("groupby.")
    )
    if not isinstance(group_op, variant_class):
        variant = next(
            alt for alt in group_op.alternates if isinstance(alt, variant_class)
        )
        physical.graph.relabel(
            (op, variant if op is group_op else op) for op in physical.graph
        )
        variant.alternates = []
    else:
        group_op.alternates = []
    execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
    result = ctx.executor.execute(execution)
    return result.metrics.virtual_ms


def test_abl1_hash_vs_sort_groupby(benchmark):
    ctx = RheemContext()
    table = record_table(
        "ABL1",
        f"HashGroupBy vs SortGroupBy on {SIZE} rows (java platform)",
        ["distinct keys", "HashGroupBy", "SortGroupBy", "optimizer picks"],
    )
    data = list(range(SIZE))
    sweep = []
    for key_count in KEY_COUNTS:
        hash_ms = run_variant(ctx, data, key_count, PHashGroupBy)
        sort_ms = run_variant(ctx, data, key_count, PSortGroupBy)

        plan, _ = groupby_plan(data, key_count)
        physical = ctx.app_optimizer.optimize(plan)
        execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
        chosen = next(
            op.kind
            for atom in execution.atoms
            for op in atom.fragment
            if op.kind.startswith("groupby.")
        )
        table.rows.append(
            [key_count, ms(hash_ms), ms(sort_ms), chosen.split(".")[1]]
        )
        cheaper = "groupby.hash" if hash_ms <= sort_ms else "groupby.sort"
        assert chosen == cheaper
        sweep.append(
            {"keys": key_count, "hash_ms": hash_ms, "sort_ms": sort_ms,
             "chosen": chosen, "chose_cheaper": chosen == cheaper}
        )
    table.notes.append(
        "the core-layer optimizer commits the cheaper variant (Example 2)"
    )
    record_bench(
        "ABL1",
        rows=SIZE,
        sweep=sweep,
        all_choices_cheapest=all(s["chose_cheaper"] for s in sweep),
    )

    small = list(range(5_000))
    benchmark.pedantic(
        lambda: run_variant(ctx, small, 100, PHashGroupBy),
        rounds=3, iterations=1,
    )
