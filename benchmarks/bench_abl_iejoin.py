"""ABL4 — IEJoin versus quadratic joins (paper §5, [20]).

"Lightning fast and space efficient inequality joins": the IEJoin
physical operator against the nested-loop theta join and the raw cross
product, as a function of relation size.  Both virtual and wall time are
reported — the algorithmic gap is real, not only modelled.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.harness import ms, pick, ratio, record_bench, record_table
from repro import RheemContext
from repro.apps.cleaning.iejoin import InequalityJoin, register_iejoin
from repro.core.physical.operators import PNestedLoopJoin
from repro.util.rng import make_rng

SIZES = pick([500, 2_000, 8_000], [300, 1_000])


def dataset(n, seed=41):
    """Correlated attributes: ``y ~ x`` + noise, so the join condition
    ``x1 < x2 and y1 > y2`` is selective — the regime where an
    output-sensitive algorithm demolishes the quadratic scan (the
    anti-correlated salary/tax pairs of the cleaning use case)."""
    rng = make_rng(seed, "iejoin-bench", n)
    points = []
    for _ in range(n):
        x = rng.random()
        points.append((x, x + 0.02 * rng.random()))
    return points


def make_join():
    return InequalityJoin(
        lambda t: t[0], "<", lambda t: t[0],
        lambda t: t[1], ">", lambda t: t[1],
    )


def run(ctx, data, force_nested_loop: bool):
    from repro.core.logical.operators import CollectSink

    left = ctx.collection(data)
    right = ctx.collection(data)
    handle = left.apply_binary_operator(make_join(), right).count()
    handle.plan.add(CollectSink(), [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    join_op = next(
        op for op in physical.graph if op.kind.startswith("join.")
    )
    if force_nested_loop:
        variant = next(
            alt for alt in join_op.alternates
            if isinstance(alt, PNestedLoopJoin)
        )
        physical.graph.relabel(
            (op, variant if op is join_op else op) for op in physical.graph
        )
        variant.alternates = []
    else:
        join_op.alternates = []
    execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
    started = time.perf_counter()
    result = ctx.executor.execute(execution)
    wall_ms = (time.perf_counter() - started) * 1000
    return result.single[0], result.metrics.virtual_ms, wall_ms


def test_abl4_iejoin_vs_nested_loop(benchmark):
    ctx = RheemContext()
    register_iejoin(ctx.mappings, ctx.platforms)
    table = record_table(
        "ABL4",
        "inequality self-join: IEJoin vs nested loop (java platform)",
        ["rows", "pairs", "IEJoin virt", "NL virt", "virt gap",
         "IEJoin wall", "NL wall"],
    )
    final_gap = None
    sweep = []
    for size in SIZES:
        data = dataset(size)
        ie_count, ie_virtual, ie_wall = run(ctx, data, force_nested_loop=False)
        nl_count, nl_virtual, nl_wall = run(ctx, data, force_nested_loop=True)
        assert ie_count == nl_count
        final_gap = nl_virtual / ie_virtual
        table.rows.append(
            [size, ie_count, ms(ie_virtual), ms(nl_virtual),
             ratio(nl_virtual, ie_virtual), ms(ie_wall), ms(nl_wall)]
        )
        sweep.append(
            {"size": size, "pairs": ie_count, "iejoin_ms": ie_virtual,
             "nested_loop_ms": nl_virtual, "gap": nl_virtual / ie_virtual}
        )
    table.notes.append(
        "the optimizer-facing work-unit model and the measured wall time "
        "agree on the asymptotic gap"
    )
    record_bench(
        "ABL4", sweep=sweep, final_gap=final_gap, gap_floor=2.0
    )
    assert final_gap is not None and final_gap > 2.0

    small = dataset(400)
    benchmark.pedantic(
        lambda: run(ctx, small, force_nested_loop=False),
        rounds=3, iterations=1,
    )
