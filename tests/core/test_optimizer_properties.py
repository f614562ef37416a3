"""Property-based tests of the optimizer pipeline over random plans.

Invariants checked for every generated plan:

* the execution plan covers every physical operator exactly once;
* the atom schedule is dependency-consistent (producers before consumers);
* the cost-based plan's results equal the forced-single-platform results;
* the cost-based estimated cost never exceeds the best single platform's;
* every platform subset's assignment, cost and infeasibility message from
  the enumerator's shared table equal an unmemoised per-subset DP's.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.execution.plan import LoopAtom, TaskAtom
from repro.core.optimizer.enumerator import Choice, _AssignmentTable
from repro.core.physical.fusion import PFusedPipeline
from repro.errors import OptimizationError


@st.composite
def random_plans(draw):
    """A random chain with optional binary tail over small int data."""
    data = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=20))
    chain = draw(
        st.lists(
            st.sampled_from(
                ["map", "filter", "flatmap", "distinct", "sort", "group",
                 "reduceby", "limit", "sample", "count"]
            ),
            max_size=5,
        )
    )
    binary = draw(st.sampled_from([None, "union", "join", "cross"]))
    return data, chain, binary


def build(ctx, spec):
    data, chain, binary = spec
    dq = ctx.collection(data)
    for step in chain:
        if step == "map":
            dq = dq.map(lambda x: _num(x) + 1)
        elif step == "filter":
            dq = dq.filter(lambda x: _num(x) % 2 == 0)
        elif step == "flatmap":
            dq = dq.flat_map(lambda x: [x])
        elif step == "distinct":
            dq = dq.distinct()
        elif step == "sort":
            dq = dq.sort(repr)
        elif step == "group":
            dq = dq.group_by(lambda x: _num(x) % 3).map(
                lambda kv: (kv[0], len(kv[1]))
            )
        elif step == "reduceby":
            dq = dq.map(lambda x: (_num(x) % 3, 1)).reduce_by(
                lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1])
            )
        elif step == "limit":
            dq = dq.limit(5)
        elif step == "sample":
            dq = dq.sample(4, seed=1)
        elif step == "count":
            dq = dq.count()
    if binary == "union":
        dq = dq.union(ctx.collection(data))
    elif binary == "join":
        dq = dq.map(lambda x: (_num(x) % 4, x)).join(
            ctx.collection(data).map(lambda x: (_num(x) % 4, x)),
            lambda kv: kv[0],
            lambda kv: kv[0],
        )
    elif binary == "cross":
        dq = dq.limit(3).cross(ctx.collection(data[:3]))
    return dq


def _num(x):
    while isinstance(x, tuple):
        x = x[0]
    return int(x)


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_atoms_cover_every_operator_exactly_once(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical)
    covered: list[int] = []
    for atom in execution.atoms:
        if isinstance(atom, TaskAtom):
            for op in atom.fragment:
                if isinstance(op, PFusedPipeline):
                    covered.extend(stage.id for stage in op.stages)
                else:
                    covered.append(op.id)
        else:
            covered.extend(atom.operator_ids)
    expected = {op.id for op in physical.graph}
    assert sorted(covered) == sorted(expected)
    assert len(covered) == len(set(covered))


@settings(max_examples=40, deadline=None)
@given(random_plans())
def test_atom_schedule_respects_dependencies(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    execution = ctx.task_optimizer.optimize(physical)
    seen: set[int] = set()
    for atom in execution.atoms:
        if isinstance(atom, TaskAtom):
            for (_, _), producer_id in atom.external_inputs.items():
                assert producer_id in seen, "consumer scheduled before producer"
        elif isinstance(atom, LoopAtom):
            assert atom.state_producer_id in seen
        seen.update(atom.output_ids)
        seen.update(atom.operator_ids)


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_cost_based_results_match_forced_java(spec):
    auto_ctx = RheemContext()
    forced_ctx = RheemContext()
    auto = build(auto_ctx, spec).collect()
    forced = build(forced_ctx, spec).collect(platform="java")
    assert sorted(map(repr, auto)) == sorted(map(repr, forced))


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_estimated_cost_at_most_best_single_platform(spec):
    ctx = RheemContext()
    handle = build(ctx, spec)
    physical = ctx.app_optimizer.optimize(handle.plan)
    best_free = ctx.task_optimizer.estimated_plan_cost(physical)
    singles = []
    for platform in ("java", "spark", "postgres"):
        try:
            singles.append(
                ctx.task_optimizer.estimated_plan_cost(physical, platform)
            )
        except Exception:
            continue
    assert singles, "at least java should support every generated plan"
    assert best_free <= min(singles) + 1e-6


# ----------------------------------------------------------------------
# the enumerator's table against an unmemoised per-subset DP
# ----------------------------------------------------------------------
def reference_assignment(optimizer, plan, estimates, platforms):
    """Forward DP then reverse commit, recomputing every cost."""
    graph = plan.graph
    order = graph.topological_order()
    dp, choice_objects = {}, {}
    for operator in order:
        in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
        choices = [
            Choice(variant, platform)
            for variant in [operator] + list(operator.alternates)
            for platform in platforms
            if platform.supports(variant)
        ]
        if not choices:
            raise OptimizationError(
                f"no platform supports {operator.describe()} "
                f"(or any of its variants)"
            )
        dp[operator.id], choice_objects[operator.id] = {}, {}
        for choice in choices:
            cost = optimizer._operator_cost(
                choice, in_cards, estimates[operator.id]
            )
            for producer in graph.inputs_of(operator):
                cost += min(
                    dp[producer.id][key]
                    + optimizer.movement.transfer_ms(
                        choice_objects[producer.id][key].platform.cost_model,
                        choice.platform.cost_model,
                        estimates[producer.id],
                    )
                    for key in dp[producer.id]
                )
            dp[operator.id][choice.key] = cost
            choice_objects[operator.id][choice.key] = choice
    assignment = {}
    for operator in reversed(order):
        best_key, best_total = None, float("inf")
        for key, total in dp[operator.id].items():
            platform = choice_objects[operator.id][key].platform
            for consumer in graph.consumers_of(operator):
                total += optimizer.movement.transfer_ms(
                    platform.cost_model,
                    assignment[consumer.id].platform.cost_model,
                    estimates[operator.id],
                )
            if total < best_total:
                best_key, best_total = key, total
        assignment[operator.id] = choice_objects[operator.id][best_key]
    return assignment


def reference_cost(optimizer, plan, estimates, assignment):
    graph = plan.graph
    total = 0.0
    used = {}
    for operator in graph.topological_order():
        choice = assignment[operator.id]
        used[choice.platform.name] = choice.platform
        in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
        total += optimizer._operator_cost(
            choice, in_cards, estimates[operator.id]
        )
        for producer in graph.inputs_of(operator):
            total += optimizer.movement.transfer_ms(
                assignment[producer.id].platform.cost_model,
                choice.platform.cost_model,
                estimates[producer.id],
            )
    return total + sum(p.cost_model.startup_ms() for p in used.values())


def assert_table_matches_reference(ctx, physical):
    optimizer = ctx.task_optimizer
    estimates = optimizer.estimator.estimate_plan(physical)
    roster = optimizer.platforms
    table = _AssignmentTable(optimizer, physical, estimates, roster)
    for mask in range(1, 1 << len(roster)):
        subset = [p for i, p in enumerate(roster) if mask & (1 << i)]
        try:
            expected = reference_assignment(optimizer, physical, estimates, subset)
        except OptimizationError as error:
            with pytest.raises(OptimizationError) as raised:
                table.assign(subset)
            assert str(raised.value) == str(error)
            continue
        got = table.assign(subset)
        assert {k: c.key for k, c in got.items()} == {
            k: c.key for k, c in expected.items()
        }
        assert math.isclose(
            table.cost(got),
            reference_cost(optimizer, physical, estimates, expected),
            rel_tol=1e-9,
        )


@settings(max_examples=60, deadline=None)
@given(random_plans())
def test_table_matches_unmemoised_dp_on_every_subset(spec):
    ctx = RheemContext()
    physical = ctx.app_optimizer.optimize(build(ctx, spec).plan)
    assert_table_matches_reference(ctx, physical)


def test_table_matches_unmemoised_dp_with_a_loop():
    ctx = RheemContext()
    points = ctx.collection([float(i) for i in range(40)])
    looped = ctx.collection([0.0, 10.0]).repeat(
        3,
        lambda state: state.cross(points)
        .map(lambda pair: (round(pair[0] - pair[1]), pair[1]))
        .group_by(lambda pair: pair[0])
        .map(lambda group: sum(p[1] for p in group[1]) / len(group[1])),
    )
    physical = ctx.app_optimizer.optimize(looped.plan)
    assert any(op.kind == "repeat" for op in physical.graph)
    assert_table_matches_reference(ctx, physical)
