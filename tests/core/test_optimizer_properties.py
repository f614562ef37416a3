"""Property-based tests of the optimizer pipeline over random plans.

Invariants checked for every generated plan:

* the execution plan covers every physical operator exactly once;
* the atom schedule is dependency-consistent (producers before consumers);
* the cost-based plan's results equal the forced-single-platform results;
* the cost-based estimated cost never exceeds the best single platform's;
* the one-pass assignment DP picks the same plan at the same cost as the
  per-subset search it replaced (kept here as the oracle) on every tree,
  with and without excluded platforms, over the default roster, with
  opt-in flink added, and under cost models that make plans mix
  platforms; on every plan it is no worse than the best single platform
  and raises the oracle's error when nothing is feasible.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.execution.plan import LoopAtom, TaskAtom
from repro.core.optimizer.cost import MovementCostModel
from repro.core.optimizer.enumerator import Choice
from repro.core.physical.fusion import PFusedPipeline
from repro.errors import OptimizationError
from repro.platforms import (
    JavaPlatform,
    PostgresPlatform,
    SparkPlatform,
    default_platforms,
)
from repro.platforms.flink import FlinkPlatform
from repro.platforms.java.platform import JavaCostModel
from repro.platforms.postgres.platform import PostgresCostModel


@st.composite
def random_plans(draw):
    """A random chain with an optional binary tail over small int data.

    The ``self_*`` tails consume the chain twice, so its last operator
    has two consumers and the plan is a DAG rather than a tree.
    """
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
    binary = draw(
        st.sampled_from([None, "union", "join", "cross", "self_union", "self_join"])
    )
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
    elif binary == "self_union":  # the chain's last operator feeds two
        dq = dq.map(lambda x: x).union(dq.filter(lambda x: _num(x) > 0))
    elif binary == "self_join":
        keyed = dq.map(lambda x: (_num(x) % 4, x))
        dq = keyed.join(keyed.filter(lambda kv: kv[0] > 0), _KEY, _KEY)
    return dq


def _KEY(kv):
    return kv[0]


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
# the one-pass assignment DP against the per-subset search it replaced
# ----------------------------------------------------------------------
def reference_assignment(optimizer, plan, estimates, platforms):
    """Forward DP then reverse commit confined to ``platforms``,
    recomputing every cost."""
    graph = plan.graph
    order = graph.topological_order()
    dp = {}
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
        dp[operator.id] = []
        for choice in choices:
            (cost,) = optimizer._operator_costs(
                choice.variant, [choice.platform], in_cards, estimates[operator.id]
            )
            for producer in graph.inputs_of(operator):
                cost += min(
                    made_cost
                    + optimizer.movement.transfer_ms(
                        made.platform.cost_model,
                        choice.platform.cost_model,
                        estimates[producer.id],
                    )
                    for made, made_cost in dp[producer.id]
                )
            dp[operator.id].append((choice, cost))
    assignment = {}
    for operator in reversed(order):
        best, best_total = None, float("inf")
        for choice, total in dp[operator.id]:
            for consumer in graph.consumers_of(operator):
                total += optimizer.movement.transfer_ms(
                    choice.platform.cost_model,
                    assignment[consumer.id].platform.cost_model,
                    estimates[operator.id],
                )
            if total < best_total:
                best, best_total = choice, total
        assignment[operator.id] = best
    return assignment


def reference_cost(optimizer, plan, estimates, assignment, roster):
    """Exact cost of ``assignment``; start-ups in roster order."""
    graph = plan.graph
    total = 0.0
    for operator in graph.topological_order():
        choice = assignment[operator.id]
        in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
        total += optimizer._operator_costs(
            choice.variant, [choice.platform], in_cards, estimates[operator.id]
        )[0]
        for producer in graph.inputs_of(operator):
            total += optimizer.movement.transfer_ms(
                assignment[producer.id].platform.cost_model,
                choice.platform.cost_model,
                estimates[producer.id],
            )
    used = {choice.platform.name for choice in assignment.values()}
    for platform in roster:
        if platform.name in used:
            total += platform.cost_model.startup_ms()
    return total


def subset_search(optimizer, plan, estimates, roster):
    """The search the one-pass DP replaced: the DP once per non-empty
    roster subset, the exact cost (start-ups included) picking the
    winner, the lowest subset on a tie."""
    best, best_cost = None, float("inf")
    for mask in range(1, 1 << len(roster)):
        subset = [p for i, p in enumerate(roster) if mask & (1 << i)]
        try:
            candidate = reference_assignment(optimizer, plan, estimates, subset)
        except OptimizationError:
            continue
        cost = reference_cost(optimizer, plan, estimates, candidate, roster)
        if cost < best_cost:
            best, best_cost = candidate, cost
    if best is None:
        # Every subset is infeasible: raise the full roster's message.
        reference_assignment(optimizer, plan, estimates, roster)
    return best, best_cost


def _keys(assignment):
    return {
        op_id: (c.variant.id, c.platform.name) for op_id, c in assignment.items()
    }


def _mixing_context():
    """ABL2's cost models plus flink: cheap start-ups and movement,
    relational work cheap on postgres and UDFs cheap in-process, so plans
    mix platforms and some subsets' states beat the winner's."""
    return RheemContext(
        platforms=[
            JavaPlatform(cost_model=JavaCostModel(startup=5.0)),
            PostgresPlatform(
                cost_model=PostgresCostModel(
                    startup=5.0, relational_unit_ms=0.00001, udf_unit_ms=0.05
                )
            ),
            SparkPlatform(),
            FlinkPlatform(),
        ],
        movement=MovementCostModel(per_transfer_ms=0.5, per_quantum_ms=0.0005),
    )


#: name -> (context factory, input scale); the mixing models only mix
#: once inputs are large enough for per-quantum costs to matter
CONTEXTS = {
    "default": (RheemContext, 1),
    "with_flink": (
        lambda: RheemContext(platforms=default_platforms() + [FlinkPlatform()]),
        1,
    ),
    "mixing": (_mixing_context, 1000),
}


def _physical(name, spec):
    factory, scale = CONTEXTS[name]
    ctx = factory()
    data, chain, binary = spec
    return ctx, ctx.app_optimizer.optimize(
        build(ctx, (data * scale, chain, binary)).plan
    )


def assert_matches_subset_search(ctx, physical, exclude=frozenset()):
    """The DP's plan against the subset search over the same roster:
    identical on trees, never worse than one platform on any plan, and
    the same error when nothing is feasible."""
    optimizer = ctx.task_optimizer
    estimates = optimizer.estimator.estimate_plan(physical)
    roster = [p for p in optimizer.platforms if p.name not in exclude]
    try:
        expected, expected_cost = subset_search(
            optimizer, physical, estimates, roster
        )
    except OptimizationError as error:
        with pytest.raises(OptimizationError) as raised:
            optimizer.estimated_plan_cost(physical, exclude_platforms=exclude)
        assert str(raised.value) == str(error)
        return
    got = optimizer._assignment(physical, estimates, None, exclude)
    cost = optimizer.estimated_plan_cost(physical, exclude_platforms=exclude)
    assert cost == optimizer._cost(physical, estimates, got)
    graph = physical.graph
    if all(len(graph.consumers_of(op)) <= 1 for op in graph):
        assert _keys(got) == _keys(expected)
        assert cost == expected_cost
    singles = []
    for platform in roster:
        try:
            singles.append(
                optimizer.estimated_plan_cost(
                    physical, platform.name, exclude_platforms=exclude
                )
            )
        except OptimizationError:
            continue
    assert not singles or cost <= min(singles) + 1e-9


@settings(max_examples=90, deadline=None)
@given(random_plans(), st.sampled_from(sorted(CONTEXTS)))
# mixed winners whose producers are cheaper outside the winner's mask: the
# reverse pass must read only producer states confined to that mask
@example(spec=([0] * 15, ["map", "filter", "sort"], "union"), context="mixing")
@example(
    spec=(
        [6, -8, 0, -4, -1, 3, -1, -6, -1, -9, -6, -6],
        ["flatmap", "limit", "distinct"],
        "union",
    ),
    context="mixing",
)
def test_one_pass_dp_matches_subset_search(spec, context):
    ctx, physical = _physical(context, spec)
    assert_matches_subset_search(ctx, physical)


@settings(max_examples=60, deadline=None)
@given(random_plans(), st.sampled_from(sorted(CONTEXTS)), st.data())
def test_one_pass_dp_matches_subset_search_with_exclusions(spec, context, data):
    ctx, physical = _physical(context, spec)
    names = [p.name for p in ctx.task_optimizer.platforms]
    exclude = frozenset(
        data.draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=len(names) - 1)
        )
    )
    assert_matches_subset_search(ctx, physical, exclude)


@pytest.mark.parametrize("context", sorted(CONTEXTS))
def test_one_pass_dp_matches_subset_search_with_a_loop(context):
    ctx = CONTEXTS[context][0]()
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
    assert_matches_subset_search(ctx, physical)
    assert_matches_subset_search(ctx, physical, frozenset({"java"}))


def test_nothing_feasible_raises_the_subset_search_error():
    ctx = RheemContext()
    handle = ctx.collection(["a b", "c"]).flat_map(str.split)
    physical = ctx.app_optimizer.optimize(handle.plan)
    with pytest.raises(OptimizationError, match="no platform supports PFlatMap"):
        ctx.task_optimizer.estimated_plan_cost(
            physical, exclude_platforms={"java", "spark"}
        )
    assert_matches_subset_search(ctx, physical, frozenset({"java", "spark"}))
