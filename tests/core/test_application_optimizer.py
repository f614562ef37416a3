"""Tests for the application optimizer: rewrite rules, mappings, and
logical→physical translation (variants included)."""

import pytest

from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    CostHints,
    Filter,
    GroupBy,
    LoopInput,
    Map,
    Repeat,
    Sort,
    Union,
)
from repro.core.logical.plan import LogicalPlan
from repro.core.mappings import default_mappings
from repro.core.optimizer.application import ApplicationOptimizer
from repro.core.optimizer.rules import (
    FuseAdjacentFilters,
    PushFilterBelowSort,
    PushFilterBelowUnion,
    RuleRegistry,
    default_rules,
)
from repro.core.physical.operators import (
    PFilter,
    PHashGroupBy,
    PMap,
    PRepeat,
    PSortGroupBy,
)
from repro.errors import MappingError


def plan_with(*ops_chain):
    plan = LogicalPlan()
    previous = None
    for op in ops_chain:
        plan.add(op, [previous] if previous is not None else [])
        previous = op
    return plan


class TestRules:
    def test_push_filter_below_sort(self):
        src = CollectionSource(range(10))
        sort = Sort(lambda x: x)
        flt = Filter(lambda x: x > 5)
        sink = CollectSink()
        plan = plan_with(src, sort, flt, sink)
        assert PushFilterBelowSort().apply(plan) is True
        # Now: src -> filter -> sort -> sink
        assert plan.graph.inputs_of(flt) == (src,)
        assert plan.graph.inputs_of(sort) == (flt,)
        assert plan.graph.inputs_of(sink) == (sort,)
        plan.validate()

    def test_push_filter_below_sort_skips_shared_sort(self):
        plan = LogicalPlan()
        src = plan.add(CollectionSource(range(10)))
        sort = plan.add(Sort(lambda x: x), [src])
        flt = plan.add(Filter(lambda x: x > 5), [sort])
        other = plan.add(Map(lambda x: x), [sort])
        plan.add(CollectSink(), [flt])
        plan.add(CollectSink(), [other])
        assert PushFilterBelowSort().apply(plan) is False

    def test_push_filter_below_union(self):
        plan = LogicalPlan()
        a = plan.add(CollectionSource([1, 2]))
        b = plan.add(CollectionSource([3, 4]))
        union = plan.add(Union(), [a, b])
        flt = plan.add(Filter(lambda x: x % 2 == 0), [union])
        plan.add(CollectSink(), [flt])
        assert PushFilterBelowUnion().apply(plan) is True
        plan.validate()
        left, right = plan.graph.inputs_of(union)
        assert isinstance(left, Filter) and isinstance(right, Filter)
        assert flt not in plan.graph

    def test_fuse_adjacent_filters(self):
        src = CollectionSource(range(10))
        f1 = Filter(lambda x: x > 2, hints=CostHints(selectivity=0.5))
        f2 = Filter(lambda x: x < 8, hints=CostHints(selectivity=0.5))
        sink = CollectSink()
        plan = plan_with(src, f1, f2, sink)
        assert FuseAdjacentFilters().apply(plan) is True
        plan.validate()
        (fused,) = plan.graph.consumers_of(src)
        assert isinstance(fused, Filter)
        assert fused.predicate(5) is True
        assert fused.predicate(1) is False
        assert fused.predicate(9) is False
        assert fused.hints.selectivity == pytest.approx(0.25)

    def test_fixpoint_counts_rewrites(self):
        src = CollectionSource(range(10))
        plan = plan_with(
            src,
            Filter(lambda x: x > 1),
            Filter(lambda x: x > 2),
            Filter(lambda x: x > 3),
            CollectSink(),
        )
        rewrites = RuleRegistry([FuseAdjacentFilters()]).run_to_fixpoint(plan)
        assert rewrites == 2  # three filters fuse pairwise twice

    def test_rules_preserve_semantics_end_to_end(self):
        from repro import RheemContext

        ctx = RheemContext()
        result = (
            ctx.collection(range(100))
            .sort(lambda x: -x)
            .filter(lambda x: x % 3 == 0)
            .filter(lambda x: x > 50)
            .collect(platform="java")
        )
        assert result == [x for x in range(100) if x % 3 == 0 and x > 50][::-1]


class TestTranslation:
    def test_wrappers_and_variants(self):
        plan = plan_with(
            CollectionSource([1, 2, 1]),
            GroupBy(lambda x: x),
            CollectSink(),
        )
        physical = ApplicationOptimizer().optimize(plan)
        ops = {type(op) for op in physical.graph}
        assert PHashGroupBy in ops
        group_op = next(
            op for op in physical.graph if isinstance(op, PHashGroupBy)
        )
        assert any(isinstance(alt, PSortGroupBy) for alt in group_op.alternates)

    def test_hints_travel_to_physical(self):
        flt = Filter(lambda x: True, hints=CostHints(selectivity=0.1))
        plan = plan_with(CollectionSource([1]), flt, CollectSink())
        physical = ApplicationOptimizer().optimize(plan)
        pfilter = next(op for op in physical.graph if isinstance(op, PFilter))
        assert pfilter.hints.selectivity == 0.1

    def test_repeat_translated_recursively(self):
        body = LogicalPlan()
        loop_in = body.add(LoopInput())
        out = body.add(Map(lambda x: x + 1), [loop_in])
        repeat = Repeat(body, loop_in, out, times=3)
        plan = LogicalPlan()
        src = plan.add(CollectionSource([0]))
        rep = plan.add(repeat, [src])
        plan.add(CollectSink(), [rep])
        physical = ApplicationOptimizer().optimize(plan)
        prepeat = next(op for op in physical.graph if isinstance(op, PRepeat))
        assert prepeat.times == 3
        assert any(isinstance(op, PMap) for op in prepeat.body.graph)
        assert prepeat.body_output in prepeat.body.graph

    def test_unmapped_operator_raises(self):
        class Custom(Map):
            pass

        mappings = default_mappings()
        # Custom inherits Map's mapping through the MRO, so it translates.
        plan = plan_with(
            CollectionSource([1]), Custom(lambda x: x), CollectSink()
        )
        ApplicationOptimizer(mappings).optimize(plan)

        class Orphan(CollectionSource.__bases__[0]):  # LogicalOperator
            num_inputs = 1

        plan2 = LogicalPlan()
        src = plan2.add(CollectionSource([1]))
        plan2.add(Orphan(), [src])
        with pytest.raises(MappingError, match="no logical->physical"):
            ApplicationOptimizer(mappings).optimize(plan2)

    def test_mapping_copy_isolated(self):
        base = default_mappings()
        clone = base.copy()

        class Extra(Map):
            pass

        clone.register(Extra, lambda logical: PMap(logical))
        assert clone.has_mapping(Extra)
        assert not base.has_mapping(Extra)


def test_default_rules_registered():
    names = {rule.name for rule in default_rules().rules}
    assert {"fuse-adjacent-filters", "push-filter-below-sort",
            "push-filter-below-union"} <= names


class TestCallerPlanUntouched:
    """The optimizer rewrites its own copy of the caller's plan: a
    rewrite that moves a loop body's output keeps it the output, and a
    plan (or a handle built on it) reads the same after a run."""

    SNIPPETS = {
        "sorted_body_filtered": lambda ctx: ctx.collection(list(range(10)))
        .repeat(2, lambda s: s.sort(lambda x: -x).filter(lambda x: x < 5))
        .collect(),
        "body_ends_in_two_filters": lambda ctx: ctx.collection(list(range(10)))
        .repeat(
            2,
            lambda s: s.map(lambda x: x + 1)
            .filter(lambda x: x > 0)
            .filter(lambda x: x < 100),
        )
        .collect(),
    }

    @staticmethod
    def _handle_after_derived(ctx):
        t = ctx.collection([5, 3, 1]).sort(lambda x: x)
        t.filter(lambda x: x < 4).collect()
        return t.collect()

    @staticmethod
    def _collected_twice(ctx):
        s = (
            ctx.collection([3, 1, 2])
            .map(lambda x: x * 2)
            .filter(lambda x: x > 2)
            .sort(lambda x: x)
            .filter(lambda x: x < 6)
        )
        return [s.collect(), s.collect()]

    @pytest.mark.parametrize(
        "snippet, expected",
        [
            ("sorted_body_filtered", [4, 3, 2, 1, 0]),
            ("body_ends_in_two_filters", list(range(2, 12))),
            ("_handle_after_derived", [1, 3, 5]),
            ("_collected_twice", [[4], [4]]),
        ],
    )
    def test_snippet_matches_a_run_without_rules(self, snippet, expected):
        from repro import RheemContext

        run = self.SNIPPETS.get(snippet) or getattr(self, snippet)
        assert run(RheemContext()) == expected
        assert run(RheemContext(rules=RuleRegistry([]))) == expected


class _CountingRules(RuleRegistry):
    """A registry that counts the rewrites it performs."""

    rewrites = 0

    def run_to_fixpoint(self, plan):
        done = super().run_to_fixpoint(plan)
        self.rewrites += done
        return done


def _fuse_input(q):
    return q.filter(lambda x: x > 1).filter(lambda x: x < 8)


def _sort_input(q):
    return q.sort(lambda x: -x).filter(lambda x: x > 2)


def _union_input(q):
    return q.union(q.source([7, 8, 9])).filter(lambda x: x % 2 == 0)


@pytest.mark.parametrize("where", ["top", "body"])
@pytest.mark.parametrize(
    "rule, build",
    [
        (FuseAdjacentFilters, _fuse_input),
        (PushFilterBelowSort, _sort_input),
        (PushFilterBelowUnion, _union_input),
    ],
    ids=["fuse", "sort", "union"],
)
def test_execute_leaves_the_callers_plan_as_built(rule, build, where):
    from repro import RheemContext
    from repro.core.optimizer.fingerprint import logical_plan_fingerprint

    rules = _CountingRules([rule()])
    ctx = RheemContext(rules=rules)
    handle = ctx.collection(list(range(10)))
    if where == "top":
        handle = build(handle)
    else:
        handle = handle.repeat(1, build)
    plan = handle.plan
    plan.add(CollectSink(), [handle.operator])
    explained, fingerprint = plan.explain(), logical_plan_fingerprint(plan)
    ctx.execute(plan, platform="java")
    assert rules.rewrites >= 1
    assert plan.explain() == explained
    assert logical_plan_fingerprint(plan) == fingerprint
