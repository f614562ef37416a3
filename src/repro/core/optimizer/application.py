"""Application-layer optimizer.

Implements the paper's §4.1: validate the input task, run the pre-defined
logical rewrites (push-downs, fusions — pluggable via
:mod:`repro.core.optimizer.rules`), then translate each logical operator
into wrapper physical operators through the declarative mapping registry.
Where a logical operator has several algorithmic implementations
(Example 2's ``SortGroupBy`` / ``HashGroupBy``) all variants are attached
to the plan so the core-layer optimizer can pick at costing time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.logical.operators import LogicalOperator, Repeat
from repro.core.logical.plan import LogicalPlan
from repro.core.mappings import OperatorMappings, default_mappings
from repro.core.observability.spans import KIND_OPTIMIZER, maybe_span
from repro.core.optimizer.rules import RuleRegistry, default_rules
from repro.core.physical.operators import (
    PhysicalOperator,
    PRepeat,
    PTableSource,
    PTextFileSource,
)
from repro.core.physical.plan import PhysicalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observability.spans import Tracer


class ApplicationOptimizer:
    """Translates logical plans into (variant-annotated) physical plans."""

    def __init__(
        self,
        mappings: OperatorMappings | None = None,
        rules: RuleRegistry | None = None,
    ):
        self.mappings = mappings or default_mappings()
        self.rules = rules or default_rules()

    def optimize(
        self, plan: LogicalPlan, tracer: "Tracer | None" = None
    ) -> PhysicalPlan:
        """Validate, rewrite and translate ``plan``.

        The logical plan is modified in place by the rewrite rules (it is
        owned by the optimizer from this point on), then translated.
        With a ``tracer`` the logical→physical translation gets its own
        span (rewrite + translate + shared-scan phases annotated).
        """
        with maybe_span(
            tracer,
            "optimize.application",
            KIND_OPTIMIZER,
            logical_operators=len(list(plan.graph.operators)),
        ) as span:
            plan.validate()
            self.rules.run_to_fixpoint(plan)
            physical, _ = self._translate(plan)
            before = len(list(physical.graph.operators))
            self._merge_duplicate_scans(physical)
            after = len(list(physical.graph.operators))
            if span is not None and after != before:
                span.set(scans_shared=before - after)
            physical.validate()
            if span is not None:
                span.set(
                    physical_operators=len(list(physical.graph.operators))
                )
            return physical

    # ------------------------------------------------------------------
    def _merge_duplicate_scans(self, physical: PhysicalPlan) -> None:
        """Merge duplicate scans of the same dataset into one operator.

        The paper's §4.2 asks the optimizer to "apply traditional
        physical optimizations, whenever possible.  Examples are shared
        scans...".  Two ``TableSource``/``TextFileSource`` operators over
        the same dataset (a self-join written as two scans, say) become
        one scan feeding both consumers, so the data is read — and
        charged — once.
        """
        graph = physical.graph
        seen: dict[tuple, PhysicalOperator] = {}
        for operator in list(graph.operators):
            if isinstance(operator, PTableSource):
                key = ("table", operator.dataset)
            elif isinstance(operator, PTextFileSource):
                key = ("textfile", operator.path)
            else:
                continue
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = operator
                continue
            for consumer in graph.consumers_of(operator):
                while operator in graph.inputs_of(consumer):
                    graph.replace_input(consumer, operator, survivor)
            graph.remove_isolated(operator)

    # ------------------------------------------------------------------
    def _translate(
        self, plan: LogicalPlan
    ) -> tuple[PhysicalPlan, dict[int, PhysicalOperator]]:
        """Translate a logical plan; returns the plan and the operator map
        (logical operator id → primary physical operator)."""
        physical = PhysicalPlan()
        translated: dict[int, PhysicalOperator] = {}
        for logical in plan.graph.topological_order():
            primary = self._translate_operator(logical)
            inputs = [translated[p.id] for p in plan.graph.inputs_of(logical)]
            physical.add(primary, inputs)
            translated[logical.id] = primary
        return physical, translated

    def _translate_operator(self, logical: LogicalOperator) -> PhysicalOperator:
        if isinstance(logical, Repeat):
            return self._translate_repeat(logical)
        candidates = self.mappings.candidates(logical)
        primary = candidates[0]
        primary.alternates = candidates[1:]
        return primary

    def _translate_repeat(self, logical: Repeat) -> PRepeat:
        """Translate a loop by recursively translating its body plan.

        Rewrite rules are applied to the body as well — an optimization a
        loop body benefits from ``times`` times over.
        """
        self.rules.run_to_fixpoint(logical.body)
        body_plan, translated = self._translate(logical.body)
        return PRepeat(
            logical,
            body=body_plan,
            body_input=translated[logical.body_input.id],
            body_output=translated[logical.body_output.id],
        )
