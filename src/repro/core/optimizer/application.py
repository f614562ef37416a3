"""Application-layer optimizer.

Implements the paper's §4.1: validate the input task, run the pre-defined
logical rewrites (push-downs, fusions — pluggable via
:mod:`repro.core.optimizer.rules`), then translate each logical operator
into wrapper physical operators through the declarative mapping registry.
Both work on the optimizer's own copy of the plan's wiring, never on the
caller's plan.
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
        """Validate ``plan`` once, then rewrite and translate a copy of it.

        ``plan`` stays as the caller built it, loop bodies included.
        With a ``tracer`` the logical→physical translation gets its own
        span (rewrite + translate + shared-scan phases annotated).
        """
        with maybe_span(
            tracer,
            "optimize.application",
            KIND_OPTIMIZER,
            logical_operators=len(plan.graph),
        ) as span:
            plan.validate()
            physical, _ = self._translate(self._rewrite(plan))
            before = len(physical.graph)
            self._merge_duplicate_scans(physical)
            after = len(physical.graph)
            if span is not None:
                if after != before:
                    span.set(scans_shared=before - after)
                span.set(physical_operators=after)
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
    def _rewrite(self, plan: LogicalPlan, loop: Repeat | None = None) -> LogicalPlan:
        """Run the rules to a fixpoint on a copy of ``plan``'s wiring.

        A loop body is rewritten with its ``Repeat`` consuming the body's
        output, as a collect sink consumes a plan's: a rule that moves or
        fuses the output rewires the loop with it.
        """
        copy = LogicalPlan()
        copy.graph = plan.graph.subgraph(plan.graph)
        if loop is not None:
            copy.add(loop, [loop.body_output])
        self.rules.run_to_fixpoint(copy)
        return copy

    def _translate(
        self, plan: LogicalPlan
    ) -> tuple[PhysicalPlan, dict[int, PhysicalOperator]]:
        """Relabel ``plan`` into physical operators in topological order;
        returns the physical plan and the operator map (logical operator
        id → primary physical operator)."""
        pairs = [
            (logical, self._translate_operator(logical))
            for logical in plan.graph.topological_order()
        ]
        plan.graph.relabel(pairs)
        physical = PhysicalPlan()
        physical.graph = plan.graph
        return physical, {logical.id: primary for logical, primary in pairs}

    def _translate_operator(self, logical: LogicalOperator) -> PhysicalOperator:
        if isinstance(logical, Repeat):
            return self._translate_repeat(logical)
        candidates = self.mappings.candidates(logical)
        primary = candidates[0]
        primary.alternates = candidates[1:]
        return primary

    def _translate_repeat(self, logical: Repeat) -> PRepeat:
        """Translate a loop by rewriting and translating its body plan.

        Rewrite rules are applied to the body as well — an optimization a
        loop body benefits from ``times`` times over.
        """
        body = self._rewrite(logical.body, loop=logical)
        (body_output,) = body.graph.inputs_of(logical)
        body.graph.remove_unary(logical)
        body_plan, translated = self._translate(body)
        return PRepeat(
            logical,
            body=body_plan,
            body_input=translated[logical.body_input.id],
            body_output=translated[body_output.id],
        )
