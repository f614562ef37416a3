"""The multi-platform task optimizer (core-layer optimizer, paper §4.2).

Given a physical plan, the optimizer jointly decides, per operator,

* the **algorithmic variant** (e.g. ``HashGroupBy`` vs ``SortGroupBy``,
  Example 2), and
* the **processing platform**,

using pluggable per-platform cost models and the inter-platform movement
cost model.  It then *divides the plan into task atoms* — maximal
single-platform fragments — and emits an
:class:`~repro.core.execution.plan.ExecutionPlan`.

The assignment search is a dynamic program over the plan DAG: the cost of
running an operator under a choice is its platform cost plus, per input,
the cheapest producer choice including the movement cost of crossing
platforms.  Shared sub-plans (operators with several consumers) make the
DP an approximation — producer costs can be counted once per consumer; a
reverse-topological consistency pass resolves every operator to a single
choice.  Plans here are overwhelmingly tree-shaped, and the executor
re-prices the final plan with observed cardinalities anyway, so the
approximation only ever affects plan choice, never reported times.

Per-platform start-ups are global, so the DP runs once per non-empty
subset of the platform roster and the exact cost picks the winner.  What
the subset does not change — order and wiring, each operator's choices
and their costs, movement costs — is built once per plan in an
:class:`_AssignmentTable` that every subset reads, so the whole search is
linear in plan size (times the handful of subsets).

Loops (``PRepeat``) are costed as ``iterations × body cost`` with
loop-invariant sources priced at cache-read rates after the first
iteration, and are always scheduled as a single-platform
:class:`~repro.core.execution.plan.LoopAtom` (platforms without the
``iterative`` profile are pruned — the data-processing-profile idea of
paper §8, challenge 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.dag import OperatorGraph
from repro.core.execution.plan import ExecutionPlan, LoopAtom, TaskAtom
from repro.core.observability.spans import KIND_OPTIMIZER, maybe_span
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.cost import MovementCostModel, OperatorCostInput
from repro.core.physical.operators import PhysicalOperator, PRepeat
from repro.core.physical.plan import PhysicalPlan
from repro.errors import OptimizationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observability.spans import Tracer
    from repro.platforms.base import Platform


@dataclass(frozen=True)
class Choice:
    """One (variant, platform) option for a physical operator."""

    variant: PhysicalOperator
    platform: "Platform"

    @property
    def key(self) -> tuple[int, str]:
        return (self.variant.id, self.platform.name)


class MultiPlatformOptimizer:
    """Cost-based variant/platform assignment and task-atom cutting."""

    def __init__(
        self,
        platforms: list["Platform"],
        estimator: CardinalityEstimator | None = None,
        movement: MovementCostModel | None = None,
    ):
        if not platforms:
            raise OptimizationError("at least one platform is required")
        names = [p.name for p in platforms]
        if len(set(names)) != len(names):
            raise OptimizationError(f"duplicate platform names: {names}")
        self.platforms = list(platforms)
        self.estimator = estimator or CardinalityEstimator()
        self.movement = movement or MovementCostModel()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        plan: PhysicalPlan,
        forced_platform: str | None = None,
        exclude_platforms: "set[str] | None" = None,
        tracer: "Tracer | None" = None,
    ) -> ExecutionPlan:
        """Produce an execution plan for ``plan``.

        ``forced_platform`` pins every operator to one platform (used for
        platform-independence demonstrations and ablations); otherwise the
        cost-based assignment runs.  ``exclude_platforms`` removes
        platforms from the roster for this call — the Executor's failover
        path uses it to re-plan a suffix off a quarantined platform.
        ``tracer`` (optional) records the full decision trace: one
        ``candidate`` span per platform subset considered with its
        estimated cost, plus the winner and the reason it won.
        """
        plan.validate()
        with maybe_span(
            tracer,
            "optimize.enumerate",
            KIND_OPTIMIZER,
            operators=len(list(plan.graph.operators)),
            forced=forced_platform,
            excluded=sorted(exclude_platforms or ()),
        ) as span:
            roster = self._roster(exclude_platforms)
            estimates = self.estimator.estimate_plan(plan)
            # Snapshot kind + applied-correction maps NOW: variant
            # substitution renumbers operators and nested loop-body
            # estimate_plan calls reset the estimator's correction map.
            estimate_kinds = {
                op.id: op.kind for op in plan.graph.operators
            }
            estimate_corrections = dict(
                getattr(self.estimator, "last_corrections", {}) or {}
            )
            if span is not None and estimate_corrections:
                span.set(
                    calibration_corrections=len(estimate_corrections),
                    calibration_kinds=sorted(
                        {
                            estimate_kinds.get(op_id, "?")
                            for op_id in estimate_corrections
                        }
                    ),
                )
            table = _AssignmentTable(self, plan, estimates, roster)
            if forced_platform is not None:
                if exclude_platforms and forced_platform in exclude_platforms:
                    raise OptimizationError(
                        f"forced platform {forced_platform!r} is excluded"
                    )
                assignment = self._forced_assignment(table, forced_platform)
                if span is not None:
                    span.set(
                        winner=[forced_platform],
                        winner_cost=table.cost(assignment),
                        reason=f"platform pinned to {forced_platform!r}",
                        candidates=1,
                    )
            else:
                assignment = self._cost_based_assignment(
                    table, tracer=tracer, span=span
                )
            if span is not None:
                span.set(
                    assignment=self._describe_assignment(
                        plan, assignment, estimates
                    )
                )
        with maybe_span(tracer, "optimize.cut_atoms", KIND_OPTIMIZER) as span:
            self._apply_variants(plan, assignment)
            execution = self._cut_atoms(plan, assignment, estimates)
            execution.estimate_kinds = estimate_kinds
            execution.estimate_corrections = estimate_corrections
            if span is not None:
                span.set(
                    atoms=len(execution.atoms),
                    platforms=[p.name for p in execution.platforms],
                )
        # Remember the physical plan so the Executor can rebuild the
        # remaining suffix on failover (operator objects are shared, so
        # ids — and thus channels and sinks — stay stable).
        execution.source_plan = plan
        return execution

    @staticmethod
    def _describe_assignment(
        plan: PhysicalPlan,
        assignment: dict[int, Choice],
        estimates: dict[int, float],
    ) -> list[str]:
        """Human-readable per-operator decisions (for traces/explain)."""
        lines = []
        for operator in plan.graph.topological_order():
            choice = assignment[operator.id]
            alternates = len(operator.alternates)
            extra = f" (+{alternates} variants)" if alternates else ""
            lines.append(
                f"op#{operator.id} {operator.kind}{extra} -> "
                f"{choice.variant.kind}@{choice.platform.name} "
                f"est_card={estimates[operator.id]:.0f}"
            )
        return lines

    def estimated_plan_cost(
        self,
        plan: PhysicalPlan,
        forced_platform: str | None = None,
        exclude_platforms: "set[str] | None" = None,
    ) -> float:
        """Estimated virtual cost of the best (or forced) assignment.

        Exposed for tests and ablations; includes per-platform start-up.
        """
        plan.validate()
        table = _AssignmentTable(
            self,
            plan,
            self.estimator.estimate_plan(plan),
            self._roster(exclude_platforms),
        )
        if forced_platform is not None:
            assignment = self._forced_assignment(table, forced_platform)
        else:
            assignment = self._cost_based_assignment(table)
        return table.cost(assignment)

    def _roster(
        self, exclude_platforms: "set[str] | None"
    ) -> "list[Platform]":
        """The platform roster minus any excluded names."""
        if not exclude_platforms:
            return list(self.platforms)
        roster = [
            p for p in self.platforms if p.name not in exclude_platforms
        ]
        if not roster:
            raise OptimizationError(
                f"every platform is excluded: {sorted(exclude_platforms)}"
            )
        return roster

    # ------------------------------------------------------------------
    # choice enumeration
    # ------------------------------------------------------------------
    def _platform_by_name(self, name: str) -> "Platform":
        for platform in self.platforms:
            if platform.name == name:
                return platform
        raise OptimizationError(
            f"unknown platform {name!r}; have {[p.name for p in self.platforms]}"
        )

    def _operator_cost(
        self,
        choice: Choice,
        input_cards: tuple[float, ...],
        output_card: float,
    ) -> float:
        if isinstance(choice.variant, PRepeat):
            return self._loop_cost(choice.variant, choice.platform, input_cards)
        cost_input = OperatorCostInput(
            kind=choice.variant.kind,
            input_cards=input_cards,
            output_card=output_card,
            udf_load=choice.variant.hints.udf_load,
        )
        return choice.platform.cost_model.operator_ms(cost_input)

    def _loop_cost(
        self,
        repeat: PRepeat,
        platform: "Platform",
        input_cards: tuple[float, ...],
    ) -> float:
        """Estimated cost of the whole loop on ``platform``.

        Body cost is the per-iteration sum of the cheapest supported
        variant of every body operator; loop-invariant sources pay full
        price once and cache-read price afterwards.
        """
        state_card = input_cards[0] if input_cards else 1.0
        body_estimates = self.estimator.estimate_plan(
            repeat.body, seeds={repeat.body_input.id: state_card}
        )
        iterations = max(1, repeat.iteration_bound)
        model = platform.cost_model
        per_iteration = model.loop_iteration_ms()
        first_iteration_extra = 0.0
        for operator in repeat.body.graph.topological_order():
            in_cards = tuple(
                body_estimates[p.id] for p in repeat.body.graph.inputs_of(operator)
            )
            out_card = body_estimates[operator.id]
            best = min(
                self._operator_cost(Choice(variant, platform), in_cards, out_card)
                for variant in [operator] + list(operator.alternates)
                if platform.supports(variant)
            )
            if operator.is_source and operator.kind != "source.loopinput":
                # Paid in full on the first iteration, cached afterwards.
                first_iteration_extra += best
                per_iteration += model.cached_read_ms(out_card)
            else:
                per_iteration += best
        return first_iteration_extra + iterations * per_iteration

    # ------------------------------------------------------------------
    # assignment search
    # ------------------------------------------------------------------
    def _forced_assignment(
        self, table: "_AssignmentTable", platform_name: str
    ) -> dict[int, Choice]:
        platform = self._platform_by_name(platform_name)
        assignment: dict[int, Choice] = {}
        for operator in table.order:
            variants = [operator] + list(operator.alternates)
            supported = [v for v in variants if platform.supports(v)]
            if not supported:
                raise OptimizationError(
                    f"platform {platform_name!r} does not support "
                    f"{operator.describe()}"
                )
            best = min(
                supported,
                key=lambda v: table.operator_cost(operator, Choice(v, platform)),
            )
            assignment[operator.id] = Choice(best, platform)
        return assignment

    def _cost_based_assignment(
        self,
        table: "_AssignmentTable",
        tracer: "Tracer | None" = None,
        span=None,
    ) -> dict[int, Choice]:
        """Best assignment over all platform subsets of the table's roster.

        The per-operator DP cannot see per-platform start-up costs (they
        are global, not per-edge), so running it over the full roster
        makes it sprinkle expensive-to-start platforms onto single
        operators.  Instead the DP runs once per non-empty platform
        subset — exponential in the number of *platforms* (a handful) —
        and the exact cost (start-ups included) picks the winner.  Every
        subset reads the same :class:`_AssignmentTable`, so each run is
        a filter and lookups, linear in plan size.

        With a tracer attached, every subset becomes a ``candidate``
        span carrying its estimated cost (or infeasibility), and the
        enclosing ``span`` receives winner/cost/reason attributes — the
        enumerator's decision trace that ``repro explain`` renders.
        """
        roster = table.roster
        best: dict[int, Choice] | None = None
        best_cost = float("inf")
        best_names: list[str] = []
        candidates = 0
        n = len(roster)
        for mask in range(1, 1 << n):
            subset = [roster[i] for i in range(n) if mask & (1 << i)]
            names = [p.name for p in subset]
            candidates += 1
            with maybe_span(
                tracer, "candidate", KIND_OPTIMIZER, platforms=names
            ) as cand_span:
                try:
                    candidate = table.assign(subset)
                except OptimizationError as error:
                    if cand_span is not None:
                        cand_span.set(feasible=False, why=str(error))
                    continue
                cost = table.cost(candidate)
                if cand_span is not None:
                    cand_span.set(feasible=True, estimated_cost_ms=cost)
                if cost < best_cost:
                    best, best_cost, best_names = candidate, cost, names
        if tracer is not None:
            tracer.registry.counter(
                "enumerator.candidates",
                "platform subsets considered by the enumerator",
            ).inc(candidates)
        if best is None:
            # Re-raise the full-roster error with its informative message.
            table.assign(roster)
            raise OptimizationError("no feasible platform assignment")
        if span is not None:
            span.set(
                candidates=candidates,
                winner=best_names,
                winner_cost=best_cost,
                reason=(
                    f"cheapest estimated virtual cost ({best_cost:.2f}ms) "
                    f"across {candidates} platform-subset candidates "
                    "(start-ups included)"
                ),
            )
        return best

    # ------------------------------------------------------------------
    # variant substitution
    # ------------------------------------------------------------------
    def _apply_variants(
        self, plan: PhysicalPlan, assignment: dict[int, Choice]
    ) -> dict[int, PhysicalOperator]:
        """Substitute committed variants; return old-id → new-operator map."""
        replaced: dict[int, PhysicalOperator] = {}
        for operator in list(plan.graph.operators):
            choice = assignment[operator.id]
            if choice.variant is not operator:
                plan.substitute(operator, choice.variant)
                choice.variant.alternates = []
                assignment[choice.variant.id] = choice
                del assignment[operator.id]
                replaced[operator.id] = choice.variant
        return replaced

    # ------------------------------------------------------------------
    # task-atom cutting
    # ------------------------------------------------------------------
    def _cut_atoms(
        self,
        plan: PhysicalPlan,
        assignment: dict[int, Choice],
        estimates: dict[int, float],
        extra_output_ids: frozenset[int] = frozenset(),
    ) -> ExecutionPlan:
        graph = plan.graph
        order = graph.topological_order()
        # Greedy grouping with an acyclicity guard on the atom graph.
        atom_of: dict[int, int] = {}  # operator id -> atom index
        atom_members: list[list[PhysicalOperator]] = []
        atom_platform: list["Platform"] = []
        atom_deps: list[set[int]] = []  # direct dependencies between atoms

        def reaches(source: int, target: int) -> bool:
            if source == target:
                return True
            stack = [source]
            seen = set()
            while stack:
                current = stack.pop()
                if current == target:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(atom_deps[current])
            return False

        for operator in order:
            platform = assignment[operator.id].platform
            producer_atoms = {
                atom_of[p.id] for p in graph.inputs_of(operator)
            }
            candidate = None
            if not isinstance(operator, PRepeat):
                same_platform = [
                    a for a in producer_atoms
                    if atom_platform[a] is platform
                    and not isinstance(atom_members[a][0], PRepeat)
                ]
                for atom_index in sorted(same_platform, reverse=True):
                    others = producer_atoms - {atom_index}
                    # Joining atom_index adds edges other -> atom_index; that
                    # closes a cycle iff some other atom already depends
                    # (transitively) on atom_index.
                    if not any(reaches(other, atom_index) for other in others):
                        candidate = atom_index
                        break
            if candidate is None:
                candidate = len(atom_members)
                atom_members.append([])
                atom_platform.append(platform)
                atom_deps.append(set())
            atom_members[candidate].append(operator)
            atom_of[operator.id] = candidate
            atom_deps[candidate].update(producer_atoms - {candidate})

        # Topological order of atoms.
        atom_order = self._topological_atoms(atom_deps)

        atoms: list[TaskAtom | LoopAtom] = []
        plan_sink_ids = {op.id for op in graph.sinks}
        for atom_index in atom_order:
            members = atom_members[atom_index]
            platform = atom_platform[atom_index]
            if len(members) == 1 and isinstance(members[0], PRepeat):
                atoms.append(self._build_loop_atom(graph, members[0], platform))
                continue
            member_ids = {op.id for op in members}
            fragment = graph.subgraph(members)
            external_inputs: dict[tuple[int, int], int] = {}
            output_ids: set[int] = set()
            for operator in members:
                for slot, producer in enumerate(graph.inputs_of(operator)):
                    if producer.id not in member_ids:
                        external_inputs[(operator.id, slot)] = producer.id
                if operator.id in plan_sink_ids or operator.id in extra_output_ids:
                    output_ids.add(operator.id)
                for consumer in graph.consumers_of(operator):
                    if consumer.id not in member_ids:
                        output_ids.add(operator.id)
            atom = TaskAtom(platform, fragment, external_inputs, output_ids)
            # Platform-layer optimization phase (paper §4.3).
            platform.optimize_atom(atom)
            atoms.append(atom)
        return ExecutionPlan(atoms, plan.collect_sinks(), dict(estimates))

    def _build_loop_atom(
        self,
        graph: OperatorGraph[PhysicalOperator],
        repeat: PRepeat,
        platform: "Platform",
    ) -> LoopAtom:
        """Schedule a loop body entirely on ``platform``."""
        body_assignment = self._forced_body_assignment(repeat, platform)
        replaced = self._apply_variants(repeat.body, body_assignment)
        if repeat.body_input.id in replaced:
            repeat.body_input = replaced[repeat.body_input.id]
        if repeat.body_output.id in replaced:
            repeat.body_output = replaced[repeat.body_output.id]
        # The loop-output operator must be egested even when it has body-
        # internal consumers (the executor reads the state from it), and
        # must be marked *before* atom cutting so platform-layer fusion
        # keeps it addressable.
        body_plan = self._cut_atoms(
            repeat.body,
            body_assignment,
            self.estimator.estimate_plan(repeat.body),
            extra_output_ids=frozenset({repeat.body_output.id}),
        )
        (state_producer,) = graph.inputs_of(repeat)
        return LoopAtom(platform, repeat, body_plan, state_producer.id)

    def _forced_body_assignment(
        self, repeat: PRepeat, platform: "Platform"
    ) -> dict[int, Choice]:
        estimates = self.estimator.estimate_plan(repeat.body)
        assignment: dict[int, Choice] = {}
        for operator in repeat.body.graph.topological_order():
            variants = [operator] + list(operator.alternates)
            supported = [v for v in variants if platform.supports(v)]
            if not supported:
                raise OptimizationError(
                    f"loop body operator {operator.describe()} unsupported "
                    f"on {platform.name!r}"
                )
            in_cards = tuple(
                estimates[p.id] for p in repeat.body.graph.inputs_of(operator)
            )
            best = min(
                supported,
                key=lambda v: self._operator_cost(
                    Choice(v, platform), in_cards, estimates[operator.id]
                ),
            )
            assignment[operator.id] = Choice(best, platform)
        return assignment

    @staticmethod
    def _topological_atoms(atom_deps: list[set[int]]) -> list[int]:
        remaining = set(range(len(atom_deps)))
        done: set[int] = set()
        order: list[int] = []
        while remaining:
            progressed = False
            for index in sorted(remaining):
                if atom_deps[index] <= done:
                    order.append(index)
                    done.add(index)
                    remaining.remove(index)
                    progressed = True
                    break
            if not progressed:
                raise OptimizationError("task-atom graph contains a cycle")
        return order


class _AssignmentTable:
    """The subset-independent inputs of the assignment search for one plan.

    Which platform subset the enumerator is trying changes none of: the
    topological order and wiring; each operator's (variant, platform)
    choices over the roster; the cost of running an operator under a
    choice (a whole loop for ``PRepeat``, which re-estimates its body);
    or the cost of moving a producer's output between two platforms.
    The table holds the first two and memoises the last two on first
    use, so every subset's DP filters and looks up instead of
    recomputing, and one costing path serves the search, the forced
    assignment and the reported cost.
    """

    def __init__(
        self,
        optimizer: MultiPlatformOptimizer,
        plan: PhysicalPlan,
        estimates: dict[int, float],
        roster: "list[Platform]",
    ):
        graph = plan.graph
        self.roster = roster
        self.order = graph.topological_order()
        self._optimizer = optimizer
        self._estimates = estimates
        self._inputs = {op.id: graph.inputs_of(op) for op in self.order}
        self._consumers = {op.id: graph.consumers_of(op) for op in self.order}
        self._choices = {
            op.id: [
                Choice(variant, platform)
                for variant in [op] + list(op.alternates)
                for platform in roster
                if platform.supports(variant)
            ]
            for op in self.order
        }
        self._operator_costs: dict[tuple[int, int, str], float] = {}
        self._transfers: dict[tuple[str, str, int], float] = {}

    def operator_cost(self, operator: PhysicalOperator, choice: Choice) -> float:
        key = (operator.id, *choice.key)
        cost = self._operator_costs.get(key)
        if cost is None:
            in_cards = tuple(
                self._estimates[p.id] for p in self._inputs[operator.id]
            )
            cost = self._optimizer._operator_cost(
                choice, in_cards, self._estimates[operator.id]
            )
            self._operator_costs[key] = cost
        return cost

    def transfer(
        self,
        producer: PhysicalOperator,
        source: "Platform",
        target: "Platform",
    ) -> float:
        key = (source.name, target.name, producer.id)
        cost = self._transfers.get(key)
        if cost is None:
            cost = self._optimizer.movement.transfer_ms(
                source.cost_model, target.cost_model, self._estimates[producer.id]
            )
            self._transfers[key] = cost
        return cost

    def assign(self, platforms: "list[Platform]") -> dict[int, Choice]:
        """The DP's assignment when only ``platforms`` may be used."""
        names = {p.name for p in platforms}
        # Forward DP: cheapest way to have each operator's output available
        # under each choice.
        dp: dict[int, list[tuple[Choice, float]]] = {}
        for operator in self.order:
            options = [
                c for c in self._choices[operator.id] if c.platform.name in names
            ]
            if not options:
                raise OptimizationError(
                    f"no platform supports {operator.describe()} "
                    f"(or any of its variants)"
                )
            entries: list[tuple[Choice, float]] = []
            for choice in options:
                cost = self.operator_cost(operator, choice)
                for producer in self._inputs[operator.id]:
                    cost += min(
                        made_cost
                        + self.transfer(producer, made.platform, choice.platform)
                        for made, made_cost in dp[producer.id]
                    )
                entries.append((choice, cost))
            dp[operator.id] = entries

        # Reverse pass: commit one choice per operator, preferring choices
        # cheap for the already-committed consumers.
        assignment: dict[int, Choice] = {}
        for operator in reversed(self.order):
            consumers = self._consumers[operator.id]
            best: Choice | None = None
            best_total = float("inf")
            for choice, total in dp[operator.id]:
                for consumer in consumers:
                    total += self.transfer(
                        operator, choice.platform, assignment[consumer.id].platform
                    )
                if total < best_total:
                    best_total = total
                    best = choice
            assert best is not None  # infeasible operators raised above
            assignment[operator.id] = best
        return assignment

    def cost(self, assignment: dict[int, Choice]) -> float:
        """Exact estimated cost of a committed assignment.

        Start-ups are summed in roster order, so the figure never depends
        on string-hash order.
        """
        total = 0.0
        used: set[str] = set()
        for operator in self.order:
            choice = assignment[operator.id]
            used.add(choice.platform.name)
            total += self.operator_cost(operator, choice)
            for producer in self._inputs[operator.id]:
                total += self.transfer(
                    producer, assignment[producer.id].platform, choice.platform
                )
        for platform in self._optimizer.platforms:
            if platform.name in used:
                total += platform.cost_model.startup_ms()
        return total
