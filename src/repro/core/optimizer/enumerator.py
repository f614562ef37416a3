"""The multi-platform task optimizer (core-layer optimizer, paper §4.2).

Given a physical plan, the optimizer jointly decides, per operator,

* the **algorithmic variant** (e.g. ``HashGroupBy`` vs ``SortGroupBy``,
  Example 2), and
* the **processing platform**,

using pluggable per-platform cost models and the inter-platform movement
cost model.  It then *divides the plan into task atoms* — maximal
single-platform fragments — and emits an
:class:`~repro.core.execution.plan.ExecutionPlan`.

The assignment search is one dynamic program over the plan DAG: an
operator's cost under a choice is its platform cost plus, per input, the
cheapest producer state including the movement cost of crossing
platforms.  Start-ups are global, so a state is (boundary platform, set of
platforms started) — at most n·2^(n-1) per operator — and the final set
whose cost plus start-ups is least wins; one reverse-topological pass
confined to it commits one choice per operator.  Shared sub-plans make
the forward values an approximation (a producer is counted once per
consumer), so on a DAG each final set's committed plan is priced exactly.
The executor re-prices the final plan with observed cardinalities anyway,
so the approximation only ever affects plan choice, never reported times.

Loops (``PRepeat``) are costed as ``iterations × body cost`` with
loop-invariant sources priced at cache-read rates after the first
iteration, and are always scheduled as a single-platform
:class:`~repro.core.execution.plan.LoopAtom` (platforms without the
``iterative`` profile are pruned — the data-processing-profile idea of
paper §8, challenge 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
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
        ``candidate`` span per platform subset with the estimated cost of
        the best plan confined to it, plus the winner and why it won.
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
            assignment = self._assignment(
                plan, estimates, forced_platform, exclude_platforms, tracer, span
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
        """Estimated virtual cost, start-ups included, of the plan
        :meth:`optimize` would execute (one costing path serves both).
        Exposed for tests and ablations."""
        plan.validate()
        estimates = self.estimator.estimate_plan(plan)
        assignment = self._assignment(
            plan, estimates, forced_platform, exclude_platforms
        )
        return self._cost(plan, estimates, assignment)

    def _cost(self, plan: PhysicalPlan, estimates: dict, assignment: dict) -> float:
        """Exact estimated cost of ``assignment``, start-ups included."""
        used = {choice.platform.name for choice in assignment.values()}
        roster = [p for p in self.platforms if p.name in used]
        return _AssignmentTable(self, plan, estimates, roster).cost(assignment)

    # ------------------------------------------------------------------
    # pricing and the assignment search
    # ------------------------------------------------------------------
    def _operator_costs(
        self,
        variant: PhysicalOperator,
        platforms: "list[Platform]",
        input_cards: tuple[float, ...],
        output_card: float,
    ) -> list[float]:
        """``variant``'s cost on each of ``platforms``."""
        if isinstance(variant, PRepeat):
            return [self._loop_cost(variant, p, input_cards) for p in platforms]
        cost_input = OperatorCostInput(
            kind=variant.kind,
            input_cards=input_cards,
            output_card=output_card,
            udf_load=variant.hints.udf_load,
        )
        return [p.cost_model.operator_ms(cost_input) for p in platforms]

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
                self._operator_costs(variant, [platform], in_cards, out_card)[0]
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

    def _assignment(
        self,
        plan: PhysicalPlan,
        estimates: dict[int, float],
        forced_platform: str | None,
        exclude_platforms: "set[str] | None",
        tracer: "Tracer | None" = None,
        span=None,
    ) -> dict[int, Choice]:
        """The one costing path: the forced or cost-based assignment."""
        excluded = exclude_platforms or set()
        roster = [p for p in self.platforms if p.name not in excluded]
        if not roster:
            raise OptimizationError(f"every platform is excluded: {sorted(excluded)}")
        if forced_platform is None:
            table = _AssignmentTable(self, plan, estimates, roster)
            return self._cost_based_assignment(table, tracer, span)
        names = [p.name for p in self.platforms]
        if forced_platform not in names:
            raise OptimizationError(
                f"unknown platform {forced_platform!r}; have {names}"
            )
        platform = self.platforms[names.index(forced_platform)]
        if platform not in roster:
            raise OptimizationError(f"forced platform {forced_platform!r} is excluded")
        assignment = self._forced_assignment(plan, platform, estimates)
        if span is not None:
            span.set(
                winner=[forced_platform],
                winner_cost=self._cost(plan, estimates, assignment),
                reason=f"platform pinned to {forced_platform!r}",
                candidates=1,
            )
        return assignment

    def _forced_assignment(
        self, plan: PhysicalPlan, platform: "Platform", estimates: dict[int, float]
    ) -> dict[int, Choice]:
        """Every operator's cheapest supported variant on ``platform``."""
        graph = plan.graph
        assignment: dict[int, Choice] = {}
        for operator in graph.topological_order():
            variants = [operator, *operator.alternates]
            if not (supported := [v for v in variants if platform.supports(v)]):
                raise OptimizationError(
                    f"platform {platform.name!r} does not support "
                    f"{operator.describe()}"
                )
            in_cards = tuple(estimates[p.id] for p in graph.inputs_of(operator))
            best = min(
                supported,
                key=lambda v: self._operator_costs(
                    v, [platform], in_cards, estimates[operator.id]
                )[0],
            )
            assignment[operator.id] = Choice(best, platform)
        return assignment

    @staticmethod
    def _cost_based_assignment(
        table: "_AssignmentTable",
        tracer: "Tracer | None" = None,
        span=None,
    ) -> dict[int, Choice]:
        """Best assignment over the table's roster, start-ups included.

        The final set of started platforms whose cost plus start-ups is
        least wins (the lowest mask on a tie; on a DAG, by the exact cost
        of each set's committed plan).  With a tracer attached, every
        non-empty roster subset becomes a ``candidate`` span carrying the
        cost of the best plan confined to it, or why it is infeasible,
        and ``span`` receives winner/cost/reason — the decision trace
        that ``repro explain`` renders.
        """
        roster = table.roster
        full = (1 << len(roster)) - 1
        states, totals = table.search()
        if tracer is not None:
            for subset in range(1, full + 1):
                names = [p.name for i, p in enumerate(roster) if subset >> i & 1]
                with tracer.span("candidate", KIND_OPTIMIZER, platforms=names) as cand:
                    confined = [v for m, v in totals.items() if not m & ~subset]
                    if confined:
                        cand.set(feasible=True, estimated_cost_ms=min(confined))
                    else:
                        cand.set(feasible=False, why=str(table.unsupported(subset)))
            tracer.registry.counter(
                "enumerator.candidates",
                "platform subsets considered by the enumerator",
            ).inc(full)
        if not totals:  # some operator runs on no platform of the roster
            raise table.unsupported(full)
        plans = {}
        if table.shared:
            plans = {mask: table.commit(states, mask) for mask in totals}
            totals = {mask: table.cost(plan) for mask, plan in plans.items()}
        winner = min(totals, key=totals.__getitem__)
        assignment = plans.get(winner) or table.commit(states, winner)
        if span is not None:
            cost = table.cost(assignment)
            span.set(
                candidates=full,
                winner=[p.name for i, p in enumerate(roster) if winner >> i & 1],
                winner_cost=cost,
                reason=(
                    f"cheapest estimated virtual cost ({cost:.2f}ms) "
                    f"across {full} platform-subset candidates "
                    "(start-ups included)"
                ),
            )
        return assignment

    # ------------------------------------------------------------------
    # variant substitution and task-atom cutting
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
        estimates = self.estimator.estimate_plan(repeat.body)
        body_assignment = self._forced_assignment(
            repeat.body, platform, estimates
        )
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
            estimates,
            extra_output_ids=frozenset({repeat.body_output.id}),
        )
        (state_producer,) = graph.inputs_of(repeat)
        return LoopAtom(platform, repeat, body_plan, state_producer.id)

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
    """One plan's assignment search: priced once, searched in one pass.

    Operators are held by topological position with their (variant,
    platform index) choices, priced together on first use; a transfer
    matrix is priced once per cardinality.  ``states[pos]`` lists the
    forward DP's ``(p, mask, cost)``: the cheapest way to have operator
    ``pos``'s output on platform p having started exactly the masked
    platforms.  The least cost over masks ⊆ S is what a DP confined to
    subset S computes, so one pass answers every subset.  A state no
    cheaper than the single-platform state on its platform is dropped:
    its completions are open to that state with no more start-ups.
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
        self.order = order = graph.topological_order()
        self._optimizer = optimizer
        position = {op.id: pos for pos, op in enumerate(order)}
        self._inputs = [[position[p.id] for p in graph.inputs_of(op)] for op in order]
        self._consumers = [
            [position[c.id] for c in graph.consumers_of(op)] for op in order
        ]
        self.shared = any(len(c) > 1 for c in self._consumers)  # a DAG
        self._cards = [estimates[op.id] for op in order]
        variants = [[op, *op.alternates] for op in order]
        self.choices = [  # variant-major, so prices() can group by variant
            [(v, i) for v in vs for i, p in enumerate(roster) if p.supports(v)]
            for vs in variants
        ]
        self._costs: list = [None] * len(order)
        self._matrices: dict[float, list[list[float]]] = {}

    def prices(self, pos: int) -> list[float]:
        """The cost of operator ``pos`` under each of its choices."""
        costs = self._costs[pos]
        if costs is None:
            in_cards = tuple([self._cards[j] for j in self._inputs[pos]])
            costs = self._costs[pos] = []
            price = self._optimizer._operator_costs
            for variant, group in groupby(self.choices[pos], itemgetter(0)):
                platforms = [self.roster[index] for _, index in group]
                costs += price(variant, platforms, in_cards, self._cards[pos])
        return costs

    def transfers(self, pos: int) -> list[list[float]]:
        """``[q][p]``: moving operator ``pos``'s output from q to p."""
        card = self._cards[pos]
        matrix = self._matrices.get(card)
        if matrix is None:
            transfer_ms = self._optimizer.movement.transfer_ms
            models = [p.cost_model for p in self.roster]
            matrix = self._matrices[card] = [
                [transfer_ms(source, target, card) for target in models]
                for source in models
            ]
        return matrix

    def unsupported(self, mask: int) -> OptimizationError | None:
        """The error for the first operator no platform in ``mask`` runs."""
        for op, choices in zip(self.order, self.choices):
            if not any(mask >> p & 1 for _, p in choices):
                return OptimizationError(
                    f"no platform supports {op.describe()} (or any of its variants)"
                )
        return None

    def search(self) -> tuple[list, dict[int, float]]:
        """The forward DP: per-operator states and, per final mask, the
        plan's cost plus the masked platforms' start-ups."""
        n = len(self.roster)
        low = (1 << n) - 1
        states: list[list[tuple[int, int, float]]] = []
        for pos, choices in enumerate(self.choices):
            inputs = self._inputs[pos]
            best: dict[int, float] = {}  # p << n | mask -> cost
            get = best.get
            for (_, p), cost in zip(choices, self.prices(pos)):
                if len(inputs) == 1:  # a chain link, the common case
                    move, key = self.transfers(inputs[0]), p << n | 1 << p
                    for q, mask, value in states[inputs[0]]:
                        total = cost + (value + move[q][p])
                        if total < get(key | mask, _INF):
                            best[key | mask] = total
                    continue
                acc = {1 << p: cost}
                for j in inputs:
                    acc = _add(acc, states[j], self.transfers(j), p)
                for mask, total in acc.items():
                    if total < get(p << n | mask, _INF):
                        best[p << n | mask] = total
            alone = [get(p << n | 1 << p, _INF) for p in range(n)]
            states.append(
                [
                    (key >> n, key & low, total)
                    for key, total in best.items()
                    if total < alone[key >> n] or key & low == 1 << (key >> n)
                ]
            )
        final = {0: 0.0}
        for pos, consumers in enumerate(self._consumers):
            if not consumers:
                final = _add(final, states[pos])
        totals = {mask: self._started(final[mask], mask) for mask in sorted(final)}
        return states, totals

    def _started(self, total: float, mask: int) -> float:
        """``total`` plus the masked platforms' start-ups, in roster order."""
        for index, platform in enumerate(self.roster):
            if mask >> index & 1:
                total += platform.cost_model.startup_ms()
        return total

    def commit(self, states: list, mask: int) -> dict[int, Choice]:
        """Reverse pass confined to ``mask``: commit one choice per
        operator, the cheapest including transfers to the consumers
        already committed."""
        confined: list = [None] * len(self.order)
        committed = [0] * len(self.order)
        assignment: dict[int, Choice] = {}
        for pos in reversed(range(len(self.order))):
            for j in self._inputs[pos]:
                if confined[j] is None:
                    least: dict[int, float] = {}
                    for q, used, value in states[j]:
                        if not used & ~mask and value < least.get(q, _INF):
                            least[q] = value
                    confined[j] = list(least.items())
            out = self.transfers(pos)
            best, best_total = -1, _INF
            costs = self.prices(pos)
            for k, (_, p) in enumerate(self.choices[pos]):
                total = costs[k]
                if not mask >> p & 1:
                    continue
                for j in self._inputs[pos]:
                    move = self.transfers(j)
                    total += min([value + move[q][p] for q, value in confined[j]])
                for consumer in self._consumers[pos]:
                    total += out[p][committed[consumer]]
                if total < best_total:
                    best, best_total = k, total
            variant, committed[pos] = self.choices[pos][best]
            platform = self.roster[committed[pos]]
            assignment[self.order[pos].id] = Choice(variant, platform)
        return assignment

    def cost(self, assignment: dict[int, Choice]) -> float:
        """Exact estimated cost of a committed assignment."""
        total, used, platforms = 0.0, 0, []
        for pos, op in enumerate(self.order):
            choice = assignment[op.id]
            p = self.roster.index(choice.platform)
            total += self.prices(pos)[self.choices[pos].index((choice.variant, p))]
            for j in self._inputs[pos]:
                total += self.transfers(j)[platforms[j]][p]
            platforms.append(p)
            used |= 1 << p
        return self._started(total, used)


_INF = float("inf")


def _add(acc: dict[int, float], states: list, move=None, p=0) -> dict[int, float]:
    """``acc`` plus one producer's states: masks union, costs add, and the
    output moves to platform ``p`` when a transfer matrix is given."""
    out: dict[int, float] = {}
    for mask, value in acc.items():
        for q, used, cost in states:
            total = value + (cost + move[q][p] if move else cost)
            if total < out.get(mask | used, _INF):
                out[mask | used] = total
    return out
