"""Generic operator-DAG machinery shared by the three plan layers.

The logical, physical and execution layers of the abstraction all arrange
operators in a directed acyclic graph; only the operator vocabulary
differs.  This module provides the shared graph container with wiring,
validation, traversal and pretty-printing, so each layer stays focused on
its operator semantics.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Generic, Iterable, Iterator, Sequence, TypeVar

from repro.errors import PlanError, ValidationError

_OPERATOR_IDS = itertools.count(1)


class OperatorNode:
    """Base class for operators at any layer.

    Subclasses declare ``num_inputs`` (0 for sources).  Every operator in
    this reproduction produces exactly one output stream; fan-out is
    modelled by wiring several consumers to the same producer.
    """

    num_inputs: int = 1

    def __init__(self, name: str | None = None):
        self.id: int = next(_OPERATOR_IDS)
        self.name: str = name or type(self).__name__

    @property
    def is_source(self) -> bool:
        """True when the operator consumes no upstream operator."""
        return self.num_inputs == 0

    def describe(self) -> str:
        """One-line human-readable description used by plan printing."""
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.id} {self.name!r}>"


OpT = TypeVar("OpT", bound=OperatorNode)


class OperatorGraph(Generic[OpT]):
    """A DAG of operators with explicit input wiring.

    The graph owns no execution semantics; it only maintains structure:
    which operators exist, which operators feed which input slots, and the
    resulting topological order.  Only the wiring belongs to a graph: one
    operator may sit in a plan and in the optimizer's copy of it.

    The consumer index and the topological order are derived views, built
    on first use and dropped by every surgery method, so traversals stay
    linear in plan size.  A build publishes the finished view in one
    assignment: threads sharing an unchanging graph (a cached execution
    plan replayed for two tenants) at worst build it twice, identically.
    """

    def __init__(self) -> None:
        self._operators: list[OpT] = []
        self._inputs: dict[int, list[OpT]] = {}
        self._consumers: dict[int, tuple[OpT, ...]] | None = None
        self._order: list[OpT] | None = None

    def _changed(self) -> None:
        """Drop the derived views after the wiring changed."""
        self._consumers = None
        self._order = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, operator: OpT, inputs: Sequence[OpT] = ()) -> OpT:
        """Add ``operator`` fed by ``inputs`` (one producer per input slot).

        Returns the operator to allow fluent plan building.
        """
        if operator.id in self._inputs:
            raise PlanError(f"operator {operator!r} already added to this plan")
        if len(inputs) != operator.num_inputs:
            raise PlanError(
                f"{operator!r} expects {operator.num_inputs} input(s), "
                f"got {len(inputs)}"
            )
        for producer in inputs:
            if producer.id not in self._inputs:
                raise PlanError(
                    f"input {producer!r} of {operator!r} is not part of this plan"
                )
        self._changed()
        self._operators.append(operator)
        self._inputs[operator.id] = list(inputs)
        return operator

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def operators(self) -> tuple[OpT, ...]:
        """All operators, in insertion order."""
        return tuple(self._operators)

    def inputs_of(self, operator: OpT) -> tuple[OpT, ...]:
        """The producers wired to ``operator``'s input slots, in order."""
        try:
            return tuple(self._inputs[operator.id])
        except KeyError:
            raise PlanError(f"{operator!r} is not part of this plan") from None

    def consumers_of(self, operator: OpT) -> tuple[OpT, ...]:
        """All operators that read ``operator``'s output.

        Listed in insertion order, each consumer once however many of its
        input slots ``operator`` feeds.
        """
        self.inputs_of(operator)  # membership check
        return self._consumer_index()[operator.id]

    def _consumer_index(self) -> dict[int, tuple[OpT, ...]]:
        index = self._consumers
        if index is None:
            building: dict[int, list[OpT]] = {op.id: [] for op in self._operators}
            for op in self._operators:
                for producer in self._inputs[op.id]:
                    consumers = building[producer.id]
                    if not consumers or consumers[-1] is not op:
                        consumers.append(op)
            index = {op_id: tuple(ops) for op_id, ops in building.items()}
            self._consumers = index
        return index

    @property
    def sources(self) -> tuple[OpT, ...]:
        """Operators with no inputs."""
        return tuple(op for op in self._operators if op.is_source)

    @property
    def sinks(self) -> tuple[OpT, ...]:
        """Operators whose output nothing consumes (the plan results)."""
        consumed: set[int] = set()
        for op in self._operators:
            for producer in self._inputs[op.id]:
                consumed.add(producer.id)
        return tuple(op for op in self._operators if op.id not in consumed)

    def __len__(self) -> int:
        return len(self._operators)

    def __contains__(self, operator: OpT) -> bool:
        return operator.id in self._inputs

    def __iter__(self) -> Iterator[OpT]:
        return iter(self._operators)

    # ------------------------------------------------------------------
    # traversal and validation
    # ------------------------------------------------------------------
    def topological_order(self) -> list[OpT]:
        """Return the operators in a producers-before-consumers order.

        Kahn's algorithm: ready operators leave in FIFO order, sources in
        insertion order and each operator's consumers in insertion order,
        so the order is deterministic.  Returns a fresh list.

        Raises :class:`PlanError` when the wiring contains a cycle (which
        cannot happen via :meth:`add` alone but can after plan surgery).
        """
        order = self._order
        if order is None:
            consumers = self._consumer_index()
            in_degree = {
                op.id: len(self._inputs[op.id]) for op in self._operators
            }
            ready = deque(op for op in self._operators if in_degree[op.id] == 0)
            order = []
            while ready:
                current = ready.popleft()
                order.append(current)
                for consumer in consumers[current.id]:
                    # A producer feeding k slots of one consumer counts k times.
                    slots = self._inputs[consumer.id]
                    in_degree[consumer.id] -= slots.count(current)
                    if in_degree[consumer.id] == 0:
                        ready.append(consumer)
            if len(order) != len(self._operators):
                raise PlanError("plan wiring contains a cycle")
            self._order = order
        return list(order)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValidationError` if broken.

        A valid plan has at least one source, at least one sink, no cycles,
        and every non-source operator reachable from a source.
        """
        if not self._operators:
            raise ValidationError("plan is empty")
        if not self.sources:
            raise ValidationError("plan has no source operator")
        try:
            order = self.topological_order()
        except PlanError as exc:
            raise ValidationError(str(exc)) from exc
        reachable: set[int] = set()
        for op in order:
            producers = self._inputs[op.id]
            if not producers:
                reachable.add(op.id)
            elif all(p.id in reachable for p in producers):
                reachable.add(op.id)
        unreachable = [op for op in self._operators if op.id not in reachable]
        if unreachable:
            raise ValidationError(f"operators not reachable from sources: {unreachable!r}")

    def explain(self) -> str:
        """Return a multi-line, indented rendering of the DAG for humans."""
        lines = []
        for op in self.topological_order():
            producers = ", ".join(f"#{p.id}" for p in self.inputs_of(op))
            suffix = f" <- [{producers}]" if producers else ""
            lines.append(f"#{op.id} {op.describe()}{suffix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # surgery (used by optimizer rewrites)
    # ------------------------------------------------------------------
    def replace_input(self, operator: OpT, old: OpT, new: OpT) -> None:
        """Rewire one input slot of ``operator`` from ``old`` to ``new``."""
        slots = self._inputs[operator.id]
        for index, producer in enumerate(slots):
            if producer is old:
                self._changed()
                slots[index] = new
                return
        raise PlanError(f"{old!r} is not an input of {operator!r}")

    def absorb(self, other: "OperatorGraph[OpT]") -> None:
        """Merge all operators and wiring of ``other`` into this graph.

        Used when a binary operator joins two independently built plans.
        ``other`` must be disjoint from this graph and should be discarded
        afterwards.
        """
        for op in other._operators:
            if op.id in self._inputs:
                raise PlanError(f"operator {op!r} present in both graphs")
        self._changed()
        self._operators.extend(other._operators)
        self._inputs.update(other._inputs)

    def insert_between(self, producer: OpT, consumer: OpT, op: OpT) -> None:
        """Insert unary ``op`` on the edge ``producer -> consumer``.

        ``op`` may already be part of the graph (e.g. when one inserted
        operator serves several edges) or is added with ``producer`` as its
        input.
        """
        if op.num_inputs != 1:
            raise PlanError(f"can only insert unary operators, got {op!r}")
        if op.id not in self._inputs:
            self.add(op, [producer])
        self.replace_input(consumer, producer, op)

    def remove_unary(self, op: OpT) -> None:
        """Remove a unary operator, splicing its consumers onto its input."""
        producers = self._inputs.get(op.id)
        if producers is None:
            raise PlanError(f"{op!r} is not part of this plan")
        if len(producers) != 1:
            raise PlanError(f"can only remove unary operators, got {op!r}")
        producer = producers[0]
        consumers = self.consumers_of(op)
        self._changed()
        for consumer in consumers:
            slots = self._inputs[consumer.id]
            for index, candidate in enumerate(slots):
                if candidate is op:
                    slots[index] = producer
        self._operators.remove(op)
        del self._inputs[op.id]

    def remove_isolated(self, op: OpT) -> None:
        """Remove a node with no inputs and no consumers."""
        if op.id not in self._inputs:
            raise PlanError(f"{op!r} is not part of this plan")
        if self._inputs[op.id]:
            raise PlanError(f"{op!r} still has inputs")
        if self.consumers_of(op):
            raise PlanError(f"{op!r} still has consumers")
        self._changed()
        self._operators.remove(op)
        del self._inputs[op.id]

    def relabel(self, pairs: Iterable[tuple[OpT, OpT]]) -> None:
        """Put a new operator in each operator's place, all in one pass.

        ``pairs`` lists every operator of the graph once with its
        replacement (itself to keep it), in the order the graph then
        holds them.  A replacement takes over its operator's input slots
        and consumers and must have the same arity.
        """
        new_of: dict[int, OpT] = {}
        for old, new in pairs:
            if new.num_inputs != old.num_inputs:
                raise PlanError(f"{new!r} does not have the arity of {old!r}")
            new_of[old.id] = new
        if new_of.keys() != self._inputs.keys():
            raise PlanError("relabel must name every operator of the plan once")
        inputs = {
            new_of[op_id].id: [new_of[p.id] for p in slots]
            for op_id, slots in self._inputs.items()
        }
        if len(inputs) != len(new_of):
            raise PlanError("two replacements share an operator id")
        self._changed()
        self._operators = list(new_of.values())
        self._inputs = inputs

    def contract_chains(self, chains: Iterable[tuple[Sequence[OpT], OpT]]) -> None:
        """Replace each ``(members, new)`` chain by ``new``, all in one pass.

        ``members`` is a producer-to-consumer path whose members other than
        the tail feed only the next member.  ``new`` takes the head's
        position and input slots and serves the tail's consumers.
        """
        head_of: dict[int, OpT] = {}
        absorbed: dict[int, OpT] = {}
        for members, new in chains:
            head_of[members[0].id] = new
            for op in members[1:]:
                absorbed[op.id] = new
        operators: list[OpT] = []
        inputs: dict[int, list[OpT]] = {}
        for op in self._operators:
            if op.id in absorbed:
                continue
            slots = [absorbed.get(p.id, p) for p in self._inputs[op.id]]
            op = head_of.get(op.id, op)
            operators.append(op)
            inputs[op.id] = slots
        self._changed()
        self._operators = operators
        self._inputs = inputs

    def subgraph(self, members: Iterable[OpT]) -> "OperatorGraph[OpT]":
        """Build a new graph over ``members``, keeping edges internal to them.

        Edges from non-members are dropped; callers are responsible for
        tracking such boundary edges (the execution layer does this when it
        cuts task atoms).
        """
        member_set = {op.id for op in members}
        graph: OperatorGraph[OpT] = OperatorGraph()
        graph._operators = [op for op in self._operators if op.id in member_set]
        for op in graph._operators:
            graph._inputs[op.id] = [
                p for p in self._inputs[op.id] if p.id in member_set
            ]
        return graph

