"""Execution plans: task atoms assigned to platforms.

The multi-platform task optimizer "divides a physical plan into task
atoms, i.e. sub-tasks, which are the units of execution.  A task atom is
a sub-task to be executed on a single data processing platform" (§3.1).
An :class:`ExecutionPlan` is a DAG of such atoms; edges between atoms are
channel hand-offs priced by the movement cost model.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core.dag import OperatorGraph
from repro.core.physical.operators import PCollectSink, PhysicalOperator, PRepeat

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.base import Platform

_ATOM_IDS = itertools.count(1)


class TaskAtom:
    """A maximal single-platform fragment of the physical plan.

    Attributes
    ----------
    platform:
        The processing platform this atom is scheduled on.
    fragment:
        The sub-DAG of physical operators (internal edges only).
    external_inputs:
        ``(consumer_op_id, slot_index) -> producer_op_id`` for every input
        slot whose producer lives in another atom.  The executor satisfies
        these from channels.
    output_ids:
        Operator ids whose results must be egested (consumed by another
        atom, or plan results).
    """

    def __init__(
        self,
        platform: "Platform",
        fragment: OperatorGraph[PhysicalOperator],
        external_inputs: dict[tuple[int, int], int],
        output_ids: set[int],
    ):
        self.id: int = next(_ATOM_IDS)
        self.platform = platform
        self.fragment = fragment
        self.external_inputs = external_inputs
        self.output_ids = output_ids

    @property
    def operator_ids(self) -> set[int]:
        """Ids of the physical operators inside this atom."""
        return {op.id for op in self.fragment}

    def describe(self) -> str:
        """One-line summary used by ``ExecutionPlan.explain``."""
        ops = ", ".join(op.describe() for op in self.fragment.topological_order())
        return f"atom#{self.id}@{self.platform.name}[{ops}]"

    def __repr__(self) -> str:
        return f"<TaskAtom #{self.id} {self.platform.name} ops={len(self.fragment)}>"


class LoopAtom:
    """A loop (``PRepeat``) scheduled as a unit on one platform.

    The body is a nested :class:`ExecutionPlan` whose atoms all run on the
    same platform; the executor iterates it, binding the loop-input
    operator to the evolving state channel.
    """

    def __init__(
        self,
        platform: "Platform",
        repeat: PRepeat,
        body_plan: "ExecutionPlan",
        state_producer_id: int,
    ):
        self.id: int = next(_ATOM_IDS)
        self.platform = platform
        self.repeat = repeat
        self.body_plan = body_plan
        #: id of the operator (in the *outer* plan) producing the initial state.
        self.state_producer_id = state_producer_id

    @property
    def operator_ids(self) -> set[int]:
        return {self.repeat.id}

    @property
    def output_ids(self) -> set[int]:
        return {self.repeat.id}

    def describe(self) -> str:
        return (
            f"loop#{self.id}@{self.platform.name}"
            f"(iterations<={self.repeat.iteration_bound}, "
            f"body_atoms={len(self.body_plan.atoms)})"
        )

    def __repr__(self) -> str:
        return f"<LoopAtom #{self.id} {self.platform.name}>"


class ExecutionPlan:
    """A topologically ordered list of task atoms plus result bookkeeping."""

    def __init__(
        self,
        atoms: list[TaskAtom | LoopAtom],
        collect_sinks: tuple[PCollectSink, ...],
        estimates: dict[int, float] | None = None,
    ):
        self.atoms = atoms
        self.collect_sinks = collect_sinks
        #: optimizer cardinality estimates (operator id -> cardinality),
        #: kept so the Executor can report misestimates at run time
        self.estimates = estimates or {}
        #: operator id -> operator kind at estimate time (a committed
        #: variant keeps the id, not the kind) — lets the Executor tag
        #: boundary observations for the cross-run CalibrationStore
        self.estimate_kinds: dict[int, str] = {}
        #: operator id -> correction factor a calibrated estimator
        #: applied to ``estimates[id]`` (only ids whose estimate moved);
        #: divided back out when observations are fed to the store
        self.estimate_corrections: dict[int, float] = {}
        #: the physical plan this execution plan was cut from (set by
        #: MultiPlatformOptimizer.optimize; None for nested loop-body
        #: plans).  The Executor's failover path re-plans the unexecuted
        #: suffix of this plan when a platform is quarantined.
        self.source_plan: Any | None = None

    @property
    def platforms(self) -> tuple["Platform", ...]:
        """Distinct platforms used, in first-use order (loops included)."""
        seen: dict[str, Any] = {}
        for atom in self.atoms:
            seen.setdefault(atom.platform.name, atom.platform)
            if isinstance(atom, LoopAtom):
                for platform in atom.body_plan.platforms:
                    seen.setdefault(platform.name, platform)
        return tuple(seen.values())

    def atom_of(self, operator_id: int) -> TaskAtom | LoopAtom:
        """Return the atom containing the given physical operator."""
        for atom in self.atoms:
            if operator_id in atom.operator_ids:
                return atom
        raise KeyError(f"no atom contains operator id {operator_id}")

    def explain(self) -> str:
        """Multi-line rendering of the atom schedule."""
        return "\n".join(atom.describe() for atom in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)
