"""Physical plans: platform-independent plans produced by the application
optimizer and consumed by the multi-platform task optimizer."""

from __future__ import annotations

from typing import Sequence

from repro.core.dag import OperatorGraph
from repro.core.physical.operators import PCollectSink, PhysicalOperator


class PhysicalPlan:
    """A DAG of physical operators.

    A physical plan expresses "algorithmic needs only, without being tied
    to a particular processing platform" (paper §2).  Operators may carry
    ``alternates`` — algorithmic variants the enumerator can substitute.
    It arrives valid from the application optimizer: nothing re-validates it.
    """

    def __init__(self) -> None:
        self.graph: OperatorGraph[PhysicalOperator] = OperatorGraph()

    def add(
        self, operator: PhysicalOperator, inputs: Sequence[PhysicalOperator] = ()
    ) -> PhysicalOperator:
        """Add ``operator`` wired to ``inputs``; returns it for chaining."""
        return self.graph.add(operator, inputs)

    def collect_sinks(self) -> tuple[PCollectSink, ...]:
        """The sinks whose content is returned to the caller."""
        return tuple(op for op in self.graph if isinstance(op, PCollectSink))

    def explain(self) -> str:
        """Human-readable rendering of the plan DAG."""
        return self.graph.explain()

    def __len__(self) -> int:
        return len(self.graph)
