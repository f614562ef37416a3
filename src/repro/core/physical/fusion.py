"""Narrow-operator fusion — a platform-layer optimization (paper §4.3).

"Once at a target processing platform, we envision a third optimization
phase that uses plugged-in platform-specific optimization tools" — the
paper names Starfish for Hadoop.  The analogue here: platforms that
execute per-quantum operator chains (map / filter / flat-map) can fuse a
chain inside a task atom into one :class:`PFusedPipeline`, paying a
single per-operator overhead and making a single pass over the data —
exactly what Spark's stage pipelining and a compiler like Starfish/Tungsten
buy on the real engines.

The rewrite is *plan surgery inside one atom*: results are unchanged
(the composed function is applied quantum-wise in stage order), only the
overhead accounting and pass count drop.  Platforms opt in via
:meth:`repro.platforms.base.Platform.optimize_atom`.

A fused chain's stage list compiles once into a nested iterator stack
(``map``/``filter``/``chain.from_iterable``) that makes a *single lazy
pass* over the input with no per-stage intermediate lists and no
Python-level loop; UDFs that are C callables (``operator.itemgetter``,
builtins) keep the whole pass in C.

Platforms that stream (java, flink) may additionally fuse a
:data:`FUSABLE_SOURCE_KINDS` source into the head of a chain
(``fuse_sources=True``): a text-file source then *streams* lines into
the first fused stage instead of materialising the whole file first.
"""

from __future__ import annotations

import operator as _operator
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.core.execution.plan import TaskAtom
from repro.core.logical.operators import CostHints
from repro.core.optimizer.cost import OperatorCostInput
from repro.core.optimizer.workunits import register_work_units
from repro.core.physical.compiled import note_kernel
from repro.core.physical.operators import (
    PFilter,
    PFlatMap,
    PMap,
    PhysicalOperator,
    PTextFileSource,
)

#: operator kinds fusable into a single per-quantum pass
FUSABLE_KINDS = frozenset({"map", "filter", "flatmap"})

#: source kinds that may stream into the head of a fused chain
FUSABLE_SOURCE_KINDS = frozenset({"source.textfile"})

#: C-level newline strip used by the streaming text-file head
_RSTRIP_NEWLINE = _operator.methodcaller("rstrip", "\n")


class PFusedPipeline(PhysicalOperator):
    """A chain of narrow per-quantum operators executed in one pass."""

    kind = "fused.narrow"

    def __init__(self, stages: list[PhysicalOperator]):
        super().__init__(None, "PFusedPipeline")
        self.stages = list(stages)
        if stages and stages[0].kind in FUSABLE_SOURCE_KINDS:
            # The chain starts at a fused source: the pipeline *is* the
            # source and consumes no upstream input.
            self.num_inputs = 0
        self._hints = CostHints(
            udf_load=sum(stage.hints.udf_load for stage in self.narrow_stages)
        )
        #: compilation cache (see :func:`pipeline_runner`)
        self._compiled: Callable[[Iterable[Any]], list[Any]] | None = None

    @property
    def source_stage(self) -> PhysicalOperator | None:
        """The fused source head, when the chain starts at one."""
        if self.stages and self.stages[0].kind in FUSABLE_SOURCE_KINDS:
            return self.stages[0]
        return None

    @property
    def narrow_stages(self) -> list[PhysicalOperator]:
        """The per-quantum stages (everything after a fused source head)."""
        if self.source_stage is not None:
            return self.stages[1:]
        return self.stages

    @property
    def hints(self) -> CostHints:
        return self._hints

    @property
    def shape(self) -> str:
        """Stage-kind signature, e.g. ``"map+filter+flatmap"``."""
        return "+".join(stage.kind for stage in self.stages)

    def describe(self) -> str:
        return f"{self.name}[{self.shape}]"


# ----------------------------------------------------------------------
# pipeline compilation
# ----------------------------------------------------------------------
def _steps_of(
    stages: list[PhysicalOperator],
) -> list[tuple[str, Callable]]:
    steps: list[tuple[str, Callable]] = []
    for stage in stages:
        if isinstance(stage, PMap):
            steps.append(("map", stage.udf))
        elif isinstance(stage, PFilter):
            steps.append(("filter", stage.predicate))
        elif isinstance(stage, PFlatMap):
            steps.append(("flatmap", stage.udf))
        else:  # pragma: no cover - guarded by FUSABLE_KINDS
            raise TypeError(f"not fusable: {stage!r}")
    return steps


def _compiled_stack(
    steps: list[tuple[str, Callable]], current: Iterable[Any]
) -> Iterator[Any]:
    """Nest the C-level iterators: one lazy pass, zero intermediates."""
    for kind, fn in steps:
        if kind == "map":
            current = map(fn, current)
        elif kind == "filter":
            current = filter(fn, current)
        else:
            current = chain.from_iterable(map(fn, current))
    return iter(current)


def compose_stages(
    stages: list[PhysicalOperator],
) -> Callable[[Iterable[Any]], list[Any]]:
    """Build the one-pass function applying every stage in order."""
    steps = _steps_of(stages)

    def run(data: Iterable[Any]) -> list[Any]:
        note_kernel("fused.compiled")
        return list(_compiled_stack(steps, data))

    return run


def compose_stream(
    stages: list[PhysicalOperator],
) -> Callable[[Iterable[Any]], Iterator[Any]]:
    """Lazy variant of :func:`compose_stages`: iterable in, iterator out.

    Used by streaming platforms (flink operator chaining) and by fused
    source heads, where the input should never be materialised up front.
    """
    steps = _steps_of(stages)

    def run(iterable: Iterable[Any]) -> Iterator[Any]:
        note_kernel("fused.compiled")
        return _compiled_stack(steps, iterable)

    return run


def pipeline_runner(
    pipeline: PFusedPipeline,
) -> Callable[[Iterable[Any]], list[Any]]:
    """The compiled runner for ``pipeline``'s narrow stages, built once."""
    runner = pipeline._compiled
    if runner is None:
        runner = pipeline._compiled = compose_stages(pipeline.narrow_stages)
    return runner


def iter_source(stage: PhysicalOperator) -> Iterator[Any]:
    """Stream the quanta of a source, one at a time.

    For a text-file source this yields stripped lines *while reading*,
    so a fused head's first stage starts before the file is fully read
    and the file is never materialised as a standalone list; a source
    that runs un-fused takes ``list()`` of the same stream.
    """
    if isinstance(stage, PTextFileSource):

        def lines() -> Iterator[str]:
            with open(stage.path, "r", encoding="utf-8") as handle:
                yield from map(_RSTRIP_NEWLINE, handle)

        return lines()
    raise TypeError(f"not a fusable source: {stage!r}")


# ----------------------------------------------------------------------
# plan surgery
# ----------------------------------------------------------------------
def fuse_narrow_chains(atom: TaskAtom, fuse_sources: bool = False) -> int:
    """Fuse fusable chains inside ``atom``'s fragment; returns #rewrites.

    A pair (producer → consumer) fuses when both are fusable kinds, the
    producer feeds only that consumer inside the atom, and **neither**
    operator's output is needed outside the atom — channels between atoms
    are keyed by operator id, so externally visible operators must keep
    their identity.  One walk in topological order grows each maximal
    run of such pairs, and one splice replaces every run by a single
    :class:`PFusedPipeline` at its head's position; the count returned
    is the number of fused pairs.

    With ``fuse_sources=True`` a :data:`FUSABLE_SOURCE_KINDS` source may
    additionally fuse into the head of the chain, streaming its quanta
    directly into the first narrow stage.  Platforms whose sources must
    stay standalone (e.g. the simulated Spark, whose per-partition
    workmeter pricing needs the source materialised into partitions)
    leave this off.
    """
    graph = atom.fragment
    outputs = atom.output_ids
    run_of: dict[int, list[PhysicalOperator]] = {}
    for consumer in graph.topological_order():
        if consumer.kind not in FUSABLE_KINDS or consumer.id in outputs:
            continue
        producers = graph.inputs_of(consumer)
        if len(producers) != 1:
            continue
        (producer,) = producers
        if producer.kind not in FUSABLE_KINDS and not (
            fuse_sources and producer.kind in FUSABLE_SOURCE_KINDS
        ):
            continue
        if producer.id in outputs or len(graph.consumers_of(producer)) != 1:
            continue
        run = run_of.setdefault(producer.id, [producer])
        run.append(consumer)
        run_of[consumer.id] = run
    runs = [run for head_id, run in run_of.items() if run[0].id == head_id]
    if not runs:
        return 0
    pipelines = [(run, PFusedPipeline(run)) for run in runs]
    # A head fed by another atom's channel hands its slot to the pipeline.
    # The executor pulls channels in dict order, so re-keyed entries go
    # last, ordered by the insertion position of their run's last member.
    fed = [(run, pipe) for run, pipe in pipelines
           if (run[0].id, 0) in atom.external_inputs]
    if fed:
        position = {op.id: index for index, op in enumerate(graph)}
        fed.sort(key=lambda item: max(position[op.id] for op in item[0][1:]))
        for run, pipe in fed:
            atom.external_inputs[(pipe.id, 0)] = atom.external_inputs.pop(
                (run[0].id, 0)
            )
    graph.contract_chains(pipelines)
    return sum(len(run) - 1 for run in runs)


def _fused_work_units(cost_input: OperatorCostInput) -> float:
    if cost_input.input_cards:
        n = cost_input.input_cards[0]
    else:
        # Source-head pipeline: no upstream input; the stream length is
        # bounded below by what survives to the output.
        n = cost_input.output_card
    return n * cost_input.udf_load + 0.1 * cost_input.output_card


register_work_units("fused.narrow", _fused_work_units)
