"""Platform layer base classes.

A :class:`Platform` models one underlying processing engine.  It owns:

* the set of physical operator *kinds* it executes, and its way of
  applying the shared kernel of each kind
  (:data:`repro.core.physical.table.KERNELS`) to its native datasets —
  paper §3.2's execution operators, which here are a kernel entry plus
  the platform's application rule rather than one class per kind;
* a calibrated :class:`~repro.core.optimizer.cost.PlatformCostModel`;
* the engine's *native dataset representation* (a plain list for the
  in-process engine, a partitioned RDD for the simulated Spark, a
  relation for the mini relational engine) with ingest/egest conversions.

``execute_atom`` — the shared task-atom interpreter — walks the atom's
operator fragment in topological order, applying operators over native
datasets and charging the cost model with the **observed**
cardinalities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.core import workmeter
from repro.core.execution.plan import TaskAtom
from repro.core.metrics import CostLedger
from repro.core.optimizer.cost import OperatorCostInput, PlatformCostModel
from repro.core.physical.compiled import drain_kernel_note
from repro.core.physical.fusion import fuse_narrow_chains
from repro.core.physical.operators import PhysicalOperator, PRepeat
from repro.core.physical.table import BUILTIN_KINDS, KERNELS, Kernel
from repro.core.runtime import RuntimeContext
from repro.errors import ExecutionError, UnsupportedOperatorError


class Platform(ABC):
    """One simulated processing engine plus its operator mappings."""

    #: Unique platform name (used in metrics and plan explanations).
    name: str = "abstract"
    #: Data-processing profiles supported (paper §8 challenge 2): subset of
    #: {"batch", "iterative", "relational"}.
    profiles: frozenset[str] = frozenset({"batch"})
    #: How many task atoms the concurrent scheduler may run on this
    #: platform at once.  Distributed engines tolerate several concurrent
    #: jobs; single-connection engines (postgres) pin to 1.  The
    #: effective cap is ``min(executor.parallelism, max_concurrent_atoms)``.
    max_concurrent_atoms: int = 1
    #: Whether this platform's :meth:`apply` hands
    #: :class:`~repro.core.physical.columnar.ColumnarBatch` hand-offs to
    #: the kernels in place.  The executor only elides the
    #: ``columnar.egest`` row materialisation for consumers on platforms
    #: that opt in.
    columnar_native: bool = False
    #: Whether :meth:`optimize_atom` fuses narrow chains, and whether a
    #: streamable source may head a fused chain (see
    #: :func:`~repro.core.physical.fusion.fuse_narrow_chains`).
    fuse_narrow: bool = False
    fuse_sources: bool = False

    def __init__(self, cost_model: PlatformCostModel):
        self.cost_model = cost_model
        #: physical kinds this instance executes; an extension adds its
        #: kind to the instances it plugs into
        self.kinds: set[str] = set(BUILTIN_KINDS)

    # ------------------------------------------------------------------
    # physical operator execution
    # ------------------------------------------------------------------
    def supports(self, operator: PhysicalOperator) -> bool:
        """Whether this platform can execute ``operator``.

        Loops additionally require the ``iterative`` profile and support
        for every operator in the loop body.
        """
        if operator.kind == "source.loopinput":
            # Loop-state binding is handled by the atom interpreter itself.
            return True
        if isinstance(operator, PRepeat):
            if "iterative" not in self.profiles:
                return False
            return all(
                self.supports(body_op) or self._any_alternate(body_op)
                for body_op in operator.body.graph
            )
        return operator.kind in self.kinds

    def _any_alternate(self, operator: PhysicalOperator) -> bool:
        return any(alt.kind in self.kinds for alt in operator.alternates)

    def apply(
        self,
        operator: PhysicalOperator,
        inputs: list[Any],
        runtime: RuntimeContext,
        ledger: CostLedger,
    ) -> Any:
        """Run ``operator`` over native inputs; return a native output.

        The base rule calls the kind's kernel on the inputs as they are
        (native datasets that are plain lists).  Platforms with other
        natives override it; most of them do not touch ``ledger`` — the
        atom interpreter charges the standard per-operator cost — but an
        application with internal phases (per-task UDF metering) may
        charge supplements.
        """
        return self._kernel(operator)(operator, runtime, inputs)

    def _kernel(self, operator: PhysicalOperator) -> Kernel:
        """The table kernel of ``operator``'s kind, if this platform runs it."""
        if operator.kind not in self.kinds:
            raise UnsupportedOperatorError(
                f"platform {self.name!r} has no execution operator for "
                f"kind {operator.kind!r}"
            )
        return KERNELS[operator.kind]

    # ------------------------------------------------------------------
    # platform-layer optimization hook (paper §4.3)
    # ------------------------------------------------------------------
    def optimize_atom(self, atom: TaskAtom) -> None:
        """Refine a task atom with platform-specific optimizations.

        Called once per atom after the multi-platform optimizer cuts the
        plan — "a third optimization phase that uses plugged-in
        platform-specific optimization tools" (§4.3).  Platforms that
        pipeline narrow operators set :attr:`fuse_narrow` and get
        :func:`repro.core.physical.fusion.fuse_narrow_chains`.
        """
        if self.fuse_narrow:
            fuse_narrow_chains(atom, fuse_sources=self.fuse_sources)

    # ------------------------------------------------------------------
    # native dataset representation
    # ------------------------------------------------------------------
    @abstractmethod
    def ingest(self, data: list[Any]) -> Any:
        """Convert a platform-neutral collection into the native dataset."""

    @abstractmethod
    def egest(self, native: Any) -> list[Any]:
        """Materialise a native dataset into a platform-neutral list."""

    @abstractmethod
    def native_card(self, native: Any) -> int:
        """Number of data quanta in a native dataset."""

    # ------------------------------------------------------------------
    # task-atom interpretation
    # ------------------------------------------------------------------
    def execute_atom(
        self,
        atom: TaskAtom,
        external: dict[tuple[int, int], list[Any]],
        runtime: RuntimeContext,
    ) -> tuple[dict[int, list[Any]], CostLedger]:
        """Run one task atom; return egested boundary outputs and costs.

        ``external`` maps ``(operator_id, slot)`` to the already-moved
        input collection for every input slot crossing the atom boundary
        (movement itself is priced by the executor's movement model).
        """
        ledger = CostLedger()
        ledger.atom_id = atom.id
        # Traced runs: the atom-local ledger advances the same virtual
        # clock as the executor's ledger, so per-operator spans opened
        # below get exact virtual durations.  (The executor merges this
        # ledger without re-clocking.)
        ledger.tracer = getattr(runtime, "tracer", None)
        results: dict[int, Any] = {}
        for operator in atom.fragment.topological_order():
            inputs = self._assemble_inputs(atom, operator, external, results)
            native = self._run_operator(atom, operator, inputs, runtime, ledger)
            results[operator.id] = native
        outputs: dict[int, list[Any]] = {}
        for op_id in atom.output_ids:
            if op_id not in results:
                raise ExecutionError(
                    f"atom #{atom.id} did not produce required output {op_id}"
                )
            outputs[op_id] = self.egest(results[op_id])
        return outputs, ledger

    def _assemble_inputs(
        self,
        atom: TaskAtom,
        operator: PhysicalOperator,
        external: dict[tuple[int, int], list[Any]],
        results: dict[int, Any],
    ) -> list[Any]:
        internal_producers = list(atom.fragment.inputs_of(operator))
        inputs: list[Any] = []
        for slot in range(operator.num_inputs):
            if (operator.id, slot) in external:
                inputs.append(self.ingest(external[(operator.id, slot)]))
            else:
                if not internal_producers:
                    raise ExecutionError(
                        f"atom #{atom.id}: missing producer for slot {slot} "
                        f"of {operator!r}"
                    )
                producer = internal_producers.pop(0)
                inputs.append(results[producer.id])
        return inputs

    def _run_operator(
        self,
        atom: TaskAtom,
        operator: PhysicalOperator,
        inputs: list[Any],
        runtime: RuntimeContext,
        ledger: CostLedger,
    ) -> Any:
        tracer = ledger.tracer
        if tracer is None:  # untraced fast path: no span objects at all
            return self._apply_operator(atom, operator, inputs, runtime, ledger)
        from repro.core.observability.spans import KIND_PLATFORM

        attributes: dict[str, Any] = {
            "op": operator.id,
            "kind": operator.kind,
            "platform": self.name,
            "atom": atom.id,
        }
        # Kernel attribution: algorithmic variants carry the kernel name
        # as the kind suffix (groupby.hash, join.sortmerge, ...).
        if "." in operator.kind:
            attributes["kernel"] = operator.kind.split(".", 1)[1]
        stages = getattr(operator, "stages", None)
        if stages:  # platform-layer fusion attribution
            attributes["fused_stages"] = [stage.kind for stage in stages]
        drain_kernel_note()  # clear any stale note from untraced runs
        with tracer.span(
            f"op.{operator.kind}", KIND_PLATFORM, **attributes
        ) as span:
            native = self._apply_operator(atom, operator, inputs, runtime, ledger)
            span.set(output_card=self.native_card(native))
            batch_kernel = drain_kernel_note()
            if batch_kernel is not None:
                # which batch kernel actually engaged
                span.set(batch_kernel=batch_kernel)
            return native

    def _apply_operator(
        self,
        atom: TaskAtom,
        operator: PhysicalOperator,
        inputs: list[Any],
        runtime: RuntimeContext,
        ledger: CostLedger,
    ) -> Any:
        # Loop-state binding: a LoopInput source reads the executor-bound
        # current state instead of executing anything.
        if operator.kind == "source.loopinput":
            state = runtime.bound_sources.get(operator.id)
            if state is None:
                raise ExecutionError(
                    f"LoopInput {operator!r} executed outside a loop context"
                )
            native = self.ingest(state)
            ledger.charge(
                "loop.state_bind",
                self.cost_model.ingest_ms(len(state)),
                self.name,
                atom.id,
            )
            return native

        # Loop-invariant source caching (iterative drivers cache inputs).
        cache_key = (self.name, operator.id)
        if operator.is_source and cache_key in runtime.source_cache:
            native = runtime.source_cache[cache_key]
            ledger.charge(
                "op.cached_source",
                self.cost_model.cached_read_ms(self.native_card(native)),
                self.name,
                atom.id,
            )
            return native

        workmeter.drain_work()  # discard any stale units
        try:
            native = self.apply(operator, inputs, runtime, ledger)
        except (ExecutionError, UnsupportedOperatorError):
            raise
        except Exception as error:
            # A UDF (or operator implementation) raised outside the error
            # taxonomy: wrap it with atom/platform/operator context so it
            # hits the Executor's retry/failover machinery instead of
            # crashing the run bare.
            raise ExecutionError(
                f"atom #{atom.id} on {self.name!r}: operator "
                f"{operator.describe()} raised "
                f"{type(error).__name__}: {error}"
            ) from error
        reported = workmeter.drain_work()
        if reported:
            # Work the platform's application did not meter per task:
            # treat it as one task (single-node semantics).
            ledger.charge(
                "op.udf_work",
                self.cost_model.udf_work_ms(reported, reported),
                self.name,
                atom.id,
            )
        cost_input = OperatorCostInput(
            kind=operator.kind,
            input_cards=tuple(float(self.native_card(i)) for i in inputs),
            output_card=float(self.native_card(native)),
            udf_load=operator.hints.udf_load,
        )
        ledger.charge(
            f"op.{operator.kind}",
            self.cost_model.operator_ms(cost_input),
            self.name,
            atom.id,
        )
        if operator.is_source and runtime.caching_enabled:
            runtime.source_cache[cache_key] = native
        return native

    def __repr__(self) -> str:
        return f"<Platform {self.name}>"
