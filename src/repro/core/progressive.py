"""Progressive (adaptive) re-optimization.

The paper's Executor "monitors the progress of plan execution" (§4.2);
this module closes the loop the monitoring enables — and that the RHEEM
line of work later shipped as *progressive optimization*: when the
cardinality observed at a task-atom boundary contradicts the optimizer's
estimate badly enough, execution pauses, the **remaining** plan is
rebuilt with the materialised intermediate data injected as exact-size
sources, and the multi-platform optimizer re-runs over it — so the tail
of the plan is placed using *real* cardinalities instead of stale
estimates.

Mechanics:

* the run goes through the ordinary :meth:`Executor.execute` — same atom
  driver, spans, events, retries, admission and parallelism as any other
  plan; this class only installs the after-atom hook and the tail
  re-plan that :meth:`Executor.execute` continues with;
* after each atom, its boundary outputs are compared against the round's
  estimates.  The run's misestimate-factor *distribution* drives the
  decision: boundary factors accumulate in a per-round histogram window
  (the same buckets as the ``misestimate_factor`` metric) and a replan
  fires when the window's **p90 drifts above the drift band** — one
  gross outlier or a broad pattern of moderate misestimates both
  qualify, while a single noisy boundary amid many good ones does not.
  Replans stay bounded by ``max_replans``;
* with a :class:`~repro.core.optimizer.calibration.CalibrationStore`
  attached, every boundary observation is folded into cross-run priors
  at the end of the run, and (via a
  :class:`~repro.core.optimizer.cardinality.CalibratedCardinalityEstimator`
  on the task optimizer) the next run starts from corrected estimates —
  so runs 2..N misestimate less and replan less;
* the remainder plan reuses the original operator objects (ids — and
  therefore channels and collect sinks — stay stable) and replaces every
  already-computed producer with an in-memory source holding the actual
  channel data;
* platform start-ups are charged once across all rounds.

Variant choices committed in earlier rounds are kept (their alternates
were consumed); re-optimization re-decides *platforms* for the tail.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.channels import CollectionChannel
from repro.core.executor import ExecutionResult, Executor
from repro.core.execution.plan import ExecutionPlan, LoopAtom, TaskAtom
from repro.core.metrics import (
    MISESTIMATE_BUCKETS,
    CardinalityMisestimate,
    ExecutionMetrics,
)
from repro.core.observability.registry import HistogramSeries
from repro.core.observability.spans import KIND_OPTIMIZER
from repro.core.physical.plan import PhysicalPlan
from repro.core.replan import plan_operator_ids, remainder_plan
from repro.core.runtime import RuntimeContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer.enumerator import MultiPlatformOptimizer


class ProgressiveExecutor(Executor):
    """An Executor that re-optimizes the plan tail on misestimates.

    The replan trigger is *distributional*: per optimization round,
    boundary misestimate factors accumulate into a histogram window
    (:data:`~repro.core.metrics.MISESTIMATE_BUCKETS` resolution) and a
    replan fires when the window p90 reaches the high edge of
    :attr:`DRIFT_BAND`.  The window resets each round — after a replan
    the tail is re-estimated from exact materialised cardinalities, so
    stale drift must not keep re-triggering.

    The rest of the executor configuration (movement model, retries,
    calibration store, listeners) is the owning context's:
    :meth:`RheemContext.execute_adaptive` copies it over.
    """

    #: (low, high): a replan fires when the round's p90 folded factor
    #: reaches ``high``; ``low`` is the healthy edge.
    DRIFT_BAND = (1.0, 4.0)

    def __init__(
        self,
        task_optimizer: "MultiPlatformOptimizer",
        max_replans: int = 3,
    ):
        super().__init__(
            task_optimizer.movement, task_optimizer=task_optimizer
        )
        self.max_replans = max_replans
        self._begin_run(None)

    def _begin_run(self, forced_platform: str | None) -> None:
        """Reset the per-run adaptive state."""
        self._forced_platform = forced_platform
        self._replans = 0
        # Per-round drift window: replans re-estimate the tail from
        # exact cardinalities, so drift evidence must not carry over.
        self._window = HistogramSeries(MISESTIMATE_BUCKETS)

    # ------------------------------------------------------------------
    def execute_progressively(
        self,
        physical: PhysicalPlan,
        runtime: RuntimeContext | None = None,
        forced_platform: str | None = None,
    ) -> tuple[ExecutionResult, int]:
        """Run ``physical`` with adaptive replanning.

        Returns the execution result and the number of replans performed.
        """
        runtime = runtime or RuntimeContext()
        self._begin_run(forced_platform)
        execution = self.task_optimizer.optimize(
            physical,
            forced_platform=forced_platform,
            tracer=getattr(runtime, "tracer", None),
        )
        return self.execute(execution, runtime), self._replans

    def _after_atom(
        self,
        plan: ExecutionPlan,
        index: int,
        channels: dict[int, CollectionChannel],
    ) -> bool:
        """The after-atom hook: whether to cut the segment after
        ``index`` and re-plan the tail (see :meth:`_replan_tail`)."""
        if index + 1 >= len(plan.atoms) or self._replans >= self.max_replans:
            return False
        return self._drift_exceeded(
            plan.atoms[index], channels, plan, self._window
        )

    def _replan_tail(
        self,
        current: ExecutionPlan,
        index: int,
        channels: dict[int, CollectionChannel],
        metrics: ExecutionMetrics,
    ) -> ExecutionPlan:
        """Re-optimize what follows ``current.atoms[index]``, with every
        materialised channel injected as an exact-cardinality source."""
        atom = current.atoms[index]
        tracer = metrics.ledger.tracer
        executed: set[int] = set()
        for done in current.atoms[: index + 1]:
            executed |= plan_operator_ids(done)
        remainder = remainder_plan(current.source_plan, executed, channels)
        self._replans += 1
        metrics.registry.counter(
            "replans_adaptive",
            "plan-tail replans triggered by p90 drift",
        ).inc()
        if tracer is not None:
            # A zero-charge span between atoms carries the drift event.
            with tracer.span("replan", KIND_OPTIMIZER):
                tracer.event(
                    "PLAN_REPLANNED",
                    trigger="p90_drift",
                    p90=self._window.quantile(0.9),
                    band_high=self.DRIFT_BAND[1],
                    boundaries=self._window.n,
                    atoms_executed=index + 1,
                    replan=self._replans,
                )
        metrics.ledger.charge("replan", 0.5, atom.platform.name, atom.id)
        self._window = HistogramSeries(MISESTIMATE_BUCKETS)
        return self.task_optimizer.optimize(
            remainder, forced_platform=self._forced_platform, tracer=tracer
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _boundary_factors(atom, channels, execution):
        """Folded misestimate factor of each comparable output boundary."""
        for op_id in atom.output_ids:
            estimated = execution.estimates.get(op_id)
            channel = channels.get(op_id)
            if estimated is not None and channel is not None:
                yield CardinalityMisestimate(
                    op_id, estimated, len(channel)
                ).factor

    def _drift_exceeded(
        self,
        atom: TaskAtom | LoopAtom,
        channels: dict[int, CollectionChannel],
        execution: ExecutionPlan,
        window: HistogramSeries,
    ) -> bool:
        """Fold the atom's boundary factors into the round window and
        test the p90 against the drift band's high edge.

        Infinite factors (a zero on one side of the comparison) cannot
        be bucketed; they are treated as an immediate drift breach.
        """
        breached = False
        for factor in self._boundary_factors(atom, channels, execution):
            if factor == float("inf"):
                breached = True
            else:
                window.observe(factor)
        if breached:
            return True
        return window.n > 0 and window.quantile(0.9) >= self.DRIFT_BAND[1]
