"""The end-user entry point: :class:`RheemContext` and the fluent
:class:`DataQuanta` plan builder.

A context wires together the whole stack — operator mappings, rewrite
rules, cardinality estimation, cost models, platforms, storage catalog and
executor — and exposes a small, chainable API::

    ctx = RheemContext()
    words = (
        ctx.collection(lines)
        .flat_map(str.split)
        .map(lambda word: (word, 1))
        .reduce_by(key=lambda pair: pair[0],
                   reducer=lambda a, b: (a[0], a[1] + b[1]))
        .collect()
    )

``collect`` runs the three-layer pipeline: application optimizer (logical
rewrites + translation), multi-platform task optimizer (variant/platform
choice, atom cutting) and the Executor.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.executor import ExecutionResult, Executor
from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    CostHints,
    Count,
    CrossProduct,
    Distinct,
    Filter,
    FlatMap,
    GlobalReduce,
    GroupBy,
    Join,
    Limit,
    LogicalOperator,
    LoopInput,
    Map,
    ReduceBy,
    Repeat,
    Sample,
    Sort,
    TableSource,
    TextFileSource,
    Union,
    ZipWithId,
)
from repro.core.logical.plan import LogicalPlan
from repro.core.mappings import OperatorMappings, default_mappings
from repro.core.metrics import CostEntry, ExecutionMetrics
from repro.core.optimizer.application import ApplicationOptimizer
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.cost import MovementCostModel
from repro.core.optimizer.enumerator import MultiPlatformOptimizer
from repro.core.optimizer.rules import RuleRegistry, default_rules
from repro.core.runtime import FailureInjector, RuntimeContext
from repro.errors import ValidationError


class _PlanBuilder:
    """Shared holder so chained DataQuanta see one evolving logical plan."""

    __slots__ = ("plan",)

    def __init__(self, plan: LogicalPlan):
        self.plan = plan


class RheemContext:
    """Configuration root and execution facade."""

    def __init__(
        self,
        platforms: "list | None" = None,
        mappings: OperatorMappings | None = None,
        rules: RuleRegistry | None = None,
        estimator: CardinalityEstimator | None = None,
        movement: MovementCostModel | None = None,
        catalog: "Any | None" = None,
        failure_injector: FailureInjector | None = None,
        max_retries: int = 2,
        failover: bool = False,
        backoff: "Any | None" = None,
        tracer: "Any | None" = None,
        parallelism: int | None = None,
        execution_mode: str | None = None,
        columnar: bool | None = None,
        columnar_native: bool | None = None,
        calibrate: "Any | None" = None,
        deadline_ms: float | None = None,
        profile: bool | None = None,
    ):
        """``failover=True`` lets the Executor re-plan the remaining plan
        suffix on surviving platforms when an atom exhausts its retries
        (the platform is quarantined first); ``backoff`` overrides the
        default :class:`~repro.core.resilience.BackoffPolicy`;
        ``tracer`` (a :class:`~repro.core.observability.Tracer`) enables
        end-to-end span tracing — optimizer, executor, platform operators
        and data movement — for every plan this context executes;
        ``parallelism`` > 1 runs independent task atoms concurrently
        (default 1, or the ``REPRO_PARALLELISM`` environment variable);
        ``execution_mode`` picks the concurrent scheduler's backend:
        ``"thread"`` (default, or ``REPRO_EXECUTION_MODE``) or
        ``"process"`` — forked worker processes; outputs and
        accounting are byte-identical either way;
        ``columnar=True`` packs numeric channel hand-offs into
        struct-of-arrays buffers, with conversion charged to the ledger
        (default off, or the ``REPRO_COLUMNAR`` environment variable);
        ``columnar_native=True`` (the default when columnar is on) lets
        eligible consumers read the column buffers in place, eliding the
        row materialisation (``columnar.elide`` ledger entries; wall
        time only);
        ``calibrate`` turns on cross-run cardinality calibration:
        ``True`` attaches a fresh
        :class:`~repro.core.optimizer.calibration.CalibrationStore`, or
        pass an existing store to share priors across contexts /
        processes.  The estimator is wrapped in a
        :class:`~repro.core.optimizer.cardinality.CalibratedCardinalityEstimator`
        and every execution's boundary observations are folded back into
        the store;
        ``deadline_ms`` bounds each atom attempt's wall-clock time —
        overruns are charged, counted and escalated through the
        failover ladder (default off);
        ``profile=True`` attaches real-resource attribution (CPU,
        peak allocation, GC pauses, queue wait, channel bytes) to every
        atom span and the metrics registry (default off, or
        ``REPRO_PROFILE``)."""
        if platforms is None:
            from repro.platforms import default_platforms

            platforms = default_platforms()
        self.platforms = platforms
        self.mappings = mappings or default_mappings()
        self.rules = rules or default_rules()
        if estimator is None and catalog is not None:
            from repro.storage.catalog import CatalogAwareEstimator

            estimator = CatalogAwareEstimator(catalog)
        self.estimator = estimator or CardinalityEstimator()
        #: optional cross-run CalibrationStore (None: calibration off)
        self.calibration = None
        if calibrate:
            from repro.core.optimizer.calibration import CalibrationStore
            from repro.core.optimizer.cardinality import (
                CalibratedCardinalityEstimator,
            )

            self.calibration = (
                calibrate
                if isinstance(calibrate, CalibrationStore)
                else CalibrationStore()
            )
            self.estimator = CalibratedCardinalityEstimator(
                self.calibration, base=self.estimator
            )
        self.movement = movement or MovementCostModel()
        self.catalog = catalog
        self.failure_injector = failure_injector
        self.app_optimizer = ApplicationOptimizer(self.mappings, self.rules)
        self.task_optimizer = MultiPlatformOptimizer(
            self.platforms, self.estimator, self.movement
        )
        self.executor = Executor(
            self.movement,
            max_retries=max_retries,
            backoff=backoff,
            task_optimizer=self.task_optimizer,
            failover=failover,
            parallelism=parallelism,
            execution_mode=execution_mode,
            columnar=columnar,
            columnar_native=columnar_native,
            calibration=self.calibration,
            deadline_ms=deadline_ms,
            profile=profile,
        )
        #: optional Tracer; when set every execute() is traced end-to-end
        self.tracer = tracer
        #: optional :class:`~repro.core.serving.plan_cache.PlanCache`;
        #: when set, execute() memoizes optimizer output by logical-plan
        #: fingerprint × calibration epoch × config epoch and skips
        #: enumeration entirely on a hit (installed by the serving daemon)
        self.plan_cache = None
        self._default_platform: str | None = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: "Any | None") -> None:
        """Attach (or detach, with None) an end-to-end tracer."""
        self.tracer = tracer
    def set_default_platform(self, name: str | None) -> None:
        """Pin all execution to one platform (None restores cost-based
        multi-platform optimization)."""
        if name is not None and name not in {p.name for p in self.platforms}:
            raise ValidationError(
                f"unknown platform {name!r}; "
                f"registered: {[p.name for p in self.platforms]}"
            )
        self._default_platform = name

    def platform(self, name: str):
        """Return the registered platform called ``name``."""
        for platform in self.platforms:
            if platform.name == name:
                return platform
        raise ValidationError(f"unknown platform {name!r}")

    # ------------------------------------------------------------------
    # plan building
    # ------------------------------------------------------------------
    def collection(self, data: Sequence[Any], name: str | None = None) -> "DataQuanta":
        """Start a plan from an in-memory collection."""
        builder = _PlanBuilder(LogicalPlan())
        op = builder.plan.add(CollectionSource(data, name))
        return DataQuanta(self, builder, op)

    def textfile(self, path: str) -> "DataQuanta":
        """Start a plan from the lines of a text file."""
        builder = _PlanBuilder(LogicalPlan())
        op = builder.plan.add(TextFileSource(path))
        return DataQuanta(self, builder, op)

    def table(self, dataset: str) -> "DataQuanta":
        """Start a plan from a dataset registered in the storage catalog
        (or stored natively in the relational platform)."""
        builder = _PlanBuilder(LogicalPlan())
        op = builder.plan.add(TableSource(dataset))
        return DataQuanta(self, builder, op)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: LogicalPlan,
        platform: str | None = None,
        runtime: RuntimeContext | None = None,
        *,
        fingerprint: str | None = None,
    ) -> ExecutionResult:
        """Run a logical plan through all three layers and return results.

        With a :attr:`plan_cache` attached, the optimizer layers are
        consulted only on a cache miss: a repeat fingerprint (same
        structure, UDF code, data, platform, calibration epoch and
        config epoch) replays the memoized execution plan with zero
        enumeration — no optimizer spans, a zero-ms ``plan_cache.hit``
        ledger entry, outputs and virtual time byte-identical to the
        cold run.  ``fingerprint`` is ``plan``'s
        :func:`~repro.core.optimizer.fingerprint.logical_plan_fingerprint`
        when the caller already holds it (the serving daemon memoises it
        per request spec); it is computed here otherwise.
        """
        from repro.core.observability.spans import KIND_TASK, maybe_span

        tracer = self.tracer
        if runtime is not None and getattr(runtime, "tracer", None) is not None:
            tracer = runtime.tracer
        cache = self.plan_cache
        with maybe_span(tracer, "task", KIND_TASK) as task_span:
            execution = None
            cache_key = None
            if cache is not None:
                from repro.core.optimizer.fingerprint import (
                    logical_plan_fingerprint,
                )
                from repro.core.serving.plan_cache import plan_cache_key

                if fingerprint is None:
                    fingerprint = logical_plan_fingerprint(plan)
                cache_key = plan_cache_key(
                    fingerprint,
                    platform or self._default_platform,
                    self.calibration.epoch
                    if self.calibration is not None
                    else 0,
                    self.executor._config_epoch(),
                )
                execution = cache.get(cache_key)
            cached = execution is not None
            if not cached:
                physical = self.app_optimizer.optimize(plan, tracer=tracer)
                execution = self.task_optimizer.optimize(
                    physical,
                    forced_platform=platform or self._default_platform,
                    tracer=tracer,
                )
                if cache is not None:
                    cache.put(cache_key, execution)
            if runtime is None:
                runtime = RuntimeContext(
                    catalog=self.catalog,
                    failure_injector=self.failure_injector,
                    tracer=tracer,
                )
            elif getattr(runtime, "tracer", None) is None:
                runtime.tracer = tracer
            result = self.executor.execute(execution, runtime)
            if cache is not None:
                result.plan_cache = "hit" if cached else "miss"
                if cached:
                    # Zero-ms marker where the enumerator spans would
                    # have been: 0.0 + x == x for every float, so the
                    # virtual total stays bit-identical to a cold run.
                    result.metrics.ledger.entries.insert(
                        0, CostEntry("plan_cache.hit", 0.0, "serving")
                    )
                result.metrics.registry.counter(
                    "plan_cache_requests",
                    "plan-cache lookups by outcome",
                ).inc(result=result.plan_cache)
                if tracer is not None:
                    task_span.set(plan_cache=result.plan_cache)
            return result

    def execute_adaptive(
        self,
        plan: LogicalPlan,
        platform: str | None = None,
        runtime: RuntimeContext | None = None,
    ) -> tuple[ExecutionResult, int]:
        """Run a logical plan with progressive re-optimization.

        Like :meth:`execute`, but the executor replans the remaining plan
        whenever observed cardinalities contradict the optimizer's
        estimates (see :mod:`repro.core.progressive`).  The run goes
        through the same atom driver under this context's whole executor
        configuration.  Returns the result plus the number of replans
        performed.
        """
        from repro.core.progressive import ProgressiveExecutor

        physical = self.app_optimizer.optimize(plan, tracer=self.tracer)
        if runtime is None:
            runtime = RuntimeContext(
                catalog=self.catalog,
                failure_injector=self.failure_injector,
                tracer=self.tracer,
            )
        progressive = ProgressiveExecutor(self.task_optimizer)
        # Run under this context's configuration: everything the
        # executor was built with or handed since (listeners, slot pool),
        # not a hand-picked subset of it.
        vars(progressive).update(vars(self.executor))
        return progressive.execute_progressively(
            physical,
            runtime,
            forced_platform=platform or self._default_platform,
        )


class DataQuanta:
    """A fluent handle on the output of one logical operator.

    Each transformation appends an operator to the underlying logical
    plan and returns a new handle; nothing executes until a terminal
    action (:meth:`collect`, :meth:`collect_with_metrics`).
    """

    def __init__(self, ctx: RheemContext, builder: _PlanBuilder, op: LogicalOperator):
        self._ctx = ctx
        self._builder = builder
        self._op = op

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def plan(self) -> LogicalPlan:
        """The logical plan under construction."""
        return self._builder.plan

    @property
    def operator(self) -> LogicalOperator:
        """The logical operator this handle points at."""
        return self._op

    def _append(self, op: LogicalOperator) -> "DataQuanta":
        self._builder.plan.add(op, [self._op])
        return DataQuanta(self._ctx, self._builder, op)

    def _append_binary(self, op: LogicalOperator, other: "DataQuanta") -> "DataQuanta":
        if other._builder is not self._builder:
            self._builder.plan.graph.absorb(other._builder.plan.graph)
            other._builder.plan = self._builder.plan
        self._builder.plan.add(op, [self._op, other._op])
        return DataQuanta(self._ctx, self._builder, op)

    def apply_operator(self, op: LogicalOperator) -> "DataQuanta":
        """Append an application-defined unary logical operator.

        The extension point for applications bringing their own operators
        (e.g. the cleaning application's ``InequalityJoin``): any operator
        with a registered logical→physical mapping can join the plan.
        """
        return self._append(op)

    def apply_binary_operator(
        self, op: LogicalOperator, other: "DataQuanta"
    ) -> "DataQuanta":
        """Append an application-defined binary logical operator."""
        return self._append_binary(op, other)

    def source(self, data: Sequence[Any], name: str | None = None) -> "DataQuanta":
        """Add another collection source to this same plan.

        Mainly useful inside :meth:`repeat` bodies, where side inputs must
        live in the loop's body plan.
        """
        op = self._builder.plan.add(CollectionSource(data, name))
        return DataQuanta(self._ctx, self._builder, op)

    # ------------------------------------------------------------------
    # unary transformations
    # ------------------------------------------------------------------
    def map(self, udf: Callable[[Any], Any], *, name: str | None = None,
            hints: CostHints | None = None) -> "DataQuanta":
        """Apply ``udf`` to every quantum."""
        return self._append(Map(udf, name, hints))

    def flat_map(self, udf: Callable[[Any], Any], *, name: str | None = None,
                 hints: CostHints | None = None) -> "DataQuanta":
        """Apply ``udf`` yielding zero or more quanta per input."""
        return self._append(FlatMap(udf, name, hints))

    def filter(self, predicate: Callable[[Any], bool], *, name: str | None = None,
               hints: CostHints | None = None) -> "DataQuanta":
        """Keep quanta satisfying ``predicate``."""
        return self._append(Filter(predicate, name, hints))

    def zip_with_id(self) -> "DataQuanta":
        """Pair every quantum with a dense unique id: ``(id, quantum)``."""
        return self._append(ZipWithId())

    def group_by(self, key: Callable[[Any], Any], *, name: str | None = None,
                 hints: CostHints | None = None) -> "DataQuanta":
        """Group into ``(key, [quanta])`` pairs."""
        return self._append(GroupBy(key, name=name, hints=hints))

    def reduce_by(self, key: Callable[[Any], Any],
                  reducer: Callable[[Any, Any], Any], *,
                  name: str | None = None,
                  hints: CostHints | None = None) -> "DataQuanta":
        """Combine quanta sharing a key (one combined quantum per key).

        The reducer must preserve the key of its operands.
        """
        return self._append(ReduceBy(key, reducer, name=name, hints=hints))

    def reduce(self, reducer: Callable[[Any, Any], Any], *,
               name: str | None = None,
               hints: CostHints | None = None) -> "DataQuanta":
        """Fold the whole dataset into a single quantum."""
        return self._append(GlobalReduce(reducer, name=name, hints=hints))

    def sort(self, key: Callable[[Any], Any], *, reverse: bool = False) -> "DataQuanta":
        """Totally order the dataset."""
        return self._append(Sort(key, reverse))

    def distinct(self) -> "DataQuanta":
        """Drop duplicate quanta."""
        return self._append(Distinct())

    def sample(self, size: int, seed: int = 0) -> "DataQuanta":
        """Keep a uniform random sample of ``size`` quanta."""
        return self._append(Sample(size, seed))

    def count(self) -> "DataQuanta":
        """Reduce to a single integer count."""
        return self._append(Count())

    def limit(self, n: int) -> "DataQuanta":
        """Keep only the first ``n`` quanta (in upstream order)."""
        return self._append(Limit(n))

    # ------------------------------------------------------------------
    # binary transformations
    # ------------------------------------------------------------------
    def join(self, other: "DataQuanta", left_key: Callable[[Any], Any],
             right_key: Callable[[Any], Any], *,
             hints: CostHints | None = None) -> "DataQuanta":
        """Equi-join with ``other``; yields ``(left, right)`` pairs."""
        return self._append_binary(Join(left_key, right_key, hints=hints), other)

    def cross(self, other: "DataQuanta", *,
              hints: CostHints | None = None) -> "DataQuanta":
        """Cartesian product with ``other``."""
        return self._append_binary(CrossProduct(hints=hints), other)

    def union(self, other: "DataQuanta") -> "DataQuanta":
        """Bag union with ``other``."""
        return self._append_binary(Union(), other)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def repeat(
        self,
        times: int | None,
        body: Callable[["DataQuanta"], "DataQuanta"],
        *,
        condition: Callable[[list[Any]], bool] | None = None,
        max_iterations: int = 1000,
    ) -> "DataQuanta":
        """Iterate ``body`` over this dataset as evolving loop state.

        ``body`` receives a handle on the loop state and returns the
        handle holding the next state; it may add side inputs with
        :meth:`source`.  Stops after ``times`` iterations and/or when
        ``condition(state)`` is true.
        """
        body_builder = _PlanBuilder(LogicalPlan())
        loop_input = LoopInput()
        body_builder.plan.add(loop_input)
        state_handle = DataQuanta(self._ctx, body_builder, loop_input)
        result_handle = body(state_handle)
        if result_handle._builder is not body_builder:
            raise ValidationError(
                "repeat body must build on the provided state handle"
            )
        repeat = Repeat(
            body=body_builder.plan,
            body_input=loop_input,
            body_output=result_handle._op,
            times=times,
            condition=condition,
            max_iterations=max_iterations,
        )
        return self._append(repeat)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self, platform: str | None = None) -> list[Any]:
        """Execute the plan and return this handle's quanta."""
        return self.collect_with_metrics(platform)[0]

    def collect_with_metrics(
        self, platform: str | None = None
    ) -> tuple[list[Any], ExecutionMetrics]:
        """Execute the plan; return (results, execution metrics)."""
        sink = CollectSink()
        self._builder.plan.add(sink, [self._op])
        try:
            result = self._ctx.execute(self._builder.plan, platform=platform)
        finally:
            # Keep the handle reusable: drop the sink we appended.
            self._builder.plan.graph.remove_unary(sink)
        # Outputs are keyed by physical sink id; we added exactly one sink.
        return result.single, result.metrics

    def explain(self) -> str:
        """Render the logical plan under construction."""
        return self._builder.plan.explain()
