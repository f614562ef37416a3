"""The Executor (paper §4.2, Figure 1).

Responsible for "(i) scheduling the resulting execution plan on the
selected data processing frameworks, (ii) monitoring the progress of plan
execution, (iii) coping with failures, and (iv) aggregating and returning
results to users".

Concretely: task atoms run in dependency order on their assigned
platforms; channel hand-offs between platforms are priced by the movement
cost model; and all virtual-time charges are aggregated into
:class:`~repro.core.metrics.ExecutionMetrics`.

Coping with failures is a three-rung ladder (see
:mod:`repro.core.resilience`):

1. **retry** — a failed atom is re-attempted up to ``max_retries`` times
   on its own platform, with exponential backoff + deterministic jitter
   charged to the virtual-time ledger as ``retry.backoff``;
2. **quarantine** — every attempt feeds the per-platform circuit breaker
   on :class:`~repro.core.runtime.RuntimeContext`; an atom that exhausts
   its retries (or hits a :class:`~repro.errors.PlatformDownError`)
   opens its platform's breaker;
3. **failover** — with ``failover=True`` and a ``task_optimizer``
   attached, the Executor then asks the multi-platform optimizer to
   re-enumerate the *remaining* plan suffix with the quarantined
   platform excluded, re-using every already-materialised channel as an
   exact-cardinality bound source, and carries on.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.channels import CollectionChannel, ColumnarChannel
from repro.core.physical.columnar import can_elide, loop_state_consumers
from repro.core.checkpoint import plan_fingerprint
from repro.core.execution.plan import ExecutionPlan, LoopAtom, TaskAtom
from repro.core.listeners import (
    ATOM_FAILED_OVER,
    ATOM_FINISHED,
    ATOM_RETRIED,
    ATOM_STARTED,
    ATOM_TIMED_OUT,
    EXECUTION_FINISHED,
    EXECUTION_STARTED,
    LOOP_ITERATION,
    PLATFORM_QUARANTINED,
    RUN_RESUMED,
    ExecutionEvent,
    ExecutionListener,
)
from repro.core.metrics import (
    CalibrationObservation,
    CardinalityMisestimate,
    CostEntry,
    ExecutionMetrics,
)
from repro.core.recovery import config_epoch, import_registry_state
from repro.core.observability.resources import (
    ResourceProfiler,
    profiling_enabled,
)
from repro.core.observability.spans import (
    KIND_EXECUTOR,
    KIND_MOVEMENT,
    Tracer,
    maybe_span,
)
from repro.core.optimizer.cost import MovementCostModel
from repro.core.replan import plan_operator_ids, remainder_plan
from repro.core.resilience import BackoffPolicy
from repro.core.runtime import RuntimeContext
from repro.core.scheduler import (
    ConcurrentAtomScheduler,
    CriticalPath,
    SegmentCut,
    shard_runtime,
)
from repro.errors import (
    AtomDeadlineError,
    AtomExhaustedError,
    ExecutionError,
    OptimizationError,
    PlatformDownError,
    TransientError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer.calibration import CalibrationStore
    from repro.core.optimizer.enumerator import MultiPlatformOptimizer
    from repro.platforms.base import Platform


class _CollectorDeferral:
    """The cyclic collector's one policy: deferred while any run executes.

    Kernels allocate acyclic containers by the thousand, which the
    collector would re-scan hundreds of times per run.  The first run in
    disables it, the last out re-enables it; thresholds stay as they are.
    Each run pays for its own garbage on exit, on its own thread, with at
    most one pass over the oldest generation over its threshold, so runs
    that overlap without pause still free cyclic garbage.  A caller who
    disabled the collector is left alone.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs = 0
        self._was_enabled = False

    def enter(self) -> None:
        with self._lock:
            if self._runs == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._runs += 1

    def exit(self) -> None:
        # ``_was_enabled`` cannot change while this run is counted in.
        # The pass runs outside the lock: a finalizer may start a run.
        try:
            if self._was_enabled and (limit := gc.get_threshold())[0]:
                over = [g for g, n in enumerate(gc.get_count()) if n > limit[g]]
                if over:
                    gc.collect(over[-1])
        finally:
            with self._lock:
                self._runs -= 1
                if self._runs == 0 and self._was_enabled:
                    gc.enable()


_COLLECTOR = _CollectorDeferral()


@dataclass
class ExecutionResult:
    """Plan outputs (per collect-sink operator id) plus run metrics."""

    outputs: dict[int, list[Any]]
    metrics: ExecutionMetrics
    #: "hit"/"miss" when a serving plan cache intermediated this run,
    #: None for direct executions (set by RheemContext.execute)
    plan_cache: str | None = None

    @property
    def single(self) -> list[Any]:
        """The output when the plan has exactly one collect sink."""
        if len(self.outputs) != 1:
            raise ExecutionError(
                f"plan has {len(self.outputs)} collect sinks; use .outputs"
            )
        return next(iter(self.outputs.values()))


class Executor:
    """Schedules, monitors, retries and (optionally) fails over atoms."""

    #: virtual ms charged per failover re-planning round
    FAILOVER_REPLAN_MS = 0.5

    #: after-atom hook ``(plan, index, channels) -> bool``,
    #: evaluated at the scheduler's plan-order step.  True cuts the
    #: segment after ``index`` and :meth:`execute` carries on with the
    #: plan ``_replan_tail`` hands back.  None: atoms are never cut
    #: (:class:`~repro.core.progressive.ProgressiveExecutor` installs one).
    _after_atom = None

    def __init__(
        self,
        movement: MovementCostModel | None = None,
        max_retries: int = 2,
        backoff: BackoffPolicy | None = None,
        task_optimizer: "MultiPlatformOptimizer | None" = None,
        failover: bool = False,
        parallelism: int | None = None,
        execution_mode: str | None = None,
        columnar: bool | None = None,
        columnar_native: bool | None = None,
        calibration: "CalibrationStore | None" = None,
        deadline_ms: float | None = None,
        profile: bool | None = None,
    ):
        self.movement = movement or MovementCostModel()
        self.max_retries = max_retries
        self.listeners: list[ExecutionListener] = []
        self.backoff = backoff or BackoffPolicy()
        #: multi-platform optimizer used to re-plan suffixes on failover
        self.task_optimizer = task_optimizer
        #: whether exhausted atoms may fail over to other platforms (at
        #: most once per platform per execution)
        self.failover = failover
        #: how many task atoms may run concurrently (1 = sequential).
        #: ``None`` reads ``REPRO_PARALLELISM`` (default 1).  See
        #: :mod:`repro.core.scheduler` for the determinism guarantees.
        if parallelism is None:
            try:
                parallelism = int(os.environ.get("REPRO_PARALLELISM", "1"))
            except ValueError:
                parallelism = 1
        self.parallelism = max(1, parallelism)
        #: which backend the concurrent scheduler dispatches onto:
        #: ``"thread"`` (default) or ``"process"`` (forked workers — see
        #: :mod:`repro.core.scheduler`).  ``None`` reads
        #: ``REPRO_EXECUTION_MODE`` (junk values fall back to thread;
        #: an *explicit* bad argument raises).  Like ``parallelism``,
        #: the mode never changes outputs or accounting, so it is
        #: excluded from the journal ``config_epoch``.
        if execution_mode is None:
            raw_mode = os.environ.get(
                "REPRO_EXECUTION_MODE", ""
            ).strip().lower()
            execution_mode = raw_mode if raw_mode in ("thread", "process") else "thread"
        elif execution_mode not in ("thread", "process"):
            raise ValueError(
                f"execution_mode must be 'thread' or 'process', "
                f"got {execution_mode!r}"
            )
        self.execution_mode = execution_mode
        #: opt-in columnar hand-offs: numeric channel payloads are packed
        #: into struct-of-arrays buffers (see
        #: :class:`repro.core.channels.ColumnarChannel`); ingest/egest
        #: conversions are charged to the ledger.  ``None`` reads
        #: ``REPRO_COLUMNAR`` (default off).
        if columnar is None:
            columnar = os.environ.get(
                "REPRO_COLUMNAR", ""
            ).strip().lower() in ("1", "true", "yes", "on")
        self.columnar = columnar
        #: columnar-*native* consumption: eligible consumers on opted-in
        #: platforms receive the column buffers themselves
        #: (:class:`repro.core.physical.columnar.ColumnarBatch`) instead
        #: of materialised rows; the skipped unpack is recorded as a
        #: zero-cost ``columnar.elide`` ledger entry right after the
        #: boundary's ordinary (virtual) ``columnar.egest`` charge, so
        #: virtual time and outputs are identical to the egest path and
        #: only wall time changes.  ``None`` means on; only meaningful
        #: when ``columnar`` is set.
        self.columnar_native = (
            True if columnar_native is None else columnar_native
        )
        #: optional cross-run calibration store; when attached, the
        #: deterministic per-run observation feed
        #: (``metrics.calibration_observations``) is folded into its
        #: priors at the end of every execution
        self.calibration = calibration
        #: per-atom wall-clock deadline: an ``execute_atom`` call that
        #: outlives it is abandoned and treated as a platform outage
        #: (:class:`~repro.errors.AtomDeadlineError` → breaker →
        #: failover).  ``None`` or non-positive: off.
        self.deadline_ms = (
            deadline_ms if deadline_ms is not None and deadline_ms > 0 else None
        )
        #: opt-in per-atom resource profiling (CPU vs wall, peak
        #: allocation, GC pauses, queue wait, channel bytes — see
        #: :mod:`repro.core.observability.resources`).  ``None`` reads
        #: ``REPRO_PROFILE`` (default off).  When off, ``_profiler`` is
        #: ``None`` and every hook is a single identity check: outputs,
        #: virtual time, ledger sequence and span shape are untouched.
        if profile is None:
            profile = profiling_enabled()
        self.profile = profile
        self._profiler = ResourceProfiler() if profile else None
        #: operator ids whose channels must stay plain (collect sinks:
        #: their payload is the user-facing result, pulled uncharged)
        self._plain_channel_ids: frozenset[int] = frozenset()
        #: serializes listener callbacks under the concurrent scheduler
        self._listener_lock = threading.Lock()
        #: optional process-wide admission pool
        #: (:class:`~repro.core.serving.admission.PlatformSlotPool`)
        #: installed by the serving daemon so concurrent queries share —
        #: rather than multiply — each platform's execution slots
        self.slot_pool = None

    def add_listener(self, listener: ExecutionListener) -> None:
        """Attach a monitoring listener (see repro.core.listeners)."""
        self.listeners.append(listener)

    def _emit(self, kind: str, tracer, /, **details) -> None:
        """Record a monitoring event on ``tracer`` and fan out to listeners.

        ``tracer`` is passed explicitly (usually ``metrics.ledger.tracer``)
        because under the concurrent scheduler worker threads emit
        against their private shard tracer, never the coordinator's.
        Listener callbacks are serialized by a lock; under concurrency
        they fire in completion order (monitoring is live and
        best-effort), while span events — grafted with their shard —
        stay deterministic.
        """
        if tracer is not None:
            # Subsume monitoring events as span events: every ATOM_*/
            # PLATFORM_QUARANTINED/... lands on the innermost open span.
            tracer.event(kind, **details)
        if not self.listeners:
            return
        event = ExecutionEvent(kind, details)
        with self._listener_lock:
            for listener in self.listeners:
                listener.on_event(event)

    def execute(
        self, plan: ExecutionPlan, runtime: RuntimeContext | None = None
    ) -> ExecutionResult:
        """Run an execution plan and aggregate its results.

        Every top-level segment runs through the one atom driver
        (:class:`~repro.core.scheduler.ConcurrentAtomScheduler`).  The
        plan handed back by a failover round — or by an adaptive
        executor's tail re-plan — replaces ``plan`` for the remainder of
        the run; outputs are still keyed by the original collect sinks
        (operator ids are stable across re-plans).
        """
        runtime = runtime or RuntimeContext()
        tracer = runtime.tracer
        metrics = ExecutionMetrics(
            registry=tracer.registry if tracer is not None else None
        )
        # The ledger is the virtual clock source: every charge advances
        # the tracer, which is how span virtual durations reconcile with
        # ledger totals (see repro.core.observability.spans).
        metrics.ledger.tracer = tracer
        started = time.perf_counter()
        self._atom_seq = 0  # run-local ordinal: stable backoff-jitter token
        collect_sinks = plan.collect_sinks
        self._plain_channel_ids = frozenset(sink.id for sink in collect_sinks)
        channels: dict[int, CollectionChannel] = {}
        models: dict[str, Any] = {}
        charged_platforms: set[str] = set()
        excluded_platforms: set[str] = set()
        cpath = CriticalPath()

        span = None
        if tracer is not None:
            span = tracer.start_span(
                "execute",
                KIND_EXECUTOR,
                atoms=len(plan.atoms),
                platforms=[p.name for p in plan.platforms],
            )
        # The profiler's process-wide hooks live exactly as long as this
        # run (shared, reference-counted, with concurrent runs).
        profiler = self._profiler
        if profiler is not None:
            profiler.attach()
        _COLLECTOR.enter()
        try:
            self._emit(
                EXECUTION_STARTED,
                tracer,
                atoms=len(plan.atoms),
                platforms=[p.name for p in plan.platforms],
            )
            current = plan
            # Run-local: a failover or tail re-plan stops journaling for
            # the rest of *this* run without touching the caller's
            # runtime, which may be reused for the next execute().
            journal = runtime.journal
            start = 0
            first_segment = True
            while True:
                models.update(
                    {p.name: p.cost_model for p in current.platforms}
                )
                for platform in current.platforms:
                    if platform.name in charged_platforms:
                        continue
                    charged_platforms.add(platform.name)
                    metrics.ledger.charge(
                        "startup", platform.cost_model.startup_ms(), platform.name
                    )
                self._estimates = current.estimates
                self._estimate_kinds = current.estimate_kinds
                self._estimate_corrections = current.estimate_corrections
                if first_segment:
                    # Journal bootstrap happens after the startup charges:
                    # record slices begin where the first atom's effects
                    # do, and a resumed run re-charges identical startups
                    # live before replaying the prefix.
                    start = self._prepare_journal(
                        journal, current, channels, runtime, metrics, cpath
                    )
                    first_segment = False
                try:
                    ConcurrentAtomScheduler(
                        self, current, channels, runtime, metrics, models,
                        cpath, start=start, journal=journal,
                    ).run()
                    break
                except AtomExhaustedError as failure:
                    current = self._failover(
                        current, failure, channels, runtime, metrics,
                        excluded_platforms,
                    )
                except SegmentCut as cut:
                    current = self._replan_tail(
                        current, cut.index, channels, metrics
                    )
                # The journal's records (and its store's positional keys)
                # describe the original plan's ordinals, which no longer
                # line up with the replaced suffix: stop journaling for
                # the rest of this run.  A crash after this point resumes
                # the clean prefix, and the restored injector/health
                # state makes the re-run fail and fail over identically —
                # same final bill.
                journal = None
                start = 0

            outputs = {}
            for sink in collect_sinks:
                if sink.id not in channels:
                    raise ExecutionError(
                        f"collect sink {sink!r} produced no channel"
                    )
                outputs[sink.id] = channels[sink.id].require_data()
            metrics.wall_ms = (time.perf_counter() - started) * 1000.0
            metrics.makespan_ms = min(cpath.makespan_ms, metrics.virtual_ms)
            if self.calibration is not None:
                # Fold the deterministic observation feed into the
                # cross-run priors (no ledger charge: bookkeeping, not
                # virtual work).
                self.calibration.ingest(metrics)
            self._emit(
                EXECUTION_FINISHED,
                tracer,
                virtual_ms=metrics.virtual_ms,
                makespan_ms=metrics.makespan_ms,
                wall_ms=metrics.wall_ms,
                atoms_executed=metrics.atoms_executed,
                retries=metrics.retries,
                failovers=metrics.failovers,
                quarantines=metrics.quarantines,
            )
            if span is not None:
                span.set(
                    virtual_ms=metrics.virtual_ms,
                    makespan_ms=metrics.makespan_ms,
                    atoms_executed=metrics.atoms_executed,
                    retries=metrics.retries,
                )
            return ExecutionResult(outputs, metrics)
        finally:
            if profiler is not None:
                profiler.detach()
            _COLLECTOR.exit()
            if span is not None:
                tracer.end_span(span)

    # ------------------------------------------------------------------
    # durable run journal: commit and resume (see repro.core.recovery)
    # ------------------------------------------------------------------
    def _config_epoch(self) -> str:
        """The execution-config epoch this executor persists state under."""
        return config_epoch(
            columnar=self.columnar,
            columnar_native=self.columnar_native,
            calibration=self.calibration is not None,
            store_path=getattr(self.calibration, "path", None),
        )

    def _prepare_journal(
        self,
        journal,
        plan: ExecutionPlan,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        cpath: CriticalPath,
    ) -> int:
        """Bootstrap the run journal; returns how many atoms to skip.

        The one staleness guard.  A recoverable journal (one with a
        payload store) whose stored header matches this plan's
        fingerprint *and* config epoch has its trusted record prefix
        replayed (channels from the store, ledger/span/health/injector
        state from the records) and is rewritten to exactly that prefix
        before appending resumes.  Any other stored header — none, torn,
        another plan shape, another epoch — means the store's positional
        payloads do not belong to this run: they are cleared.  Every
        case but a non-empty replay begins a fresh journal; one without
        a store never reads the file at all.
        """
        if journal is None:
            return 0
        fingerprint = plan_fingerprint(plan)
        epoch = self._config_epoch()
        if journal.store is not None:
            stored_header, records, torn = journal.load()
            if torn:
                metrics.registry.counter(
                    "journal_torn_records",
                    "damaged journal tail lines truncated on load",
                ).inc(torn)
            if (
                stored_header is not None
                and stored_header.get("fingerprint") == fingerprint
                and stored_header.get("epoch") == epoch
            ):
                replayed = self._replay_journal(
                    journal.store, plan, records, channels, runtime,
                    metrics, cpath,
                )
                if replayed:
                    journal.reset_to(stored_header, records[:replayed])
                    # Set, not added: the registry snapshot just imported
                    # may carry the counts of an earlier resume of this
                    # same run; these two describe *this* execution.
                    metrics.resumes = 1
                    metrics.atoms_restored = replayed
                    # Listener-only (tracer=None): resume must not add
                    # span events an uninterrupted run would not have.
                    self._emit(
                        RUN_RESUMED,
                        None,
                        run_id=journal.run_id,
                        atoms_restored=replayed,
                        atoms_total=len(plan.atoms),
                        torn_records=torn,
                    )
                    return replayed
            else:
                journal.store.clear()
        journal.begin(journal.header(fingerprint=fingerprint, epoch=epoch))
        return 0

    def _replay_journal(
        self,
        store,
        plan: ExecutionPlan,
        records: list[dict],
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        cpath: CriticalPath,
    ) -> int:
        """Replay the longest restorable record prefix; returns its length.

        Replay is exact, not approximate: ledger entries are appended
        verbatim (never re-charged — re-clocking would double-advance
        the virtual clock), span slices are reconstructed with fresh ids
        under the current ``execute`` span, and the virtual clock / open
        span self-time are *set* to the journaled absolute values — the
        resumed run re-derives the identical prefix state, so absolutes
        reproduce bit-for-bit where re-basing arithmetic could drift by
        an ulp.  The prefix ends at the first record whose saved
        outputs are missing or fail CRC validation: everything from
        there on is recomputed (never guessed).
        """
        ledger = metrics.ledger
        tracer = ledger.tracer
        atoms = plan.atoms
        replayed = 0
        last: dict | None = None
        for record in records:
            if (
                record.get("t") != "atom"
                or record.get("index") != replayed
                or replayed >= len(atoms)
            ):
                break
            atom = atoms[replayed]
            restored = self._load_journaled_outputs(
                replayed, atom, record, store
            )
            if restored is None:
                break
            before = ledger.total_ms
            cpath.sync_overhead(before)
            channels.update(restored)
            if tracer is not None:
                self._restore_spans(tracer, record.get("spans") or [])
            for label, ms, platform_name, atom_id in record["entries"]:
                ledger.entries.append(
                    CostEntry(label, ms, platform_name, atom_id)
                )
            if tracer is not None and record.get("v_after") is not None:
                tracer.v_clock = record["v_after"]
            for fields in record.get("misestimates", ()):
                metrics.misestimates.append(CardinalityMisestimate(*fields))
            for fields in record.get("observations", ()):
                metrics.calibration_observations.append(
                    CalibrationObservation(*fields)
                )
            cpath.record(atom, ledger.total_ms - before)
            self._emit(
                ATOM_FINISHED,
                None,
                atom=atom.id,
                platform=atom.platform.name,
                virtual_ms=ledger.total_ms - before,
                restored_from_journal=True,
            )
            last = record
            replayed += 1
        if last is not None:
            # State *after* the prefix, wholesale: counters/histograms,
            # breaker clocks and cool-downs, the injector's position in
            # its fault schedule, and the backoff-jitter sequence.
            import_registry_state(metrics.registry, last.get("registry") or {})
            if last.get("health"):
                runtime.health.restore_state(last["health"])
            if (
                runtime.failure_injector is not None
                and last.get("injector") is not None
            ):
                runtime.failure_injector.restore_state(last["injector"])
            self._atom_seq = int(last.get("atom_seq", self._atom_seq))
            if tracer is not None:
                if last.get("v_after") is not None:
                    tracer.v_clock = last["v_after"]
                outer = last.get("outer_v_self")
                if outer is not None and tracer.current is not None:
                    tracer.current.v_self = outer
        return replayed

    def _load_journaled_outputs(
        self, ordinal: int, atom, record: dict, store
    ) -> dict[int, CollectionChannel] | None:
        """Rebuild one journaled atom's output channels from the store.

        Channel shapes (cardinality, columnar flag) come from the
        record; payloads come from the journal's positional store.
        ``None`` — ending the restorable prefix — when a payload is
        absent, corrupt, or disagrees with the journaled cardinality.
        """
        shapes = record.get("outputs")
        output_ids = sorted(atom.output_ids)
        if shapes is None or len(shapes) != len(output_ids):
            return None
        restored: dict[int, CollectionChannel] = {}
        for index, op_id in enumerate(output_ids):
            card, is_columnar = shapes[index]
            loaded = store.load(ordinal, index)
            if loaded is None:
                return None
            data, _cost = loaded
            if len(data) != card:
                return None
            channel = (
                ColumnarChannel.from_rows(data, atom.platform.name)
                if is_columnar
                else None
            )
            if channel is None:
                channel = CollectionChannel(
                    data, atom.platform.name, owned=True
                )
            restored[op_id] = channel
        return restored

    def _restore_spans(self, tracer, serialized: list[dict]) -> None:
        """Reconstruct one record's span slice on the live tracer.

        Spans get fresh ids from the tracer's counter; slice roots are
        re-parented under the current (``execute``) span; virtual values
        are the journaled absolutes.  Wall times are zero-width at the
        restore instant — wall clocks are honest, and no honest claim
        about the crashed process's wall time can be made.
        """
        from repro.core.observability.spans import Span, SpanEvent

        base = tracer.current
        now = tracer._now_ms()
        new_spans: list[Span] = []
        for record in serialized:
            parent_index = record["parent"]
            if parent_index >= 0:
                parent_id = new_spans[parent_index].span_id
            else:
                parent_id = base.span_id if base is not None else None
            span = Span(
                trace_id=tracer.trace_id,
                span_id=next(tracer._next_span_id),
                parent_id=parent_id,
                name=record["name"],
                kind=record["kind"],
                wall_start=now,
                wall_end=now,
                v_start=record["v_start"],
                v_end=record["v_end"],
                attributes=dict(record["attrs"]),
                events=[
                    SpanEvent(name, now, virtual_ms, dict(attrs))
                    for name, virtual_ms, attrs in record["events"]
                ],
                v_self=record["v_self"],
            )
            new_spans.append(span)
            tracer.spans.append(span)

    def _journal_mark(self, metrics: ExecutionMetrics) -> tuple:
        """Capture the state lengths an atom's effects will extend.

        Taken immediately before an atom's first effect lands on the
        coordinator state (sequentially: before it runs; concurrently:
        before its shard is grafted/merged), so the slice between mark
        and :meth:`_journal_commit` is exactly the atom's contribution —
        the same mechanism for both execution modes.
        """
        tracer = metrics.ledger.tracer
        return (
            len(metrics.ledger.entries),
            len(tracer.spans) if tracer is not None else 0,
            len(metrics.misestimates),
            len(metrics.calibration_observations),
        )

    def _journal_commit(
        self,
        journal,
        mark: tuple,
        index: int,
        atom,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
    ) -> None:
        """Append one atom-completion record durably (the WAL step).

        A recoverable journal first saves the atom's outputs to its
        store, charged as ``checkpoint.save`` — inside the record's
        ledger slice, so a replay bills them like the original run.
        The record carries the atom's ledger/span/misestimate slices
        plus full post-atom snapshots of the registry, health tracker
        and failure injector — everything resume needs to reconstruct
        the coordinator state without re-executing.  The chaos
        injector's hooks bracket the write, simulating crashes on
        either side of the durability point (or a torn tail).
        """
        entries_mark, spans_mark, mis_mark, obs_mark = mark
        from repro.core.recovery import export_registry_state

        tracer = metrics.ledger.tracer
        ledger = metrics.ledger
        if journal.store is not None:
            for position, op_id in enumerate(sorted(atom.output_ids)):
                cost = journal.store.save(
                    index, position, channels[op_id].require_data()
                )
                ledger.charge(
                    "checkpoint.save", cost, atom.platform.name, atom.id
                )
        record: dict[str, Any] = {
            "t": "atom",
            "index": index,
            "atom_id": atom.id,
            "platform": atom.platform.name,
            "entries": [
                [e.label, e.ms, e.platform, e.atom_id]
                for e in ledger.entries[entries_mark:]
            ],
            "outputs": [
                [
                    len(channels[op_id]),
                    isinstance(channels[op_id], ColumnarChannel),
                ]
                for op_id in sorted(atom.output_ids)
            ],
            "spans": (
                self._serialize_spans(tracer.spans[spans_mark:])
                if tracer is not None
                else []
            ),
            "v_after": tracer.v_clock if tracer is not None else None,
            "outer_v_self": (
                tracer.current.v_self
                if tracer is not None and tracer.current is not None
                else None
            ),
            "misestimates": [
                [m.operator_id, m.estimated, m.observed]
                for m in metrics.misestimates[mis_mark:]
            ],
            "observations": [
                [o.operator_id, o.kind, o.platform, o.estimated, o.observed,
                 o.correction]
                for o in metrics.calibration_observations[obs_mark:]
            ],
            "registry": export_registry_state(metrics.registry),
            "health": runtime.health.export_state(),
            "injector": (
                runtime.failure_injector.export_state()
                if runtime.failure_injector is not None
                else None
            ),
            "atom_seq": getattr(self, "_atom_seq", 0),
        }
        crash = getattr(runtime, "crash_injector", None)
        if crash is not None:
            crash.before_commit()
        journal.append(record)
        if crash is not None:
            crash.after_commit(journal)

    @staticmethod
    def _serialize_spans(spans: list) -> list[dict]:
        """Serialize one atom's span slice for a journal record.

        Parents are slice-relative indices (-1: re-parent under the
        resumed ``execute`` span); virtual values are absolute; wall
        times are dropped (see :meth:`_restore_spans`).
        """
        index_of = {span.span_id: i for i, span in enumerate(spans)}
        return [
            {
                "name": span.name,
                "kind": span.kind,
                "parent": index_of.get(span.parent_id, -1),
                "v_start": span.v_start,
                "v_end": span.v_end,
                "v_self": span.v_self,
                "attrs": span.attributes,
                "events": [
                    [event.name, event.virtual_ms, event.attributes]
                    for event in span.events
                ],
            }
            for span in spans
        ]

    def _failover(
        self,
        current: ExecutionPlan,
        failure: AtomExhaustedError,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        excluded_platforms: set[str],
    ) -> ExecutionPlan:
        """Quarantine the failed platform and re-plan the plan suffix.

        Re-raises ``failure`` when failover is disabled, unconfigured,
        capped out, or no surviving platform can run the remainder.
        """
        atom = failure.atom
        if (
            not self.failover
            or self.task_optimizer is None
            or current.source_plan is None
            or atom is None
        ):
            raise failure

        platform_name = atom.platform.name
        excluded_platforms.add(platform_name)
        health = runtime.health
        if health.is_available(platform_name):
            cooldown = health.quarantine(platform_name)
        else:  # breaker already tripped (threshold or fail-fast path)
            record = health.health(platform_name)
            cooldown = max(
                0.0, record.quarantined_until_ms - health.clock_ms
            )
        metrics.quarantines += 1
        self._emit(
            PLATFORM_QUARANTINED,
            metrics.ledger.tracer,
            platform=platform_name,
            atom=atom.id,
            cooldown_ms=cooldown,
            error=str(failure.cause or failure),
        )

        if metrics.failovers >= len(self.task_optimizer.platforms):
            raise failure

        # Atoms whose outputs are all materialised count as executed; the
        # failed atom (and anything downstream) has no channels yet.
        executed_ids: set[int] = set()
        for done in current.atoms:
            if done.output_ids and all(
                op_id in channels for op_id in done.output_ids
            ):
                executed_ids |= plan_operator_ids(done)

        # Also exclude anything the health tracker already holds open
        # (e.g. quarantined in an earlier execution of this context).
        roster = [p.name for p in self.task_optimizer.platforms]
        excluded = set(excluded_platforms) | {
            name for name in roster if not runtime.health.is_available(name)
        }
        try:
            with maybe_span(
                metrics.ledger.tracer,
                "failover.replan",
                KIND_EXECUTOR,
                atom=atom.id,
                from_platform=platform_name,
                excluded=sorted(excluded),
            ):
                remainder = remainder_plan(
                    current.source_plan, executed_ids, channels
                )
                replanned = self.task_optimizer.optimize(
                    remainder,
                    exclude_platforms=excluded,
                    tracer=metrics.ledger.tracer,
                )
        except (OptimizationError, ExecutionError) as error:
            raise AtomExhaustedError(
                f"{failure} (failover impossible: {error})",
                atom=atom,
                cause=failure.cause,
            ) from error

        metrics.failovers += 1
        metrics.ledger.charge(
            "failover.replan", self.FAILOVER_REPLAN_MS, platform_name, atom.id
        )
        self._emit(
            ATOM_FAILED_OVER,
            metrics.ledger.tracer,
            atom=atom.id,
            from_platform=platform_name,
            remaining_atoms=len(replanned.atoms),
            platforms=[p.name for p in replanned.platforms],
            error=str(failure.cause or failure),
        )
        return replanned

    # ------------------------------------------------------------------
    def _run_atom(
        self,
        atom: TaskAtom | LoopAtom,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        models: dict[str, Any],
    ) -> None:
        """Run one atom live, consuming the shared counters directly."""
        if isinstance(atom, LoopAtom):
            self._run_loop_atom(atom, channels, runtime, metrics, models)
        else:
            self._run_task_atom(atom, channels, runtime, metrics, models)

    def _make_channel(
        self,
        op_id: int,
        data: list[Any],
        atom: TaskAtom | LoopAtom,
        metrics: ExecutionMetrics,
    ) -> CollectionChannel:
        """Build the hand-off channel for one atom output.

        With the columnar flag on, numeric payloads are packed into a
        :class:`ColumnarChannel`; the pack is explicit work, charged as
        ``columnar.ingest``.  A columnar-native batch output is adopted
        buffer-for-buffer (no repack), but charged the same virtual
        ``columnar.ingest`` — the pack price is a property of the
        boundary, not of which mode produced the data, which is what
        keeps native and egest-per-consumer bills identical.
        Collect-sink payloads and ineligible data stay in a plain
        (zero-copy, ``owned=True``) channel.
        """
        if self.columnar and op_id not in self._plain_channel_ids:
            if getattr(data, "is_columnar_batch", False):
                columnar = ColumnarChannel.from_batch(data, atom.platform.name)
            else:
                columnar = ColumnarChannel.from_rows(data, atom.platform.name)
            if columnar is not None:
                metrics.ledger.charge(
                    "columnar.ingest",
                    atom.platform.cost_model.columnar_ingest_ms(
                        float(len(columnar))
                    ),
                    atom.platform.name,
                    atom.id,
                )
                return columnar
        # ``owned=True``: Platform.egest builds a fresh list per boundary
        # output, so the channel can adopt it without a defensive copy
        # (zero-copy hand-off).
        return CollectionChannel(data, atom.platform.name, owned=True)

    def _pull_channel(
        self,
        channel: CollectionChannel,
        consumer: "Platform",
        metrics: ExecutionMetrics,
        atom_id: int,
        consumers: tuple = (),
    ) -> Any:
        """Materialise a channel payload for a consumer.

        Unpacking a columnar channel back into rows is explicit work,
        charged as ``columnar.egest`` per consuming hop (mirroring how
        movement is charged per hop).

        **Elision.**  When every consuming ``(operator, slot)`` in
        ``consumers`` can read this channel's layout natively (and both
        the executor and the consumer platform opt in), the row
        materialisation is skipped and the consumer receives a
        :class:`~repro.core.physical.columnar.ColumnarBatch` view of the
        buffers instead.  The virtual ``columnar.egest`` price is still
        charged — virtual time prices the hand-off identically in both
        modes — and the skip is recorded as an explicit zero-cost
        ``columnar.elide`` entry, so the native ledger is the egest
        ledger plus documented elide lines and nothing else.
        """
        if isinstance(channel, ColumnarChannel):
            metrics.ledger.charge(
                "columnar.egest",
                consumer.cost_model.columnar_egest_ms(float(len(channel))),
                consumer.name,
                atom_id,
            )
            if (
                consumers
                and self.columnar_native
                and consumer.columnar_native
                and all(
                    can_elide(op, slot, channel.width, channel.scalar)
                    for op, slot in consumers
                )
            ):
                metrics.ledger.charge(
                    "columnar.elide", 0.0, consumer.name, atom_id
                )
                return channel.batch()
        return channel.require_data()

    def _charge_movement(
        self,
        channel: CollectionChannel,
        consumer: "Platform",
        metrics: ExecutionMetrics,
        models: dict[str, Any],
        atom_id: int,
    ) -> None:
        producer_model = models.get(channel.producer_platform)
        if producer_model is None or producer_model is consumer.cost_model:
            return
        ms = self.movement.transfer_ms(
            producer_model, consumer.cost_model, float(len(channel))
        )
        if ms:
            pair = f"{channel.producer_platform}->{consumer.name}"
            with maybe_span(
                metrics.ledger.tracer,
                f"move.{pair}",
                KIND_MOVEMENT,
                pair=pair,
                rows=len(channel),
                platform=consumer.name,
                atom=atom_id,
            ):
                metrics.ledger.charge(f"move.{pair}", ms, consumer.name, atom_id)
            metrics.observe_movement(pair, ms)

    def _run_task_atom(
        self,
        atom: TaskAtom,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        models: dict[str, Any],
        *,
        ordinal: int | None = None,
        token: int | None = None,
        queue_wait_ms: float = 0.0,
    ) -> None:
        """Run one task atom end-to-end: movement, retries, channels.

        ``ordinal``/``token`` are the scheduler's predicted
        fault-injection ordinal and backoff-jitter token for a
        worker-run atom; left at their defaults (a live run on the
        coordinator), the shared counters are consumed directly.
        ``queue_wait_ms`` is the scheduler's measured dispatch-to-start
        latency (0.0 for a live run); it is only recorded when profiling
        is enabled.
        """
        self._reject_if_quarantined(atom, runtime)
        profiler = self._profiler
        with maybe_span(
            metrics.ledger.tracer,
            f"atom#{atom.id}",
            KIND_EXECUTOR,
            atom=atom.id,
            platform=atom.platform.name,
            operators=len(atom.fragment),
        ) as span:
            probe = (
                profiler.start_atom(queue_wait_ms)
                if profiler is not None
                else None
            )
            external: dict[tuple[int, int], list[Any]] = {}
            ops_by_id = (
                {op.id: op for op in atom.fragment.operators}
                if self.columnar
                and self.columnar_native
                and atom.platform.columnar_native
                else None
            )
            elided = 0
            for (consumer_id, slot), producer_id in atom.external_inputs.items():
                try:
                    channel = channels[producer_id]
                except KeyError:
                    raise ExecutionError(
                        f"atom #{atom.id}: producer {producer_id} has no "
                        "channel (atom ordering bug)"
                    ) from None
                self._charge_movement(
                    channel, atom.platform, metrics, models, atom.id
                )
                consumers: tuple = ()
                if ops_by_id is not None:
                    consumer_op = ops_by_id.get(consumer_id)
                    if consumer_op is not None:
                        consumers = ((consumer_op, slot),)
                data = self._pull_channel(
                    channel, atom.platform, metrics, atom.id,
                    consumers=consumers,
                )
                if getattr(data, "is_columnar_batch", False):
                    elided += 1
                external[(consumer_id, slot)] = data
            if span is not None and elided:
                span.set(columnar_elided=elided)

            self._emit(ATOM_STARTED, metrics.ledger.tracer, atom=atom.id,
                       platform=atom.platform.name,
                       operators=len(atom.fragment))
            outputs, ledger = self._attempt_with_retries(
                atom, external, runtime, metrics, ordinal=ordinal, token=token
            )
            metrics.ledger.merge(ledger)
            metrics.atoms_executed += 1
            metrics.registry.counter(
                "atoms_by_platform", "atoms executed per platform"
            ).inc(platform=atom.platform.name)
            if span is not None:
                span.set(virtual_ms=ledger.total_ms)
            self._emit(
                ATOM_FINISHED,
                metrics.ledger.tracer,
                atom=atom.id,
                platform=atom.platform.name,
                virtual_ms=ledger.total_ms,
            )
            for op_id, data in outputs.items():
                channel = self._make_channel(op_id, data, atom, metrics)
                channels[op_id] = channel
                if probe is not None:
                    profiler.record_channel(
                        probe,
                        channel.payload_bytes(),
                        metrics.registry,
                        atom.platform.name,
                    )
                self._check_estimate(
                    op_id, len(data), metrics, platform=atom.platform.name
                )
            if probe is not None:
                profiler.finish_atom(
                    probe, span, metrics.registry, atom.platform.name
                )

    #: observed/estimated ratio beyond which an estimate counts as wrong
    MISESTIMATE_FACTOR = 4.0

    def _check_estimate(
        self,
        op_id: int,
        observed: int,
        metrics: ExecutionMetrics,
        platform: str | None = None,
    ) -> None:
        """Record estimates the observation contradicts (feedback the
        paper's execution monitoring enables and adaptive
        re-optimization consumes), plus — when the plan carries kind
        tags — one :class:`CalibrationObservation` per boundary for the
        cross-run :class:`CalibrationStore`."""
        estimated = getattr(self, "_estimates", {}).get(op_id)
        if estimated is None:
            return
        report = CardinalityMisestimate(op_id, estimated, observed)
        metrics.record_misestimate(
            report, contradicted=report.factor >= self.MISESTIMATE_FACTOR
        )
        kind = getattr(self, "_estimate_kinds", {}).get(op_id)
        if kind is not None and platform is not None:
            correction = getattr(self, "_estimate_corrections", {}).get(
                op_id, 1.0
            )
            metrics.record_calibration_observation(
                CalibrationObservation(
                    operator_id=op_id,
                    kind=kind,
                    platform=platform,
                    estimated=estimated,
                    observed=observed,
                    correction=correction,
                )
            )

    def _reject_if_quarantined(self, atom, runtime: RuntimeContext) -> None:
        """Fail fast — before movement or ``ATOM_STARTED`` — when the
        atom's platform circuit is open (e.g. this RuntimeContext saw
        the platform die in an earlier execution)."""
        if not self.failover:
            return
        platform_name = atom.platform.name
        health = runtime.health
        if health.is_available(platform_name):
            return
        error = PlatformDownError(
            f"platform {platform_name!r} is quarantined "
            f"(circuit {health.state(platform_name)})"
        )
        raise AtomExhaustedError(
            f"atom #{atom.id} on {platform_name!r} rejected: {error}",
            atom=atom,
            cause=error,
        )

    def _attempt_with_retries(
        self,
        atom: TaskAtom,
        external: dict[tuple[int, int], list[Any]],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        *,
        ordinal: int | None = None,
        token: int | None = None,
    ):
        """Run one atom with retry + backoff + breaker bookkeeping.

        Retries are counted (and ``ATOM_RETRIED`` emitted) only when
        another attempt actually runs.  :class:`PlatformDownError` skips
        the remaining same-platform retries — the platform is sick, not
        the atom.  Non-``ExecutionError`` exceptions escaping the
        platform are wrapped with atom/platform context so user errors
        hit the same retry/failover machinery.

        ``ordinal`` and ``token`` may be supplied by the scheduler
        (predicted in plan order, committed at replay); otherwise they
        are consumed live from the shared counters.  A predicted ordinal
        is never None while an injector is configured, so None doubles
        as "not supplied".
        """
        injector = runtime.failure_injector
        health = runtime.health
        platform_name = atom.platform.name
        if ordinal is None and injector is not None:
            ordinal = injector.next_atom()
        if token is None:
            # Jitter token: run-local atom sequence number, not ``atom.id``
            # — operator ids come from a process-global counter, so only
            # the sequence number makes backoff reproducible across runs.
            token = getattr(self, "_atom_seq", 0)
            self._atom_seq = token + 1

        last_error: ExecutionError | None = None
        attempts = 0
        tracer = metrics.ledger.tracer
        for attempt in range(self.max_retries + 1):
            attempts = attempt + 1
            attempt_span = (
                tracer.start_span(
                    f"attempt#{attempt + 1}",
                    KIND_EXECUTOR,
                    atom=atom.id,
                    platform=platform_name,
                    attempt=attempt + 1,
                )
                if tracer is not None and attempt > 0
                else None
            )
            try:
                if injector is not None:
                    slowdown = injector.slowdown_for(ordinal, platform_name)
                    if slowdown:
                        metrics.ledger.charge(
                            "inject.slowdown", slowdown, platform_name, atom.id
                        )
                    injector.check(ordinal, platform_name)
                if self.deadline_ms is None:
                    result = atom.platform.execute_atom(atom, external, runtime)
                else:
                    result = self._execute_with_deadline(
                        atom, external, runtime, metrics
                    )
            except ExecutionError as error:
                last_error = error
            except Exception as error:  # user code escaping the platform
                wrapped = ExecutionError(
                    f"atom #{atom.id} on {platform_name!r}: unhandled "
                    f"{type(error).__name__}: {error}"
                )
                wrapped.__cause__ = error
                last_error = wrapped
            else:
                if attempt_span is not None:
                    tracer.end_span(attempt_span)
                health.record_success(platform_name)
                return result
            if attempt_span is not None:
                attempt_span.set(error=str(last_error))
                tracer.end_span(attempt_span)

            permanent = isinstance(last_error, PlatformDownError)
            health.record_failure(platform_name, permanent=permanent)
            if permanent or attempt >= self.max_retries:
                break
            delay = self.backoff.delay_ms(attempt, token=token)
            metrics.ledger.charge(
                "retry.backoff", delay, platform_name, atom.id
            )
            metrics.backoff_ms += delay
            metrics.retries += 1
            health.advance(delay)
            self._emit(
                ATOM_RETRIED,
                tracer,
                atom=atom.id,
                platform=platform_name,
                attempt=attempt + 1,
                backoff_ms=delay,
                transient=isinstance(last_error, TransientError),
                error=str(last_error),
            )
        raise AtomExhaustedError(
            f"atom #{atom.id} on {platform_name!r} failed after "
            f"{attempts} attempts: {last_error}",
            atom=atom,
            cause=last_error,
        )

    def _execute_with_deadline(
        self,
        atom: TaskAtom,
        external: dict[tuple[int, int], list[Any]],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
    ):
        """Run ``execute_atom`` under a wall-clock deadline.

        The call runs on a daemon worker joined for ``deadline_ms`` of
        real time, against a runtime clone whose tracer is a private
        shard — the platform attaches its atom ledger to
        ``runtime.tracer``, so a zombie overrun keeps writing only into
        the abandoned shard, never the live trace.  On success the shard
        grafts back (byte-identical to an un-deadlined run); on timeout
        the deadline itself is charged as virtual time and the overrun
        escalates like a platform outage (:class:`AtomDeadlineError` is
        a :class:`PlatformDownError`: breaker, then failover).
        """
        tracer = getattr(runtime, "tracer", None)
        shard = Tracer() if tracer is not None else None
        shadow = shard_runtime(runtime, shard, runtime.health)
        box: dict[str, Any] = {}

        def call() -> None:
            try:
                box["result"] = atom.platform.execute_atom(
                    atom, external, shadow
                )
            except BaseException as error:  # rethrown on the caller thread
                box["error"] = error

        worker = threading.Thread(
            target=call, name=f"repro-deadline-atom-{atom.id}", daemon=True
        )
        worker.start()
        worker.join(self.deadline_ms / 1000.0)
        if worker.is_alive():
            # Abandon the zombie; bill the deadline as the time we
            # *observably* lost waiting on the wedged platform.
            metrics.ledger.charge(
                "deadline.exceeded",
                self.deadline_ms,
                atom.platform.name,
                atom.id,
            )
            metrics.deadline_kills += 1
            self._emit(
                ATOM_TIMED_OUT,
                metrics.ledger.tracer,
                atom=atom.id,
                platform=atom.platform.name,
                deadline_ms=self.deadline_ms,
            )
            raise AtomDeadlineError(
                f"atom #{atom.id} on {atom.platform.name!r} exceeded its "
                f"{self.deadline_ms:g}ms deadline"
            )
        if shard is not None:
            # Graft even for failed attempts: their spans/charges belong
            # in the trace exactly as they would without a deadline.
            tracer.graft(shard, parent=tracer.current)
            tracer.registry.merge_from(shard.registry)
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _run_loop_atom(
        self,
        atom: LoopAtom,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        models: dict[str, Any],
    ) -> None:
        repeat = atom.repeat
        try:
            state_channel = channels[atom.state_producer_id]
        except KeyError:
            raise ExecutionError(
                f"loop atom #{atom.id}: initial state channel missing"
            ) from None
        loop_span_cm = maybe_span(
            metrics.ledger.tracer,
            f"loop#{atom.id}",
            KIND_EXECUTOR,
            atom=atom.id,
            platform=atom.platform.name,
        )
        with loop_span_cm as loop_span:
            self._run_loop_body(
                atom, repeat, state_channel, channels, runtime, metrics,
                models, loop_span,
            )

    def _run_loop_body(
        self,
        atom: LoopAtom,
        repeat,
        state_channel: CollectionChannel,
        channels: dict[int, CollectionChannel],
        runtime: RuntimeContext,
        metrics: ExecutionMetrics,
        models: dict[str, Any],
        loop_span=None,
    ) -> None:
        self._charge_movement(state_channel, atom.platform, metrics, models, atom.id)
        # Loop-state elision: when the body's consumers of the bound
        # state can all read the columnar layout natively (and no loop
        # condition needs rows), the per-iteration state recirculation
        # stays columnar end-to-end — pack (columnar.ingest), elide
        # (columnar.egest + columnar.elide), rebind — with the exact
        # charges of the egest path.
        state_consumers: tuple = ()
        if (
            self.columnar
            and self.columnar_native
            and atom.platform.columnar_native
        ):
            body_consumers = loop_state_consumers(atom)
            if body_consumers:
                state_consumers = tuple(body_consumers)
        state = self._pull_channel(
            state_channel, atom.platform, metrics, atom.id,
            consumers=state_consumers,
        )
        elided = 0
        if getattr(state, "is_columnar_batch", False):
            elided += 1
        else:
            state = list(state)

        iterations_before = metrics.loop_iterations
        previous_caching = runtime.caching_enabled
        runtime.caching_enabled = True
        try:
            bound = (
                repeat.times if repeat.times is not None else repeat.max_iterations
            )
            for _iteration in range(bound):
                metrics.ledger.charge(
                    "loop.sync",
                    atom.platform.cost_model.loop_iteration_ms(),
                    atom.platform.name,
                    atom.id,
                )
                runtime.bound_sources[repeat.body_input.id] = state
                body_channels: dict[int, CollectionChannel] = {}
                # Loop bodies re-run every iteration by design: no
                # journal, no admission below the top.
                for body_atom in atom.body_plan.atoms:
                    self._run_atom(
                        body_atom, body_channels, runtime, metrics, models
                    )
                try:
                    state_out = body_channels[repeat.body_output.id]
                except KeyError:
                    raise ExecutionError(
                        f"loop atom #{atom.id}: body produced no output channel"
                    ) from None
                state = self._pull_channel(
                    state_out, atom.platform, metrics, atom.id,
                    consumers=state_consumers,
                )
                if getattr(state, "is_columnar_batch", False):
                    elided += 1
                metrics.loop_iterations += 1
                self._emit(
                    LOOP_ITERATION,
                    metrics.ledger.tracer,
                    atom=atom.id,
                    platform=atom.platform.name,
                    iteration=metrics.loop_iterations,
                    state_card=len(state),
                )
                if repeat.condition is not None and repeat.condition(state):
                    break
        finally:
            runtime.caching_enabled = previous_caching
            runtime.bound_sources.pop(repeat.body_input.id, None)
        if loop_span is not None:
            loop_span.set(
                iterations=metrics.loop_iterations - iterations_before,
                state_card=len(state),
            )
            if elided:
                loop_span.set(columnar_elided=elided)
        channels[repeat.id] = self._make_channel(repeat.id, state, atom, metrics)
