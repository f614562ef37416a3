"""The atom driver: one scheduler runs every plan segment at every width.

The paper's Executor "schedul[es] the resulting execution plan on the
selected data processing frameworks" (§4.2).
:class:`ConcurrentAtomScheduler` is the only code that drives a
top-level plan segment — for ordinary, failover-replaced and adaptively
re-planned segments alike — and it does so in one of two ways:

* **inline** (``parallelism == 1`` or a single-atom plan): every atom,
  task or loop, runs on the coordinator thread against the *live*
  ledger, tracer, health tracker and injector counters — no thread hop,
  no shard;
* **dispatched** (everything else): independent task atoms run on a
  thread or process backend against private shards, and the coordinator
  replays their effects in plan order, so outputs, the ledger entry
  sequence (``virtual_ms`` is a float sum), the span tree and resilience
  behaviour are byte-identical to an inline run.

Either way each executed atom passes through the same plan-order step,
:meth:`ConcurrentAtomScheduler._step`, which owns the bookkeeping.

Determinism by journal + replay
-------------------------------

Worker threads do **pure computation**: each in-flight atom runs against
a private *shard* — its own :class:`~repro.core.metrics.CostLedger`,
:class:`~repro.core.observability.spans.Tracer`,
:class:`~repro.core.observability.registry.MetricsRegistry` and health
journal — and touches no coordinator state.  The coordinator then
*replays* every stateful effect in **plan order** (atom index order):

* shard span trees are grafted into the main trace
  (:meth:`Tracer.graft`), advancing the virtual clock exactly as live
  charging would have;
* shard ledgers are merged entry-by-entry in plan order, so the main
  ledger's entry sequence is identical to an inline run at any
  parallelism;
* health-tracker mutations (success/failure/advance) recorded by the
  worker's journal are applied to the real
  :class:`~repro.core.resilience.HealthTracker` in order, so circuit
  breakers evolve exactly as they would inline;
* counters/histograms are folded in via ``MetricsRegistry.merge_from``.

Channels, by contrast, are published at *completion* (out of order) so
dependents can dispatch as early as possible — results are
order-independent; accounting is not.

Fault injection and backoff jitter are kept schedule-free by
*predict-and-commit*: ordinals (:class:`FailureInjector`) and backoff
tokens are assigned by **plan index** at dispatch without advancing the
shared counters, and committed during replay.  A failure surfaces at
replay in plan order; the scheduler then drains in-flight work, discards
(unpublishes, rolls back) every speculative execution at a higher index,
and re-raises for the executor's failover ladder — leaving all counters
exactly where an inline run's failure would have left them.  An
after-atom hook that cuts the segment (adaptive re-planning) discards
the speculative suffix the same way.

Loop atoms are *numbering barriers*: their bodies consume ordinals
dynamically, so a loop runs inline on the coordinator once everything
before it has been replayed and nothing is in flight.

Execution backends: threads and processes
-----------------------------------------

The coordinator logic above is backend-agnostic; what varies is where
the pure computation runs.  ``Executor(execution_mode="thread")`` (the
default) dispatches onto a thread pool.  ``execution_mode="process"``
forks a pool of worker *processes* at segment start (fork, not spawn:
plans hold closures that cannot be pickled, so workers inherit the
plan/executor/runtime by address-space copy) and ships work through
``multiprocessing`` queues.  The wire has one form: a task message and a
result message are each **one pickle made on the sending thread** (the
coordinator in ``_ProcessBackend.submit``, the worker before
``result_q.put``), and the queue carries the bytes.  A task carries the
atom's input channels; a result carries the same journal a thread worker
would hand back — shard tracer, metrics, health ops *and the channels
the atom produced*, row or columnar alike — plus the mutations a thread
worker would have made against shared objects — the failure injector's
attempt counts and log lines, and listener events — shipped as deltas
and applied by the coordinator at completion.  Replay is unchanged, so
ledger sequence, ``virtual_ms``, span shape and outputs are
byte-identical across inline, thread and process execution at any
parallelism.

Pickling where the message is built (not on the queue's feeder thread,
which prints the error, drops the item and leaves the receiver polling
forever) is what makes a payload that cannot cross — a map that returns
closures, say — an ordinary failure: the journal's ``produced`` is
cleared, the error becomes an :class:`ExecutionError` naming the atom,
and it surfaces in plan order through the usual graft path.

Channel refcounting
-------------------

When materialised channels are not needed later — failover disabled, no
recoverable journal attached, no after-atom hook installed — the
scheduler counts
each hand-off's consumers at plan time and drops the payload
(:meth:`CollectionChannel.release`) once the last consumer has passed
its plan-order step, bounding peak memory to the live frontier instead
of the whole run's intermediates.  Collect-sink channels are never
released.

Critical-path clock
-------------------

``virtual_ms`` stays the *total work* (identical at any parallelism);
the scheduler additionally computes a **makespan**: each atom's virtual
start is the max of its dependencies' virtual finishes (plus any
serialized coordinator overhead such as platform startup), its finish is
start + its own ledger segment.  ``metrics.makespan_ms`` is the largest
finish — what the run *would* take with the scheduled overlap — and is
``<= virtual_ms`` by construction.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time
from bisect import insort
from collections import ChainMap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.channels import CollectionChannel
from repro.core.execution.plan import ExecutionPlan, LoopAtom, TaskAtom
from repro.core.listeners import ExecutionEvent, RecordingListener
from repro.core.metrics import ExecutionMetrics
from repro.core.observability.spans import Tracer
from repro.core.resilience import BREAKER_CLOSED
from repro.core.runtime import RuntimeContext
from repro.errors import AtomExhaustedError, ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.executor import Executor
    from repro.core.observability.spans import Span
    from repro.core.recovery import RunJournal

__all__ = [
    "ConcurrentAtomScheduler",
    "CriticalPath",
    "SegmentCut",
    "atom_dependencies",
    "shard_runtime",
]

#: thread-name prefix for pool workers (worker ids are parsed off it)
_WORKER_PREFIX = "repro-atom"


class SegmentCut(Exception):
    """Control flow, not a failure: the executor's after-atom hook asked
    for the plan tail to be re-planned.  Atoms up to and including
    ``index`` have passed their plan-order step; everything speculatively
    executed beyond it has been discarded."""

    def __init__(self, index: int) -> None:
        super().__init__(f"segment cut after atom index {index}")
        self.index = index


def atom_dependencies(atom: TaskAtom | LoopAtom) -> set[int]:
    """Operator ids whose channels ``atom`` consumes (its DAG parents)."""
    if isinstance(atom, LoopAtom):
        return {atom.state_producer_id}
    return set(atom.external_inputs.values())


# ----------------------------------------------------------------------
# critical-path virtual time
# ----------------------------------------------------------------------
class CriticalPath:
    """Tracks per-atom virtual start/finish along channel dependencies.

    ``metrics.makespan_ms`` means the same thing at any parallelism: the
    virtual time of the longest dependency chain, with coordinator
    overheads (startup, re-planning) serializing before the atoms that
    follow them.
    """

    def __init__(self) -> None:
        #: operator id -> virtual finish of the atom producing it
        self.finish: dict[int, float] = {}
        self.makespan_ms = 0.0
        #: sum of atom ledger-segment costs recorded so far
        self.accounted_ms = 0.0
        #: coordinator overhead accumulated so far (startup, replans...)
        self.base_ms = 0.0

    def sync_overhead(self, ledger_total_ms: float) -> None:
        """Fold non-atom charges into the serialized coordinator base.

        ``ledger_total_ms`` is the main ledger's running total; whatever
        it holds beyond the atom costs already accounted is overhead
        that delays every subsequently scheduled atom.
        """
        base = ledger_total_ms - self.accounted_ms
        if base > self.base_ms:
            self.base_ms = base

    def record(self, atom: TaskAtom | LoopAtom, cost_ms: float) -> float:
        """Account one executed atom; returns its virtual finish."""
        start = self.base_ms
        for op_id in atom_dependencies(atom):
            produced = self.finish.get(op_id)
            if produced is not None and produced > start:
                start = produced
        finish = start + cost_ms
        for op_id in atom.output_ids:
            self.finish[op_id] = finish
        if finish > self.makespan_ms:
            self.makespan_ms = finish
        self.accounted_ms += cost_ms
        return finish


# ----------------------------------------------------------------------
# worker-side journaling
# ----------------------------------------------------------------------
class _JournalHealth:
    """Health-tracker stand-in workers mutate; coordinator replays.

    Records every operation instead of applying it, and never rejects —
    the authoritative quarantine decision is made by the coordinator at
    replay time with the health state a sequential run would have had.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: list[tuple[str, str | None, Any]] = []

    def record_success(self, name: str) -> None:
        self.ops.append(("success", name, None))

    def record_failure(self, name: str, permanent: bool = False) -> bool:
        self.ops.append(("failure", name, permanent))
        return False

    def advance(self, ms: float) -> None:
        self.ops.append(("advance", None, ms))

    # Worker-side availability checks always pass; the coordinator's
    # replay applies the real (ordered) check.
    def is_available(self, name: str) -> bool:
        return True

    def state(self, name: str) -> str:
        return BREAKER_CLOSED

    def replay_onto(self, health) -> None:
        """Apply the journal to a real HealthTracker, in order."""
        for op, name, arg in self.ops:
            if op == "success":
                health.record_success(name)
            elif op == "failure":
                health.record_failure(name, permanent=arg)
            else:
                health.advance(arg)


def shard_runtime(base: RuntimeContext, tracer, health) -> RuntimeContext:
    """Runtime clone for an ``execute_atom`` call that must not write the
    live trace: a worker-run atom, or a deadline-guarded attempt.

    Shares what a platform legitimately needs — catalog, failure
    injector, bound loop state, the source cache — but carries a private
    shard ``tracer`` (the platform wires its atom ledger to
    ``runtime.tracer``; an abandoned deadline zombie keeps writing into
    a tracer nobody reads), the caller's ``health`` (a worker passes a
    :class:`_JournalHealth`, a deadline guard the live tracker) and no
    journal.  Loop state is only ever bound while a loop
    runs live with nothing in flight, so workers see it empty.
    """
    clone = RuntimeContext(
        base.catalog, base.failure_injector, health=health, tracer=tracer
    )
    clone.bound_sources = base.bound_sources
    clone.source_cache = base.source_cache
    clone.caching_enabled = base.caching_enabled
    return clone


@dataclass
class _AtomJournal:
    """Everything one worker-executed atom produced, awaiting replay."""

    index: int
    atom: "TaskAtom | None"  # None only while crossing a process boundary
    metrics: ExecutionMetrics
    health: _JournalHealth
    shard: "Tracer | None"
    worker: int
    slot: int
    ordinal: int | None
    #: channels the atom produced (op id -> channel), published on
    #: completion, unpublished if the run aborts before this replays
    produced: dict[int, CollectionChannel] = field(default_factory=dict)
    error: BaseException | None = None

    @property
    def cost_ms(self) -> float:
        return self.metrics.ledger.total_ms


@dataclass
class _ProcessResult:
    """One worker *process*'s completed atom, in picklable form.

    ``journal`` is the :class:`_AtomJournal` the worker built —
    produced channels included — minus what cannot cross a pickle:
    ``atom`` (and ``error.atom``) drag UDF closures and are reattached
    from ``plan.atoms[index]`` by the coordinator.  The mutations a
    thread worker would have made against shared objects ride along as
    deltas: injector attempt counts + log lines, and listener events.
    """

    journal: _AtomJournal
    injector_attempts: dict[int, int]
    injector_log: list[tuple[int, str | None, str]]
    events: list[ExecutionEvent]


def _boundary_error(
    index: int, what: str, failure: BaseException
) -> ExecutionError:
    """The typed failure for a task/result message that refused to
    pickle on its sender's thread."""
    return ExecutionError(
        f"atom index {index}: {what} cannot cross the process boundary "
        f"({type(failure).__name__}: {failure})"
    )


# ----------------------------------------------------------------------
# execution backends
# ----------------------------------------------------------------------
class _ThreadBackend:
    """The original thread-pool dispatch: workers touch the live
    (coordinator-owned) objects through their shards."""

    def __init__(self, scheduler: "ConcurrentAtomScheduler") -> None:
        self._scheduler = scheduler
        self._done: "queue.Queue[_AtomJournal]" = queue.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=scheduler.parallelism,
            thread_name_prefix=_WORKER_PREFIX,
        )

    def submit(
        self, index: int, atom: TaskAtom, ordinal: int | None, token: int,
        slot: int,
    ) -> None:
        self._pool.submit(
            self._job, index, ordinal, token, slot, time.perf_counter()
        )

    def _job(
        self, index: int, ordinal: int | None, token: int, slot: int,
        submitted_at: float,
    ) -> None:
        thread_name = threading.current_thread().name
        try:
            worker = int(thread_name.rsplit("_", 1)[1])
        except (IndexError, ValueError):  # pragma: no cover - defensive
            worker = 0
        scheduler = self._scheduler
        self._done.put(
            scheduler._run_shard(
                index, ordinal, token, slot, worker, submitted_at,
                scheduler.channels,
            )
        )

    def next_result(self) -> _AtomJournal:
        return self._done.get()

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class _ProcessBackend:
    """Forked worker processes fed through multiprocessing queues.

    Forked at construction (segment start), so workers inherit the
    plan's closures, the executor's per-segment estimate tables and the
    runtime services by address-space copy; everything dispatched later
    travels through the task queue, as one pickle made by the sender
    (module docstring).  ``next_result`` polls with a timeout so a dead
    worker (OOM-kill, hard crash) surfaces as an
    :class:`ExecutionError` instead of a hang.
    """

    def __init__(self, scheduler: "ConcurrentAtomScheduler") -> None:
        import multiprocessing

        self._scheduler = scheduler
        context = multiprocessing.get_context("fork")
        self._task_q = context.Queue()
        self._result_q = context.Queue()
        #: journals of atoms whose task message could not be pickled
        self._unsent: list[_AtomJournal] = []
        self._workers = [
            context.Process(
                target=scheduler._process_worker_main,
                args=(worker, self._task_q, self._result_q),
                name=f"{_WORKER_PREFIX}-proc_{worker}",
                daemon=True,
            )
            for worker in range(scheduler.parallelism)
        ]
        for process in self._workers:
            process.start()

    def submit(
        self, index: int, atom: TaskAtom, ordinal: int | None, token: int,
        slot: int,
    ) -> None:
        # Input channels travel by value: workers were forked at segment
        # start and cannot see channels published since.
        scheduler = self._scheduler
        inputs = {
            op_id: scheduler.channels[op_id]
            for op_id in scheduler._deps[index]
        }
        try:
            wire = pickle.dumps(
                (index, ordinal, token, slot, time.perf_counter(), inputs),
                pickle.HIGHEST_PROTOCOL,
            )
        except Exception as failure:
            self._unsent.append(_AtomJournal(
                index=index, atom=atom, metrics=ExecutionMetrics(),
                health=_JournalHealth(), shard=None, worker=0, slot=slot,
                ordinal=ordinal,
                error=_boundary_error(index, "input", failure),
            ))
            return
        self._task_q.put(wire)

    def next_result(self) -> _AtomJournal:
        if self._unsent:
            return self._unsent.pop()
        while True:
            try:
                wire = self._result_q.get(timeout=0.2)
            except queue.Empty:
                dead = [p for p in self._workers if not p.is_alive()]
                if dead:
                    raise ExecutionError(
                        f"worker process {dead[0].name!r} died "
                        f"(exit code {dead[0].exitcode}) with work in flight"
                    ) from None
                continue
            return self._scheduler._journal_from_result(pickle.loads(wire))

    def shutdown(self) -> None:
        for _ in self._workers:
            try:
                self._task_q.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        deadline = time.monotonic() + 10.0
        for process in self._workers:
            process.join(max(0.1, deadline - time.monotonic()))
        for process in self._workers:
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(1.0)
        # Drop undelivered items (aborted runs leave stale results);
        # cancel_join_thread so feeder threads never block interpreter exit.
        for q in (self._task_q, self._result_q):
            q.close()
            q.cancel_join_thread()


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
class ConcurrentAtomScheduler:
    """Drives one top-level plan segment: inline at width 1, dispatched
    with plan-order replay above.

    One instance per segment (a fresh one after every failover or
    adaptive re-plan); the executor owns retries, movement pricing and
    segment replacement — the scheduler owns dispatch, journals, replay,
    the per-atom bookkeeping and the critical path.
    """

    def __init__(
        self,
        executor: "Executor",
        plan: ExecutionPlan,
        channels: dict[int, CollectionChannel],
        runtime: "RuntimeContext",
        metrics: ExecutionMetrics,
        models: dict[str, Any],
        cpath: CriticalPath,
        start: int = 0,
        journal: "RunJournal | None" = None,
    ) -> None:
        self.executor = executor
        self.plan = plan
        self.channels = channels
        self.runtime = runtime
        self.metrics = metrics
        self.models = models
        self.cpath = cpath
        self.parallelism = executor.parallelism
        #: "thread" or "process" — which backend runs the pure computation
        self.execution_mode = getattr(executor, "execution_mode", "thread")
        self.tracer = metrics.ledger.tracer
        self._parent_span: "Span | None" = (
            self.tracer.current if self.tracer is not None else None
        )
        #: durable run journal (None when the run is not journaled, or
        #: a failover / tail re-plan replaced the plan it describes);
        #: committed by the coordinator at the plan-order step.
        self._journal = journal

        atoms = plan.atoms
        n = len(atoms)
        #: whether every atom runs live on the coordinator (the module
        #: docstring has the rule).  Decided by the *plan*, never the
        #: resumed suffix length: shard grafts group v-clock additions
        #: differently from live charging, and resume promises
        #: bit-identical accounting.
        self._inline = self.parallelism == 1 or n <= 1
        self._deps = [atom_dependencies(atom) for atom in atoms]
        # ``start`` atoms were restored from the run journal on resume:
        # their channels are already published, their effects replayed.
        self._replay_cursor = min(start, n)
        self._journals: dict[int, _AtomJournal] = {}
        self._published: dict[int, list[int]] = {}
        self._inflight = 0

        # --- process-wide admission (serving) ------------------------------
        # When a PlatformSlotPool is installed on the executor, every
        # atom additionally draws a slot from the *shared* budget, so
        # concurrent queries cannot together exceed a platform's cap.
        self._slot_pool = getattr(executor, "slot_pool", None)

        # --- channel refcounting -------------------------------------------
        # Only safe when materialised channels are not needed later:
        # they bound the suffix a failover or an after-atom cut
        # re-plans, and a recoverable journal saves them to its store.
        self._refcount_enabled = (
            not executor.failover
            and executor._after_atom is None
            and (journal is None or journal.store is None)
        )
        if self._refcount_enabled:
            self._protected = {sink.id for sink in plan.collect_sinks}
            self._consumers: dict[int, int] = {}
            for deps in self._deps:
                for op_id in deps:
                    self._consumers[op_id] = self._consumers.get(op_id, 0) + 1

        if self._inline:
            return  # everything below is dispatch state

        #: indices handed to the backend (in flight, or awaiting replay
        #: in ``_journals``)
        self._dispatched: set[int] = set()
        self._pool_starved: set[str] = set()

        # --- per-platform concurrency slots -------------------------------
        self._slot_free: dict[str, list[int]] = {}
        for platform in plan.platforms:
            cap = max(1, min(
                self.parallelism,
                getattr(platform, "max_concurrent_atoms", 1),
            ))
            self._slot_free.setdefault(platform.name, list(range(cap)))

        # --- predict-and-commit counters ----------------------------------
        self._pred_ordinal: list[int | None] = [None] * n
        self._pred_token: list[int] = [0] * n

        self._backend: "_ThreadBackend | _ProcessBackend | None" = None

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------
    def _recompute_predictions(self, start: int) -> None:
        """Assign ordinals/backoff tokens by plan index from the current
        committed counter positions, stopping at the next loop barrier
        (its dynamic consumption re-bases everything after it)."""
        injector = self.runtime.failure_injector
        next_ordinal = injector.position + 1 if injector is not None else None
        next_token = getattr(self.executor, "_atom_seq", 0)
        atoms = self.plan.atoms
        for i in range(start, len(atoms)):
            if isinstance(atoms[i], LoopAtom):
                break
            self._pred_ordinal[i] = next_ordinal
            self._pred_token[i] = next_token
            if next_ordinal is not None:
                next_ordinal += 1
            next_token += 1

    def _commit_counters(self, journal: _AtomJournal) -> None:
        """Advance the shared counters for one replayed atom execution —
        exactly what a live run's ``next_atom()``/``_atom_seq`` would
        have consumed."""
        injector = self.runtime.failure_injector
        if injector is not None:
            injector.skip(1)
        self.executor._atom_seq = getattr(self.executor, "_atom_seq", 0) + 1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute every atom; raises exactly what an inline run would."""
        n = len(self.plan.atoms)
        if n == 0:
            return
        if self._inline:
            for index in range(self._replay_cursor, n):
                self._step(index)
            return
        self.cpath.sync_overhead(self.metrics.ledger.total_ms)
        self._recompute_predictions(self._replay_cursor)
        backend = (
            _ProcessBackend(self)
            if self.execution_mode == "process"
            else _ThreadBackend(self)
        )
        self._backend = backend
        try:
            while self._replay_cursor < n:
                self._dispatch_ready(backend)
                if self._inflight:
                    journal = backend.next_result()
                    self._on_complete(journal)
                    self._replay_prefix()
                    continue
                # Nothing in flight: either the head is a loop barrier
                # whose turn has come, or the plan is undispatchable.
                head = self.plan.atoms[self._replay_cursor]
                if isinstance(head, LoopAtom) and self._deps_ready(
                    self._replay_cursor
                ):
                    self._step(self._replay_cursor)
                    # The loop consumed ordinals/tokens live; re-base
                    # predictions for everything after the barrier.
                    self._recompute_predictions(self._replay_cursor)
                    continue
                if self._slot_pool is not None and self._pool_starved:
                    # Not a wiring deadlock: every dispatchable atom is
                    # waiting on the shared admission budget.  Park until
                    # a concurrent query releases a slot, then retry.
                    starved = self._pool_starved
                    self._pool_starved = set()
                    if self._slot_pool.wait_for_slot(starved, timeout=60.0):
                        continue
                raise ExecutionError(
                    f"scheduler deadlock: atom index {self._replay_cursor} "
                    f"({head!r}) has unsatisfiable dependencies "
                    f"{sorted(self._deps[self._replay_cursor])}"
                )
        finally:
            backend.shutdown()
            self._backend = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _deps_ready(self, index: int) -> bool:
        return all(op_id in self.channels for op_id in self._deps[index])

    def _dispatch_ready(self, backend) -> None:
        """Submit every dispatchable task atom."""
        atoms = self.plan.atoms
        for index in range(self._replay_cursor, len(atoms)):
            atom = atoms[index]
            if isinstance(atom, LoopAtom):
                # Barrier: nothing beyond an unfinished loop may run
                # (its body consumes ordinals dynamically).
                break
            if index in self._dispatched:
                continue
            if not self._deps_ready(index):
                continue
            free = self._slot_free.get(atom.platform.name)
            if not free:
                continue
            if self._slot_pool is not None and not self._slot_pool.try_acquire(
                atom.platform.name
            ):
                # Another query holds the shared budget; park this atom.
                self._pool_starved.add(atom.platform.name)
                continue
            slot = free.pop(0)
            self._dispatched.add(index)
            self._inflight += 1
            backend.submit(
                index, atom, self._pred_ordinal[index],
                self._pred_token[index], slot,
            )

    # ------------------------------------------------------------------
    # worker side (runs on pool threads / in worker processes)
    # ------------------------------------------------------------------
    def _run_shard(
        self,
        index: int,
        ordinal: int | None,
        token: int,
        slot: int,
        worker: int,
        submitted_at: float,
        inputs,
    ) -> _AtomJournal:
        """Run one task atom against a private shard — tracer, metrics,
        health journal, runtime — reading its inputs from ``inputs``."""
        # Dispatch-to-start latency: how long the atom sat in the pool's
        # queue before a worker picked it up.  Recorded on the span (and
        # the atom_queue_wait_ms histogram) only when profiling is on.
        queue_wait_ms = (time.perf_counter() - submitted_at) * 1e3
        atom = self.plan.atoms[index]
        shard = Tracer() if self.tracer is not None else None
        wmetrics = ExecutionMetrics(
            registry=shard.registry if shard is not None else None
        )
        wmetrics.ledger.tracer = shard
        health = _JournalHealth()
        journal = _AtomJournal(
            index=index, atom=atom, metrics=wmetrics, health=health,
            shard=shard, worker=worker, slot=slot, ordinal=ordinal,
        )
        try:
            self.executor._run_task_atom(
                atom, ChainMap(journal.produced, inputs),
                shard_runtime(self.runtime, shard, health), wmetrics,
                self.models, ordinal=ordinal, token=token,
                queue_wait_ms=queue_wait_ms,
            )
        except BaseException as error:  # replayed (and re-raised) in order
            journal.error = error
        return journal

    # ------------------------------------------------------------------
    # process mode: result landing (coordinator) and job loop (workers)
    # ------------------------------------------------------------------
    def _journal_from_result(self, result: _ProcessResult) -> _AtomJournal:
        """Rebuild a worker process's result into an :class:`_AtomJournal`.

        Besides reattaching the atom (and the stripped
        ``AtomExhaustedError.atom``), this lands the mutations a
        thread-mode worker would have made against shared objects at
        execution time: injector attempt counts + log lines (before any
        ``reset_attempts`` an abort might issue), and listener events
        (thread-mode listeners also observe completion order under
        concurrency; live mid-atom ordering is best-effort by contract).
        """
        journal = result.journal
        journal.atom = self.plan.atoms[journal.index]
        if isinstance(journal.error, AtomExhaustedError):
            journal.error.atom = journal.atom
        injector = self.runtime.failure_injector
        if injector is not None:
            if result.injector_attempts:
                injector.apply_attempts(result.injector_attempts)
            if result.injector_log:
                injector.log.extend(result.injector_log)
        listeners = self.executor.listeners
        if listeners and result.events:
            with self.executor._listener_lock:
                for event in result.events:
                    for listener in listeners:
                        listener.on_event(event)
        return journal

    def _process_worker_main(self, worker: int, task_q, result_q) -> None:
        """Entry point of one forked worker process."""
        code = 0
        try:
            while True:
                wire = task_q.get()
                if wire is None:
                    break
                result_q.put(self._process_job(worker, pickle.loads(wire)))
        except BaseException:  # pragma: no cover - scheduler bug surface
            code = 1
        finally:
            try:
                result_q.close()
                result_q.join_thread()
            finally:
                # ``_exit``: the parent's atexit handlers (test plugins)
                # must not run in a child.
                os._exit(code)

    def _process_job(self, worker: int, task: tuple) -> bytes:
        """Run one atom against private shards in a worker process and
        pickle the :class:`_ProcessResult` for the coordinator."""
        index, ordinal, token, slot, submitted_at, inputs = task
        injector = self.runtime.failure_injector
        attempts_before = (
            injector.snapshot_attempts() if injector is not None else {}
        )
        log_mark = len(injector.log) if injector is not None else 0
        # Listener swap (worker-local fork copy): events are recorded
        # here and fanned out by the coordinator at completion.
        recorder = RecordingListener()
        self.executor.listeners = [recorder]
        journal = self._run_shard(
            index, ordinal, token, slot, worker, submitted_at, inputs
        )
        attempts_delta: dict[int, int] = {}
        log_delta: list[tuple[int, str | None, str]] = []
        if injector is not None:
            attempts_delta = {
                key: count
                for key, count in injector.snapshot_attempts().items()
                if attempts_before.get(key) != count
            }
            log_delta = injector.log[log_mark:]
        # ``atom`` and ``AtomExhaustedError.atom`` drag the whole task
        # fragment (UDF closures) into the pickle: stripped here,
        # reattached by :meth:`_journal_from_result`.
        journal.atom = None
        error = journal.error
        if isinstance(error, AtomExhaustedError):
            error.atom = None
        result = _ProcessResult(
            journal=journal,
            injector_attempts=attempts_delta,
            injector_log=log_delta,
            events=recorder.events,
        )
        try:
            wire = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            if error is not None:
                # an exception class can pickle and still refuse to be
                # rebuilt; the error message is small, so probe it here
                pickle.loads(wire)
        except Exception as failure:
            # Whatever refused the boundary — output rows or the error
            # object — degrades to a typed error carrying the message,
            # so a worker never dies on an unpicklable result.
            journal.produced = {}
            journal.error = (
                _boundary_error(index, "output", failure)
                if error is None
                else ExecutionError(f"{type(error).__name__}: {error}")
            )
            wire = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        return wire

    # ------------------------------------------------------------------
    # coordinator side: completion + replay
    # ------------------------------------------------------------------
    def _on_complete(self, journal: _AtomJournal) -> None:
        self._inflight -= 1
        self._journals[journal.index] = journal
        insort(self._slot_free[journal.atom.platform.name], journal.slot)
        if self._slot_pool is not None:
            self._slot_pool.release(journal.atom.platform.name)
        if journal.error is None and journal.produced:
            # Publish eagerly so dependents can dispatch before replay.
            self.channels.update(journal.produced)
            self._published[journal.index] = list(journal.produced)

    def _consume_inputs(self, index: int) -> None:
        """Refcount: the atom has finished reading its input channels."""
        if not self._refcount_enabled:
            return
        for op_id in self._deps[index]:
            remaining = self._consumers.get(op_id, 0) - 1
            self._consumers[op_id] = remaining
            if remaining <= 0 and op_id not in self._protected:
                channel = self.channels.get(op_id)
                if channel is not None:
                    channel.release()

    def _replay_prefix(self) -> None:
        while self._replay_cursor in self._journals:
            self._step(
                self._replay_cursor, self._journals.pop(self._replay_cursor)
            )

    def _step(self, index: int, journal: _AtomJournal | None = None) -> None:
        """The plan-order step for one executed atom — the one place the
        per-atom bookkeeping is written.

        journal mark → (blocking slot-pool acquire → live run → release
        | graft of the shard a worker ran) → journal commit (payload
        save + record) → critical-path record → refcount consume →
        after-atom hook.  Without
        ``journal`` the atom runs live on the coordinator (every atom of
        an inline segment; loop barriers otherwise): everything before
        it has passed this step and nothing is in flight, so the shared
        counters, health tracker and tracer are exactly where they
        belong and it consumes them directly.
        """
        executor, runtime, metrics = self.executor, self.runtime, self.metrics
        channels, ledger = self.channels, metrics.ledger
        atom = self.plan.atoms[index]
        # Mark *before* any effect lands so the journal record captures
        # exactly this atom's slice of ledger/span/observation state.
        mark = executor._journal_mark(metrics)
        if journal is not None:
            self._graft(journal)
        since = ledger.total_ms
        if journal is None:
            if self._inline:
                self.cpath.sync_overhead(since)
            pool = self._slot_pool
            if pool is not None:
                # Shared admission: top-level atoms draw from the
                # process-wide per-platform budget (serving daemon).
                pool.acquire(atom.platform.name)
            try:
                executor._run_atom(
                    atom, channels, runtime, metrics, self.models
                )
            finally:
                if pool is not None:
                    pool.release(atom.platform.name)
        if self._journal is not None:
            executor._journal_commit(
                self._journal, mark, index, atom, channels, runtime, metrics
            )
        # A live atom's cost is its ledger slice; a grafted one's is the
        # shard total plus the commit's save charges (``0.0 + x == x``,
        # so one expression keeps both float groupings).
        shard_ms = journal.cost_ms if journal is not None else 0.0
        self.cpath.record(atom, shard_ms + ledger.total_ms - since)
        self._replay_cursor = index + 1
        self._consume_inputs(index)
        hook = executor._after_atom
        if hook is not None and hook(self.plan, index, channels):
            self._abort(discard_from=index + 1)
            raise SegmentCut(index)

    def _graft(self, journal: _AtomJournal) -> None:
        """Land one worker-run atom's effects on the coordinator state,
        or surface its failure — in plan order either way."""
        atom = journal.atom
        # Authoritative fail-fast quarantine check, with the health state
        # an inline run would have at this exact point.  A rejected atom
        # never ran inline: discard its journal wholesale.
        try:
            self.executor._reject_if_quarantined(atom, self.runtime)
        except AtomExhaustedError as rejection:
            self._journals[journal.index] = journal  # discard self too
            self._abort(discard_from=journal.index)
            raise rejection
        if journal.error is not None and not isinstance(
            journal.error, AtomExhaustedError
        ):
            # Programming/user error outside the retry ladder: surface in
            # deterministic (plan) order without committing counters.
            self._journals[journal.index] = journal
            self._abort(discard_from=journal.index)
            raise journal.error
        # Merge effects in plan order: spans first (advances the virtual
        # clock by the shard total, exactly as live charging would
        # have), then ledger entries, registry series, health ops.
        if journal.shard is not None and self.tracer is not None:
            self.tracer.graft(
                journal.shard,
                parent=self._parent_span,
                stamp={"worker": journal.worker, "slot": journal.slot},
            )
        self.metrics.ledger.merge(journal.metrics.ledger)
        self.metrics.registry.merge_from(journal.metrics.registry)
        journal.health.replay_onto(self.runtime.health)
        self.metrics.misestimates.extend(journal.metrics.misestimates)
        self.metrics.calibration_observations.extend(
            journal.metrics.calibration_observations
        )
        self._commit_counters(journal)
        if journal.error is not None:
            # The failed execution's charges/health/counters are all in —
            # identical to an inline failure — now discard everything
            # speculatively executed beyond it and surface the failure.
            self._abort(discard_from=journal.index + 1)
            raise journal.error

    # ------------------------------------------------------------------
    # failure: drain, discard, roll back
    # ------------------------------------------------------------------
    def _abort(self, discard_from: int) -> None:
        """Drain in-flight work and discard journals >= ``discard_from``.

        Discarded executions are unpublished (their channels removed)
        and their predicted injector ordinals rolled back, so the
        failover re-plan — and its re-executions — see exactly the
        state an inline run's failure would have left.
        """
        while self._inflight:
            self._on_complete(self._backend.next_result())
        injector = self.runtime.failure_injector
        discarded_ordinals: list[int] = []
        for index, journal in list(self._journals.items()):
            if index < discard_from:
                continue
            for op_id in self._published.pop(index, ()):
                self.channels.pop(op_id, None)
            if journal.ordinal is not None:
                discarded_ordinals.append(journal.ordinal)
            del self._journals[index]
        if injector is not None and discarded_ordinals:
            injector.reset_attempts(discarded_ordinals)
