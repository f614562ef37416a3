"""Run-time context threaded through atom execution.

Carries the cross-cutting services platforms need while executing a task
atom: bound loop-state sources, the loop-invariant source cache, the
storage catalog, the platform health tracker (circuit breakers +
quarantines, see :mod:`repro.core.resilience`) and failure injection for
resilience tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

# Re-exported for backward compatibility: FailureInjector historically
# lived here; it now belongs to the resilience subsystem.
from repro.core.resilience import FailureInjector, HealthTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.catalog import Catalog

__all__ = ["FailureInjector", "RuntimeContext"]


class RuntimeContext:
    """Mutable per-execution state shared by the executor and platforms."""

    def __init__(
        self,
        catalog: "Catalog | None" = None,
        failure_injector: FailureInjector | None = None,
        health: HealthTracker | None = None,
        tracer: "Any | None" = None,
        journal: "Any | None" = None,
        crash_injector: "Any | None" = None,
    ):
        self.catalog = catalog
        self.failure_injector = failure_injector
        #: optional :class:`~repro.core.recovery.RunJournal`: a durable
        #: write-ahead record of atom completions; given a payload
        #: ``store`` it makes the run recoverable (a later execution
        #: over the same journal resumes).  The one recovery mechanism.
        self.journal = journal
        #: optional :class:`~repro.core.recovery.CrashInjector` for chaos
        #: tests: hard-aborts the run around a chosen journal commit.
        self.crash_injector = crash_injector
        #: optional :class:`~repro.core.observability.spans.Tracer`; when
        #: attached the Executor and platforms open spans (atoms,
        #: operators, movement) and ledgers advance its virtual clock.
        #: None (the default) keeps the whole tracing path allocation-free.
        self.tracer = tracer
        #: Per-platform failure accounting, circuit breakers and
        #: quarantines.  Reuse one RuntimeContext (or pass a shared
        #: tracker) across executions to carry health knowledge over.
        self.health = health or HealthTracker()
        #: Loop-state bindings: physical LoopInput operator id -> current state.
        self.bound_sources: dict[int, list[Any]] = {}
        #: Cache of loop-invariant source results:
        #: (platform name, operator id) -> native dataset.
        self.source_cache: dict[tuple[str, int], Any] = {}
        #: When True, source operators populate ``source_cache`` (set by the
        #: executor while running loop bodies).
        self.caching_enabled = False
