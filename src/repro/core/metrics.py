"""Execution metrics and the virtual-time ledger.

The executor monitors task-atom execution (paper §4.2: the Executor is
responsible for "monitoring the progress of plan execution") and accounts
*virtual time*: the simulated platform cost models evaluated with the
cardinalities actually observed at run time.  See DESIGN.md §2 for why
time is virtual while results are real.

Since the observability subsystem landed, the ledger doubles as the
virtual *clock source* for tracing — a :class:`CostLedger` with a tracer
attached notifies it on every charge, which is how span virtual
durations stay reconciled with ledger totals — and
:class:`ExecutionMetrics` is a **view over a
**:class:`~repro.core.observability.registry.MetricsRegistry` rather
than a parallel bookkeeping path: its counters are registry-backed
properties, so everything the executor accounts is immediately
exportable in Prometheus format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.observability.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observability.spans import Tracer


@dataclass(frozen=True)
class CostEntry:
    """One priced event: an operator run, a data movement, an overhead."""

    label: str
    ms: float
    platform: str
    atom_id: int | None = None
    #: serving attribution: which tenant's query charged this entry.
    #: Stamped post-run by the serving daemon and excluded from
    #: equality so byte-identity contracts across runs are unaffected.
    tenant: str | None = field(default=None, compare=False)


@dataclass
class CostLedger:
    """Append-only list of cost entries; cheap to merge.

    When a :class:`~repro.core.observability.spans.Tracer` is attached
    (``ledger.tracer = tracer``), every ``charge`` advances the tracer's
    virtual clock — making the ledger the single source of virtual time
    for span durations.  ``merge`` deliberately does *not* re-notify:
    entries merged from another ledger were already clocked when they
    were charged (both ledgers of a traced run share the tracer).
    """

    entries: list[CostEntry] = field(default_factory=list)
    #: optional tracer notified per charge (excluded from comparisons)
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def charge(
        self, label: str, ms: float, platform: str, atom_id: int | None = None
    ) -> None:
        """Record ``ms`` of virtual time under ``label``."""
        entry = CostEntry(label, ms, platform, atom_id)
        self.entries.append(entry)
        if self.tracer is not None:
            self.tracer.record_charge(entry)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's entries into this one (no re-clocking)."""
        self.entries.extend(other.entries)

    @property
    def total_ms(self) -> float:
        return sum(entry.ms for entry in self.entries)


#: bucket bounds shared by the run-level ``misestimate_factor`` histogram
#: and the calibration store's per-kind factor priors (folded factors are
#: always >= 1, roughly exponential)
MISESTIMATE_BUCKETS = (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)


@dataclass(frozen=True)
class CardinalityMisestimate:
    """An optimizer estimate that run-time observation contradicted.

    Collected by the Executor at atom boundaries (the only places where
    cardinalities are observable without extra passes); the feedback the
    paper's monitoring enables and that adaptive re-optimization would
    consume.
    """

    operator_id: int
    estimated: float
    observed: int

    @property
    def factor(self) -> float:
        """How far off the estimate was (always >= 1)."""
        if self.observed == 0 or self.estimated == 0:
            return float("inf") if self.observed != self.estimated else 1.0
        ratio = self.observed / self.estimated
        return ratio if ratio >= 1.0 else 1.0 / ratio


@dataclass(frozen=True)
class CalibrationObservation:
    """One estimate/observation pair tagged for cross-run learning.

    Recorded by the Executor for *every* boundary cardinality it can
    compare (not just contradicted ones), in deterministic plan order —
    the concurrent scheduler extends the list at journal replay, so the
    sequence is identical at any parallelism.  A
    :class:`~repro.core.optimizer.calibration.CalibrationStore` folds
    these into per-operator-kind/per-platform priors.

    ``correction`` is the factor the calibrated estimator already applied
    to ``estimated`` at plan time; the store divides it back out so
    priors always describe the *raw* estimator's bias (otherwise
    corrections would dilute themselves run over run).
    """

    operator_id: int
    kind: str
    platform: str
    estimated: float
    observed: int
    correction: float = 1.0

    @property
    def factor(self) -> float:
        """Residual (post-correction) folded misestimate factor."""
        return CardinalityMisestimate(
            self.operator_id, self.estimated, self.observed
        ).factor


class _RegistryBacked:
    """Descriptor: an ExecutionMetrics field backed by a registry series.

    ``metrics.retries += 1`` reads and writes the registry counter of the
    same name — this is what makes ExecutionMetrics a *view* over the
    registry instead of a second bookkeeping path.
    """

    def __init__(self, name: str, help: str = "", as_int: bool = True):
        self.name = name
        self.help = help
        self.as_int = as_int

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.registry.counter(self.name, self.help).value()
        return int(value) if self.as_int else value

    def __set__(self, obj, value) -> None:
        obj.registry.counter(self.name, self.help).set(value)


class ExecutionMetrics:
    """What one plan execution cost, and where the time went.

    A thin facade: virtual time lives in the :class:`CostLedger`,
    counters live in a
    :class:`~repro.core.observability.registry.MetricsRegistry` (pass a
    shared one — e.g. ``tracer.registry`` — to aggregate across runs or
    export alongside a trace).
    """

    #: number of task atoms executed (loop bodies counted per iteration)
    atoms_executed = _RegistryBacked("atoms_executed", "task atoms executed")
    #: number of atom retries performed after injected/real failures
    retries = _RegistryBacked("retries", "atom retries after failures")
    #: virtual ms spent backing off between retries (also in the ledger
    #: under ``retry.backoff``)
    backoff_ms = _RegistryBacked(
        "backoff_ms", "virtual ms spent in retry backoff", as_int=False
    )
    #: mid-run failovers: plan suffixes re-planned off a sick platform
    failovers = _RegistryBacked("failovers", "mid-run plan-suffix failovers")
    #: platforms quarantined (circuit breaker opened) during the run
    quarantines = _RegistryBacked("quarantines", "platform quarantines")
    #: loop iterations executed across all loop atoms
    loop_iterations = _RegistryBacked(
        "loop_iterations", "loop iterations executed"
    )
    #: crashed runs resumed from a durable journal (0 or 1 per execution)
    resumes = _RegistryBacked("resumes", "runs resumed from a run journal")
    #: atoms replayed from the journal instead of re-executed on resume
    atoms_restored = _RegistryBacked(
        "atoms_restored", "atoms replayed from the run journal"
    )
    #: atoms abandoned for overrunning their wall-clock deadline
    deadline_kills = _RegistryBacked(
        "deadline_kills", "atoms killed by the per-atom deadline"
    )

    def __init__(
        self,
        ledger: CostLedger | None = None,
        wall_ms: float = 0.0,
        registry: MetricsRegistry | None = None,
    ):
        self.ledger = ledger if ledger is not None else CostLedger()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wall_ms = wall_ms
        #: critical-path virtual time: the longest dependency chain of
        #: atom costs (plus serialized overheads).  Equals
        #: :attr:`virtual_ms` for a fully sequential chain; strictly less
        #: when independent atoms could overlap.  Filled by the Executor.
        self.makespan_ms = 0.0
        #: estimates the observed boundary cardinalities contradicted (>=4x off)
        self.misestimates: list[CardinalityMisestimate] = []
        #: every boundary estimate/observation pair, tagged with operator
        #: kind + platform (+ the correction factor already applied) —
        #: the feed the cross-run CalibrationStore ingests.  Deterministic
        #: order: plan order sequentially, journal-replay order under the
        #: concurrent scheduler.
        self.calibration_observations: list[CalibrationObservation] = []

    # ------------------------------------------------------------------
    @property
    def virtual_ms(self) -> float:
        """Total simulated execution time."""
        return self.ledger.total_ms

    def by_platform(self) -> dict[str, float]:
        """Virtual milliseconds grouped by platform name."""
        totals: dict[str, float] = {}
        for entry in self.ledger.entries:
            totals[entry.platform] = totals.get(entry.platform, 0.0) + entry.ms
        return totals

    def by_label(self) -> dict[str, float]:
        """Virtual milliseconds grouped by full charge label.

        The full-breakdown companion of :meth:`by_label_prefix`: every
        distinct ledger label with its total, e.g.
        ``{"op.map": 3.2, "move.java->spark": 1.1, "startup": 5.0}``.
        """
        totals: dict[str, float] = {}
        for entry in self.ledger.entries:
            totals[entry.label] = totals.get(entry.label, 0.0) + entry.ms
        return totals

    def by_label_prefix(self, prefix: str) -> float:
        """Sum of entries whose label starts with ``prefix``.

        Useful prefixes: ``move`` (inter-platform transfers), ``startup``,
        ``op.`` (operator compute), ``loop`` (iteration overheads).
        """
        return sum(e.ms for e in self.ledger.entries if e.label.startswith(prefix))

    @property
    def movement_ms(self) -> float:
        """Virtual time spent moving data between platforms."""
        return self.by_label_prefix("move")

    # ------------------------------------------------------------------
    def record_misestimate(
        self, report: CardinalityMisestimate, contradicted: bool = True
    ) -> None:
        """Register an estimate/observation comparison.

        Every finite factor feeds the ``misestimate_factor`` histogram
        (the signal adaptive re-optimization consumes); only
        ``contradicted`` reports join :attr:`misestimates`.
        """
        if math.isfinite(report.factor):
            self.registry.histogram(
                "misestimate_factor",
                "observed/estimated cardinality discrepancy factor",
                buckets=MISESTIMATE_BUCKETS,
            ).observe(report.factor)
        if contradicted:
            self.misestimates.append(report)

    def record_calibration_observation(
        self, observation: CalibrationObservation
    ) -> None:
        """Append one kind/platform-tagged boundary observation."""
        self.calibration_observations.append(observation)

    def observe_movement(self, pair: str, ms: float) -> None:
        """Feed the per-platform-pair movement histogram."""
        self.registry.histogram(
            "movement_ms", "virtual ms per inter-platform transfer"
        ).observe(ms, pair=pair)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable one-paragraph summary.

        Resilience, loop and resume counters appear only when
        non-zero, but none of them are silently dropped:
        ``backoff_ms`` and ``loop_iterations`` surface when they carry
        signal.
        """
        platform_part = ", ".join(
            f"{name}={ms:.1f}ms" for name, ms in sorted(self.by_platform().items())
        )
        extras = []
        if self.makespan_ms:
            extras.append(f"makespan={self.makespan_ms:.1f}ms")
        if self.backoff_ms:
            extras.append(f"backoff={self.backoff_ms:.1f}ms")
        if self.failovers or self.quarantines:
            extras.append(
                f"failovers={self.failovers} quarantines={self.quarantines}"
            )
        if self.loop_iterations:
            extras.append(f"loop_iterations={self.loop_iterations}")
        if self.resumes:
            extras.append(
                f"resumes={self.resumes} atoms_restored={self.atoms_restored}"
            )
        if self.deadline_kills:
            extras.append(f"deadline_kills={self.deadline_kills}")
        extra_part = (" " + " ".join(extras)) if extras else ""
        return (
            f"virtual={self.virtual_ms:.1f}ms (movement={self.movement_ms:.1f}ms) "
            f"[{platform_part}] atoms={self.atoms_executed} "
            f"retries={self.retries}{extra_part} wall={self.wall_ms:.1f}ms"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionMetrics({self.summary()})"
