"""Cardinality estimation for physical plans.

Estimates feed the cost models during optimization.  At *run time* the
executor re-reads the same cost models with **observed** cardinalities, so
virtual-time measurements never depend on these estimates — only plan
choices do, exactly as in a classical optimizer.

UDF opacity is the central difficulty the paper highlights for UDF-first
optimizers (§4.2); following its "context" proposal, estimates honour the
hints developers attach to logical operators (selectivity, output factor,
key fan-out) and fall back to conservative defaults otherwise.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.core.physical.operators import (
    PCollectionSource,
    PLimit,
    PRepeat,
    PSample,
    PTableSource,
    PTextFileSource,
    PhysicalOperator,
)
from repro.core.physical.plan import PhysicalPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer.calibration import CalibrationStore


class CardinalityEstimator:
    """Rule-of-thumb estimator with hint overrides.

    The class is deliberately stateless so applications can subclass and
    override :meth:`estimate_operator` for domain knowledge (the cleaning
    application overrides the blocking fan-out, for instance).
    """

    DEFAULT_FILTER_SELECTIVITY = 0.25
    DEFAULT_FLATMAP_FACTOR = 3.0
    DEFAULT_KEY_FANOUT = 0.1
    DEFAULT_DISTINCT_FANOUT = 0.5
    DEFAULT_TEXTFILE_BYTES_PER_LINE = 80
    DEFAULT_UNKNOWN_SOURCE_CARD = 10_000

    def estimate_plan(
        self, plan: PhysicalPlan, seeds: dict[int, float] | None = None
    ) -> dict[int, float]:
        """Estimate output cardinality for every operator in ``plan``.

        ``seeds`` pins the estimate of specific operators (by id) — the
        enumerator uses this to feed the known loop-state cardinality to
        the ``LoopInput`` of a ``Repeat`` body.

        Returns a map from operator id to estimated output cardinality.
        """
        estimates: dict[int, float] = dict(seeds or {})
        for operator in plan.graph.topological_order():
            if operator.id in estimates:
                continue
            input_cards = [
                estimates[producer.id]
                for producer in plan.graph.inputs_of(operator)
            ]
            estimates[operator.id] = self.estimate_operator(operator, input_cards)
        return estimates

    def estimate_operator(
        self, operator: PhysicalOperator, input_cards: list[float]
    ) -> float:
        """Estimate the output cardinality of a single operator."""
        kind = operator.kind
        hints = operator.hints
        n = input_cards[0] if input_cards else 0.0

        if isinstance(operator, PCollectionSource):
            return float(len(operator.data))
        if isinstance(operator, PTextFileSource):
            return self._estimate_textfile(operator.path)
        if isinstance(operator, PTableSource):
            # Refined by the storage-aware estimator subclass in
            # repro.storage.catalog when a catalog is attached.
            return float(self.DEFAULT_UNKNOWN_SOURCE_CARD)
        if kind == "source.loopinput":
            return float(self.DEFAULT_UNKNOWN_SOURCE_CARD)

        if kind in ("map", "zipwithid", "sort", "sink.collect"):
            return n
        if kind == "flatmap":
            factor = hints.output_factor
            if factor is None:
                factor = self.DEFAULT_FLATMAP_FACTOR
            return n * factor
        if kind == "filter":
            selectivity = hints.selectivity
            if selectivity is None:
                selectivity = self.DEFAULT_FILTER_SELECTIVITY
            return n * selectivity
        if kind.startswith("groupby.") or kind.startswith("reduceby."):
            fanout = hints.key_fanout
            if fanout is None:
                fanout = self.DEFAULT_KEY_FANOUT
            return max(1.0, n * fanout) if n else 0.0
        if kind == "reduce.global" or kind == "count":
            return 1.0 if n else 0.0
        if kind.startswith("join."):
            left, right = input_cards
            if hints.key_fanout is not None:
                return left * right * hints.key_fanout
            return max(left, right)
        if kind == "cross":
            left, right = input_cards
            return left * right
        if kind == "union":
            return sum(input_cards)
        if kind.startswith("distinct."):
            fanout = hints.key_fanout
            if fanout is None:
                fanout = self.DEFAULT_DISTINCT_FANOUT
            return n * fanout
        if isinstance(operator, PSample):
            return float(min(operator.size, n))
        if isinstance(operator, PLimit):
            return float(min(operator.n, n))
        if isinstance(operator, PRepeat):
            # Loop state is assumed size-preserving; the body estimate is
            # computed separately by the enumerator when costing the loop.
            return n
        # Unknown (application-defined) operator: assume size-preserving
        # over the first input unless hints say otherwise.
        factor = hints.output_factor if hints.output_factor is not None else 1.0
        return n * factor

    def _estimate_textfile(self, path: str) -> float:
        try:
            size = os.path.getsize(path)
        except OSError:
            return float(self.DEFAULT_UNKNOWN_SOURCE_CARD)
        return max(1.0, size / self.DEFAULT_TEXTFILE_BYTES_PER_LINE)


class CalibratedCardinalityEstimator(CardinalityEstimator):
    """An estimator whose guesses are corrected by learned priors.

    Wraps a *base* estimator (composition, so an application's domain
    subclass keeps working underneath) and multiplies its per-operator
    estimates by the
    :class:`~repro.core.optimizer.calibration.CalibrationStore`'s
    learned correction factor for the operator kind.

    Behavioural contract (what the equivalence suite pins down):

    * **cold start** — a store below ``min_samples`` yields correction
      1.0 for every kind, so a cold calibrated estimator is
      byte-identical to the raw one (same estimates, same plans);
    * **exact cardinalities are never corrected** — collection sources
      know their length, and seeded estimates (loop-state feeds) are
      pinned by :meth:`estimate_plan` before this class sees them;
    * **only kinds with intrinsic estimation uncertainty are
      corrected** (:attr:`CORRECTABLE_KINDS` /
      :attr:`CORRECTABLE_PREFIXES`): a filter's selectivity or a
      group-by's key fan-out is a guess worth learning, but a ``map``
      or ``sink.collect`` estimate is purely inherited from its input —
      its observed misestimate is the *upstream* operator's error, and
      correcting it too would compound the same fix twice along the
      chain;
    * :attr:`last_corrections` maps operator id -> applied factor for
      the most recent :meth:`estimate_plan` call, which is how applied
      corrections travel to the ExecutionPlan (and from there get
      divided back out when observations are fed to the store).
    """

    #: kinds whose estimates rest on a guessed scalar (selectivity,
    #: output factor, fan-out) — the learnable ones
    CORRECTABLE_KINDS = frozenset({"filter", "flatmap", "cross"})
    #: kind prefixes with guessed fan-outs / unknown source sizes
    CORRECTABLE_PREFIXES = (
        "groupby.",
        "reduceby.",
        "distinct.",
        "join.",
        "source.table",
        "source.textfile",
    )

    def __init__(
        self,
        store: "CalibrationStore",
        base: CardinalityEstimator | None = None,
    ):
        self.store = store
        self.base = base if base is not None else CardinalityEstimator()
        #: operator id -> correction factor applied in the latest
        #: :meth:`estimate_plan` (only factors that moved an estimate)
        self.last_corrections: dict[int, float] = {}

    def estimate_plan(
        self, plan: PhysicalPlan, seeds: dict[int, float] | None = None
    ) -> dict[int, float]:
        self.last_corrections = {}
        return super().estimate_plan(plan, seeds)

    def estimate_operator(
        self, operator: PhysicalOperator, input_cards: list[float]
    ) -> float:
        raw = self.base.estimate_operator(operator, input_cards)
        if isinstance(operator, PCollectionSource):
            return raw  # exact by construction; never corrected
        if not self.correctable(operator.kind):
            return raw  # pass-through kind: error is inherited, not local
        factor = self.store.correction(operator.kind)
        if factor == 1.0:
            return raw
        corrected = raw * factor
        if corrected != raw:
            self.last_corrections[operator.id] = factor
            self.store.note_prior_applied(operator.kind)
        return corrected

    @classmethod
    def correctable(cls, kind: str) -> bool:
        """Whether learned corrections may move estimates of ``kind``."""
        return kind in cls.CORRECTABLE_KINDS or kind.startswith(
            cls.CORRECTABLE_PREFIXES
        )
