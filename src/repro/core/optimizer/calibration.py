"""Cross-run cardinality calibration: learning from the misestimate feed.

The paper's §4.2 monitoring loop records every observed/estimated
cardinality discrepancy; the RHEEM line of work (progressive
optimization, RHEEMix) closes the loop by feeding those discrepancies
*back into the estimator*.  This module is that loop's memory:

* :class:`CalibrationStore` — per-operator-kind/per-platform priors over
  the misestimate feed (sample count, log-mean of the raw
  observed/estimated ratio, p50/p90 of the folded residual factor),
  backed by a shared
  :class:`~repro.core.observability.registry.MetricsRegistry` so priors
  are exportable/scrapable like any other series, with JSON
  snapshot/restore for persistence across processes;
* :class:`CalibratedCardinalityEstimator` (in
  :mod:`repro.core.optimizer.cardinality`) multiplies raw estimates by
  the store's learned correction factors;
* :class:`~repro.core.progressive.ProgressiveExecutor` consumes the
  *distribution* of the current run's factors (p90 drift band) instead
  of a fixed per-boundary threshold.

**Determinism contract.**  Store updates are fed from
``ExecutionMetrics.calibration_observations``, which is populated in
plan order (journal-replay order under the concurrent scheduler), so the
store state after a run is byte-identical at any ``parallelism``.

Calibration is off unless a store is attached (``calibrate=`` /
``--calibrate``): no store, no corrections and no ingestion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.metrics import MISESTIMATE_BUCKETS, CalibrationObservation
from repro.core.observability.registry import (
    HistogramSeries,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import ExecutionMetrics

@dataclass(frozen=True)
class CalibrationPrior:
    """One (operator kind, platform) prior derived from the store."""

    kind: str
    platform: str
    count: int
    #: mean of ln(observed / raw estimate) — the signed bias
    log_mean: float
    #: p50/p90 of the folded residual factor (always >= 1)
    p50: float
    p90: float

    @property
    def geo_mean_ratio(self) -> float:
        """Geometric mean of observed/raw-estimate (the correction)."""
        return math.exp(self.log_mean)


class CalibrationStore:
    """Per-kind/per-platform misestimate priors, registry-backed.

    Three instruments in the backing registry hold the state (all keyed
    by ``kind`` + ``platform`` labels):

    * counter ``calibration_samples`` — sample count;
    * gauge ``calibration_log_ratio_sum`` — sum of ln(observed/raw
      estimate), signed (a gauge because under-estimates subtract);
    * histogram ``calibration_factor`` — folded *residual* factors
      (post-correction), bucketed like ``misestimate_factor``, for
      p50/p90 priors.

    Pass a shared registry (e.g. ``tracer.registry``) to co-export the
    priors with run telemetry, or let the store own a private one.
    """

    #: corrections are not applied below this many samples.  1 means a
    #: single observed run is enough — the cold-start fallback is the
    #: *empty* store (correction 1.0 everywhere), which is what makes
    #: the two-run demo work: run 1 observes, run 2 corrects.  Raise it
    #: to demand more evidence before estimates move.
    DEFAULT_MIN_SAMPLES = 1
    #: correction factors are clamped to [1/cap, cap]
    DEFAULT_MAX_CORRECTION = 1e6
    #: snapshot file the CLI opened this store from (None: built in
    #: code); the journal ``config_epoch`` digests it
    path: str | None = None

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        max_correction: float = DEFAULT_MAX_CORRECTION,
    ):
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if max_correction < 1.0:
            raise ValueError(
                f"max_correction must be >= 1, got {max_correction}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.min_samples = min_samples
        self.max_correction = max_correction
        #: monotonic prior-state version; see :attr:`epoch`
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Monotonic counter bumped whenever the priors change.

        Consumers that memoize optimizer output (the serving-layer plan
        cache) key their entries on this value: any successful
        :meth:`observe`, a :meth:`restore` or a :meth:`reset` invalidates
        every plan enumerated under the previous priors, so a stale
        cached plan can never be served after the estimator moved.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    @property
    def _samples(self):
        return self.registry.counter(
            "calibration_samples",
            "estimate/observation pairs folded into calibration priors",
        )

    @property
    def _log_sum(self):
        return self.registry.gauge(
            "calibration_log_ratio_sum",
            "sum of ln(observed/raw estimate) per kind/platform",
        )

    @property
    def _factors(self):
        return self.registry.histogram(
            "calibration_factor",
            "folded residual misestimate factor per kind/platform",
            buckets=MISESTIMATE_BUCKETS,
        )

    @property
    def _priors_applied(self):
        return self.registry.counter(
            "priors_applied",
            "estimates multiplied by a learned calibration correction",
        )

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def observe(
        self,
        kind: str,
        platform: str,
        estimated: float,
        observed: float,
        correction: float = 1.0,
    ) -> bool:
        """Fold one estimate/observation pair into the priors.

        ``estimated`` is the (possibly already-corrected) plan-time
        estimate; ``correction`` the factor the calibrated estimator
        applied to it, which is divided back out so the stored ratio
        describes the *raw* estimator's bias.  Pairs with a zero on
        either side carry no finite ratio and are skipped (returns
        False).
        """
        if estimated <= 0 or observed <= 0 or correction <= 0:
            return False
        raw_estimate = estimated / correction
        ratio = observed / raw_estimate
        if not math.isfinite(ratio) or ratio <= 0:
            return False
        residual = observed / estimated
        folded = residual if residual >= 1.0 else 1.0 / residual
        self._samples.inc(kind=kind, platform=platform)
        self._log_sum.inc(math.log(ratio), kind=kind, platform=platform)
        self._factors.observe(folded, kind=kind, platform=platform)
        self._epoch += 1
        return True

    def ingest(self, metrics: "ExecutionMetrics") -> int:
        """Fold a finished run's observation feed into the priors.

        Returns the number of pairs ingested.
        """
        return self.ingest_observations(metrics.calibration_observations)

    def ingest_observations(
        self, observations: Iterable[CalibrationObservation]
    ) -> int:
        count = 0
        for obs in observations:
            if self.observe(
                obs.kind, obs.platform, obs.estimated, obs.observed,
                obs.correction,
            ):
                count += 1
        return count

    # ------------------------------------------------------------------
    # corrections
    # ------------------------------------------------------------------
    def correction(self, kind: str, platform: str | None = None) -> float:
        """Learned correction factor for ``kind`` (pooled over platforms
        unless one is named).

        Cold start: below ``min_samples`` samples the correction is 1.0
        (raw estimates pass through unchanged — this is what makes a
        cold store byte-identical to calibration-off).  The factor is
        the geometric mean of observed/raw-estimate, clamped to
        ``[1/max_correction, max_correction]``.
        """
        count = 0.0
        log_sum = 0.0
        for key, value in self._samples.series.items():
            labels = dict(key)
            if labels.get("kind") != kind:
                continue
            if platform is not None and labels.get("platform") != platform:
                continue
            count += value
            log_sum += self._log_sum.series.get(key, 0.0)
        if count < self.min_samples:
            return 1.0
        factor = math.exp(log_sum / count)
        return min(max(factor, 1.0 / self.max_correction), self.max_correction)

    def note_prior_applied(self, kind: str) -> None:
        """Count one estimate that a learned correction actually moved."""
        self._priors_applied.inc(kind=kind)

    @property
    def priors_applied(self) -> int:
        """How many estimates learned corrections have moved so far."""
        return int(self._priors_applied.total())

    # ------------------------------------------------------------------
    # priors
    # ------------------------------------------------------------------
    def priors(self) -> list[CalibrationPrior]:
        """Every (kind, platform) prior, sorted for stable rendering."""
        out: list[CalibrationPrior] = []
        for key, count in sorted(self._samples.series.items()):
            labels = dict(key)
            kind = labels.get("kind", "?")
            platform = labels.get("platform", "?")
            log_sum = self._log_sum.series.get(key, 0.0)
            series = self._factors.series.get(key)
            p50 = series.quantile(0.5) if series else 0.0
            p90 = series.quantile(0.9) if series else 0.0
            out.append(
                CalibrationPrior(
                    kind=kind,
                    platform=platform,
                    count=int(count),
                    log_mean=(log_sum / count) if count else 0.0,
                    p50=p50,
                    p90=p90,
                )
            )
        return out

    def sample_count(self) -> int:
        """Total samples across every (kind, platform) series."""
        return int(self._samples.total())

    def p90(self, kind: str, platform: str) -> float:
        """p90 residual factor prior for one (kind, platform)."""
        return self._factors.quantile(0.9, kind=kind, platform=platform)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    SNAPSHOT_VERSION = 1

    def snapshot(self) -> dict:
        """A JSON-serialisable dump that :meth:`restore` round-trips
        exactly (counts, log sums, bucket counts, vmin/vmax)."""
        priors = []
        for key, count in sorted(self._samples.series.items()):
            labels = dict(key)
            series = self._factors.series.get(key)
            entry = {
                "kind": labels.get("kind", "?"),
                "platform": labels.get("platform", "?"),
                "count": count,
                "log_sum": self._log_sum.series.get(key, 0.0),
            }
            if series is not None:
                entry["factor_histogram"] = {
                    "bounds": list(series.bounds),
                    "counts": list(series.counts),
                    "total": series.total,
                    "n": series.n,
                    "vmin": series.vmin,
                    "vmax": series.vmax,
                }
            priors.append(entry)
        return {
            "version": self.SNAPSHOT_VERSION,
            "min_samples": self.min_samples,
            "max_correction": self.max_correction,
            "priors": priors,
        }

    def restore(self, data: dict) -> None:
        """Load a :meth:`snapshot` dump *into* this store (additive:
        restoring onto a non-empty store merges, like ``merge_from``)."""
        version = data.get("version")
        if version != self.SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported calibration snapshot version {version!r}"
            )
        self._epoch += 1
        for entry in data.get("priors", []):
            kind = entry["kind"]
            platform = entry["platform"]
            count = float(entry.get("count", 0))
            if count:
                self._samples.inc(count, kind=kind, platform=platform)
                self._log_sum.inc(
                    float(entry.get("log_sum", 0.0)),
                    kind=kind, platform=platform,
                )
            hist = entry.get("factor_histogram")
            if hist:
                bounds = tuple(float(b) for b in hist["bounds"])
                incoming = HistogramSeries(
                    bounds=bounds,
                    counts=[int(c) for c in hist["counts"]],
                    total=float(hist["total"]),
                    n=int(hist["n"]),
                    vmin=float(hist.get("vmin", math.inf)),
                    vmax=float(hist.get("vmax", -math.inf)),
                )
                instrument = self._factors
                key = tuple(sorted(
                    (k, str(v))
                    for k, v in {"kind": kind, "platform": platform}.items()
                ))
                target = instrument.series.get(key)
                if target is None:
                    instrument.series[key] = incoming
                else:
                    if target.bounds != incoming.bounds:
                        raise ValueError(
                            "calibration snapshot histogram bounds do not "
                            f"match for {kind}@{platform}"
                        )
                    for i, c in enumerate(incoming.counts):
                        target.counts[i] += c
                    target.total += incoming.total
                    target.n += incoming.n
                    target.vmin = min(target.vmin, incoming.vmin)
                    target.vmax = max(target.vmax, incoming.vmax)

    def save_json(self, path: str) -> None:
        """Write the snapshot as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(
        cls,
        path: str,
        registry: MetricsRegistry | None = None,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        max_correction: float = DEFAULT_MAX_CORRECTION,
    ) -> "CalibrationStore":
        """Build a store from a JSON snapshot file."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        store = cls(
            registry=registry,
            min_samples=int(data.get("min_samples", min_samples)),
            max_correction=float(data.get("max_correction", max_correction)),
        )
        store.restore(data)
        return store

    def reset(self) -> None:
        """Drop every prior (counts, log sums, factor histograms)."""
        self._samples.series.clear()
        self._log_sum.series.clear()
        self._factors.series.clear()
        self._priors_applied.series.clear()
        self._epoch += 1

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable prior table for ``repro calibration show`` and
        the ``repro explain`` calibration section."""
        priors = self.priors()
        if not priors:
            return "calibration store: empty (no priors recorded)"
        lines = [
            f"calibration store: {self.sample_count()} samples across "
            f"{len(priors)} (kind, platform) series "
            f"(min_samples={self.min_samples}, "
            f"corrections applied={self.priors_applied})"
        ]
        header = (
            f"  {'kind':<18} {'platform':<10} {'n':>5} "
            f"{'correction':>11} {'p50':>8} {'p90':>8}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for prior in priors:
            correction = self.correction(prior.kind, prior.platform)
            lines.append(
                f"  {prior.kind:<18} {prior.platform:<10} {prior.count:>5} "
                f"{correction:>10.3g}x {prior.p50:>7.2f}x {prior.p90:>7.2f}x"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CalibrationStore samples={self.sample_count()} "
            f"series={len(self._samples.series)}>"
        )
