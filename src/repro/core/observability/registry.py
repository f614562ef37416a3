"""Named metrics: counters, gauges and histograms with labeled series.

A :class:`MetricsRegistry` is the single bookkeeping surface for run
telemetry — :class:`~repro.core.metrics.ExecutionMetrics` is a *view*
over one (its counters are properties reading/writing registry series),
and the exporters render a registry in Prometheus text exposition
format.

All three instrument types support labels::

    registry.counter("atoms_executed").inc()
    registry.histogram("movement_ms").observe(4.2, pair="java->spark")

Series are keyed by the sorted label items, so
``observe(1, a="x", b="y")`` and ``observe(1, b="y", a="x")`` hit the
same series.
"""

from __future__ import annotations

import math
import os
import subprocess
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative inc {amount}")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        """Force a value (ExecutionMetrics-view plumbing, not public API)."""
        self.series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self.series.values())


class Gauge(Counter):
    """A value that can go up and down."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


#: default histogram buckets — virtual-ms scale, roughly exponential
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


@dataclass
class HistogramSeries:
    """One label set's bucketed observations."""

    bounds: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0
    #: smallest / largest observed values (exact, tracked alongside the
    #: buckets so quantiles can be clamped to the observed range)
    vmin: float = math.inf
    vmax: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        # bisect_left keeps the Prometheus ``le`` convention: a value
        # equal to a bucket bound lands in that bucket (closed upper).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.n += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate of the observations.

        Walks the cumulative bucket counts to the bucket containing the
        ``q``-th observation and returns its upper bound, clamped to the
        exact observed ``[vmin, vmax]`` range.  Consequences worth
        spelling out (they are what the adaptive p90 drift trigger
        relies on):

        * **empty** series -> ``0.0`` (no evidence, no drift);
        * **single sample** -> the sample itself (clamping beats the
          bucket bound);
        * **all-equal** samples -> exactly that value, at any ``q``;
        * overflow bucket (beyond the last bound) -> ``vmax``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
        if self.n == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.n))
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.bounds):
                    upper = self.bounds[index]
                else:  # overflow bucket: only the exact max is known
                    upper = self.vmax
                return min(max(upper, self.vmin), self.vmax)
        return self.vmax  # pragma: no cover - counts always sum to n


class Histogram:
    """Bucketed distribution (per label set)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] | None = None):
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        self.series: dict[LabelKey, HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = HistogramSeries(self.bounds)
        series.observe(value)

    def count(self, **labels: Any) -> int:
        series = self.series.get(_label_key(labels))
        return series.n if series else 0

    def sum(self, **labels: Any) -> float:
        series = self.series.get(_label_key(labels))
        return series.total if series else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """Bucket-resolution quantile for one label set (0.0 if empty).

        See :meth:`HistogramSeries.quantile` for the edge-case
        contract (empty / single-sample / all-equal / overflow).
        """
        series = self.series.get(_label_key(labels))
        return series.quantile(q) if series else 0.0


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls) or (
            cls is Counter and isinstance(instrument, Gauge)
        ):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        if help and not instrument.help:
            instrument.help = help
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] | None = None) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    # ------------------------------------------------------------------
    def merge_from(
        self,
        other: "MetricsRegistry",
        extra_labels: "dict[str, Any] | None" = None,
    ) -> None:
        """Fold another registry's series into this one.

        The concurrent scheduler gives each in-flight task atom a private
        shard registry; on completion the coordinator merges shards back
        deterministically (atom-ordinal order).  Counters and gauges add
        per label set; histograms add bucket counts, totals and sample
        counts (bucket bounds must match — shards are created by the same
        code paths, so they do).

        ``extra_labels`` stamps every merged series with additional
        labels (the serving daemon folds per-query registries into its
        process registry with ``{"tenant": ...}``, keeping tenants'
        series disjoint).
        """
        for name, instrument in other._instruments.items():
            if isinstance(instrument, Histogram):
                mine = self.histogram(name, instrument.help,
                                      buckets=instrument.bounds)
                for key, series in instrument.series.items():
                    key = _extend_key(key, extra_labels)
                    target = mine.series.get(key)
                    if target is None:
                        target = mine.series[key] = HistogramSeries(mine.bounds)
                    if target.bounds != series.bounds:
                        raise ValueError(
                            f"histogram {name!r}: cannot merge series with "
                            "mismatched bucket bounds"
                        )
                    for i, count in enumerate(series.counts):
                        target.counts[i] += count
                    target.total += series.total
                    target.n += series.n
                    target.vmin = min(target.vmin, series.vmin)
                    target.vmax = max(target.vmax, series.vmax)
            else:
                mine = (
                    self.gauge(name, instrument.help)
                    if isinstance(instrument, Gauge)
                    else self.counter(name, instrument.help)
                )
                for key, value in instrument.series.items():
                    key = _extend_key(key, extra_labels)
                    mine.series[key] = mine.series.get(key, 0.0) + value

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A plain-data dump of every series (JSON-serialisable).

        Shape: ``{name: {"type": ..., "series": {label_repr: value}}}``
        where histogram values are ``{"count", "sum", "mean"}`` dicts.
        """
        out: dict[str, dict[str, Any]] = {}
        for instrument in self.instruments():
            series: dict[str, Any] = {}
            if isinstance(instrument, Histogram):
                for key, h in sorted(instrument.series.items()):
                    series[_render_labels(key)] = {
                        "count": h.n, "sum": h.total, "mean": h.mean,
                    }
            else:
                for key, value in sorted(instrument.series.items()):
                    series[_render_labels(key)] = value
            out[instrument.name] = {"type": instrument.kind, "series": series}
        return out


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return ",".join(f"{k}={v}" for k, v in key)


def _extend_key(key: LabelKey, extra: "dict[str, Any] | None") -> LabelKey:
    """Add ``extra`` labels to a series key (extra wins on collision)."""
    if not extra:
        return key
    merged = dict(key)
    merged.update((k, str(v)) for k, v in extra.items())
    return tuple(sorted(merged.items()))


def set_build_info(
    registry: MetricsRegistry,
    name: str = "run_info",
    help: str = "build identity of the serving process",
    **labels: Any,
) -> None:
    """(Re-)register an info-style gauge with exactly one series.

    Info gauges carry their payload in *labels* (value pinned to 1), so
    a plain ``gauge().set(1, **labels)`` on a restart with different
    labels would accrete a second, stale series — every label set keys
    its own series.  This helper makes registration idempotent: prior
    series are dropped and exactly one remains, with the latest labels.
    """
    gauge = registry.gauge(name, help)
    gauge.series.clear()
    gauge.set(1, **labels)


def repo_git_sha(cwd: str | None = None) -> str | None:
    """HEAD commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.getcwd(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None
