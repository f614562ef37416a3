"""Trace diffing: align two span logs and explain what changed.

``repro trace-diff A.jsonl B.jsonl`` compares two runs of (nominally)
the same workload — before/after an optimizer change, kernels on vs
off, one platform roster vs another — and reports:

* **per-layer virtual-time deltas** — the span kinds (optimizer,
  executor, platform, movement, storage) with their summed self-times
  in each trace and the difference;
* **biggest per-span moves** — aligned spans ranked by absolute
  virtual-time delta;
* **added / removed spans** — spans with no counterpart in the other
  trace; movement hops are called out separately because a new
  ``move.java->spark`` span *is* the headline when a plan change
  introduces a cross-platform hand-off;
* **flipped candidate orderings** — enumerator ``candidate`` spans are
  re-ranked by estimated cost in each trace; platform subsets whose
  relative order changed (and any winner change) are reported.

Alignment is structural, not positional: spans pair up by
``(kind, normalised name, identity attributes)`` with an occurrence
index for repeats.  Names are normalised by collapsing ``#<digits>``
ids (``atom#12`` → ``atom#N``) because atom/op counters are
process-global and differ across runs even for identical plans.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ValidationError

#: attributes that identify *what* a span is (as opposed to volatile
#: run-scoped ids like ``op``/``atom``/``span_id`` or measured outcomes
#: like ``output_card``/``estimated_cost_ms``/``batch_kernel``/
#: ``columnar_elided`` — the batch kernel and elision counts are what a
#: run *did*, so they must not break alignment between a row-path, a
#: columnar-native and an egest-per-consumer trace of the same plan)
_IDENTITY_ATTRS = (
    "kind",
    "platform",
    "platforms",
    "pair",
    "kernel",
    "fused_stages",
)

_ID_PATTERN = re.compile(r"#\d+")

#: span attributes written by the resource profiler (REPRO_PROFILE=1);
#: when both traces carry them, the diff reports per-layer resource
#: deltas alongside the virtual-time ones
_RESOURCE_ATTRS = (
    "cpu_ms",
    "queue_wait_ms",
    "peak_alloc_bytes",
    "gc_pause_ms",
    "channel_bytes",
)


def load_records(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL span log (one span object per non-blank line)."""
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValidationError(
                    f"{path}:{lineno}: not a JSONL span log ({error})"
                ) from error
            if not isinstance(record, dict) or "name" not in record:
                raise ValidationError(
                    f"{path}:{lineno}: not a span record (missing 'name')"
                )
            records.append(record)
    return records


def _normalise_name(name: str) -> str:
    return _ID_PATTERN.sub("#N", name)


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def span_identity(record: dict[str, Any]) -> tuple:
    """The structural identity of a span record (occurrence-free)."""
    attributes = record.get("attributes") or {}
    identity = tuple(
        (key, _freeze(attributes[key]))
        for key in _IDENTITY_ATTRS
        if key in attributes
    )
    return (
        record.get("kind", "?"),
        _normalise_name(str(record.get("name", "?"))),
        identity,
    )


def _index(records: Iterable[dict[str, Any]]) -> dict[tuple, dict[str, Any]]:
    """Key every record by (identity, occurrence index)."""
    seen: dict[tuple, int] = {}
    indexed: dict[tuple, dict[str, Any]] = {}
    for record in records:
        identity = span_identity(record)
        occurrence = seen.get(identity, 0)
        seen[identity] = occurrence + 1
        indexed[identity + (occurrence,)] = record
    return indexed


@dataclass
class MatchedSpan:
    """One aligned span pair with its virtual-time delta."""

    key: tuple
    v_ms_a: float
    v_ms_b: float

    @property
    def delta(self) -> float:
        return self.v_ms_b - self.v_ms_a

    def describe(self) -> str:
        kind, name, identity, occurrence = self.key
        extras = ", ".join(
            f"{k}={v}" for k, v in identity if k not in ("kind",)
        )
        suffix = f" [{extras}]" if extras else ""
        nth = f" (x{occurrence + 1})" if occurrence else ""
        return f"{kind}/{name}{suffix}{nth}"


@dataclass
class CandidateFlip:
    """Two platform subsets whose cost order flipped between traces."""

    first: str
    second: str
    costs_a: tuple[float, float]
    costs_b: tuple[float, float]


@dataclass
class TraceDiff:
    """The full structural comparison of two span logs."""

    layer_totals_a: dict[str, float] = field(default_factory=dict)
    layer_totals_b: dict[str, float] = field(default_factory=dict)
    #: per-layer resource totals ({attr: {kind: total}}), present only
    #: when the trace was recorded under REPRO_PROFILE=1
    resource_totals_a: dict[str, dict[str, float]] = field(default_factory=dict)
    resource_totals_b: dict[str, dict[str, float]] = field(default_factory=dict)
    matched: list[MatchedSpan] = field(default_factory=list)
    only_in_a: list[dict[str, Any]] = field(default_factory=list)
    only_in_b: list[dict[str, Any]] = field(default_factory=list)
    candidate_flips: list[CandidateFlip] = field(default_factory=list)
    winner_a: str | None = None
    winner_b: str | None = None

    @property
    def total_a(self) -> float:
        return sum(self.layer_totals_a.values())

    @property
    def total_b(self) -> float:
        return sum(self.layer_totals_b.values())


def _layer_totals(records: Iterable[dict[str, Any]]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for record in records:
        kind = record.get("kind", "?")
        totals[kind] = totals.get(kind, 0.0) + float(
            record.get("v_self_ms", 0.0)
        )
    return totals


def _resource_totals(
    records: Iterable[dict[str, Any]],
) -> dict[str, dict[str, float]]:
    """Per-layer sums of the profiler's span attributes (if any)."""
    totals: dict[str, dict[str, float]] = {}
    for record in records:
        attributes = record.get("attributes") or {}
        kind = record.get("kind", "?")
        for key in _RESOURCE_ATTRS:
            value = attributes.get(key)
            if type(value) in (int, float):
                by_kind = totals.setdefault(key, {})
                by_kind[kind] = by_kind.get(kind, 0.0) + float(value)
    return totals


def _candidate_ranking(
    records: Iterable[dict[str, Any]],
) -> dict[str, float]:
    """feasible enumerator candidates: platform-subset -> estimated cost."""
    ranking: dict[str, float] = {}
    for record in records:
        if record.get("name") != "candidate":
            continue
        attributes = record.get("attributes") or {}
        if not attributes.get("feasible"):
            continue
        platforms = attributes.get("platforms") or []
        subset = "+".join(platforms)
        cost = attributes.get("estimated_cost_ms")
        if subset and cost is not None:
            ranking[subset] = float(cost)
    return ranking


def diff_traces(
    records_a: list[dict[str, Any]], records_b: list[dict[str, Any]]
) -> TraceDiff:
    """Structurally align two span logs and compute every delta."""
    result = TraceDiff(
        layer_totals_a=_layer_totals(records_a),
        layer_totals_b=_layer_totals(records_b),
        resource_totals_a=_resource_totals(records_a),
        resource_totals_b=_resource_totals(records_b),
    )
    indexed_a = _index(records_a)
    indexed_b = _index(records_b)
    for key, record_a in indexed_a.items():
        record_b = indexed_b.get(key)
        if record_b is None:
            result.only_in_a.append(record_a)
            continue
        result.matched.append(
            MatchedSpan(
                key,
                float(record_a.get("v_ms", 0.0)),
                float(record_b.get("v_ms", 0.0)),
            )
        )
    for key, record_b in indexed_b.items():
        if key not in indexed_a:
            result.only_in_b.append(record_b)
    result.matched.sort(key=lambda m: -abs(m.delta))

    ranking_a = _candidate_ranking(records_a)
    ranking_b = _candidate_ranking(records_b)
    shared = sorted(set(ranking_a) & set(ranking_b))
    for i, first in enumerate(shared):
        for second in shared[i + 1:]:
            before = ranking_a[first] - ranking_a[second]
            after = ranking_b[first] - ranking_b[second]
            if (before < 0) != (after < 0) and before != 0 and after != 0:
                result.candidate_flips.append(
                    CandidateFlip(
                        first,
                        second,
                        (ranking_a[first], ranking_a[second]),
                        (ranking_b[first], ranking_b[second]),
                    )
                )
    if ranking_a:
        result.winner_a = min(ranking_a, key=ranking_a.get)
    if ranking_b:
        result.winner_b = min(ranking_b, key=ranking_b.get)
    return result


def _describe_record(record: dict[str, Any]) -> str:
    kind = record.get("kind", "?")
    name = record.get("name", "?")
    v_ms = float(record.get("v_ms", 0.0))
    return f"{kind}/{name} ({v_ms:.3f} virtual ms)"


def render_diff(
    diff: TraceDiff,
    label_a: str = "A",
    label_b: str = "B",
    top: int = 10,
    epsilon: float = 1e-9,
) -> str:
    """Human-readable rendering of a :class:`TraceDiff`."""
    lines: list[str] = []
    lines.append(
        f"virtual time: {label_a}={diff.total_a:.3f}ms "
        f"{label_b}={diff.total_b:.3f}ms "
        f"delta={diff.total_b - diff.total_a:+.3f}ms"
    )
    lines.append("per-layer virtual self-time:")
    for kind in sorted(set(diff.layer_totals_a) | set(diff.layer_totals_b)):
        a = diff.layer_totals_a.get(kind, 0.0)
        b = diff.layer_totals_b.get(kind, 0.0)
        marker = "" if abs(b - a) <= epsilon else "  <-- changed"
        lines.append(
            f"  {kind:<10} {a:>12.3f}ms {b:>12.3f}ms {b - a:>+12.3f}ms"
            f"{marker}"
        )

    # Resource deltas are only meaningful when both runs were profiled
    # — a missing side would render as a bogus 100% regression.
    if diff.resource_totals_a and diff.resource_totals_b:
        lines.append("per-layer resources (profiled runs):")
        for attr in _RESOURCE_ATTRS:
            by_kind_a = diff.resource_totals_a.get(attr, {})
            by_kind_b = diff.resource_totals_b.get(attr, {})
            if not by_kind_a and not by_kind_b:
                continue
            unit = "B" if attr.endswith("bytes") else "ms"
            for kind in sorted(set(by_kind_a) | set(by_kind_b)):
                a = by_kind_a.get(kind, 0.0)
                b = by_kind_b.get(kind, 0.0)
                marker = "" if abs(b - a) <= epsilon else "  <-- changed"
                lines.append(
                    f"  {kind:<10} {attr:<16} {a:>14.3f}{unit} "
                    f"{b:>14.3f}{unit} {b - a:>+14.3f}{unit}{marker}"
                )

    moved = [m for m in diff.matched if abs(m.delta) > epsilon]
    if moved:
        lines.append(f"biggest span moves (top {top}):")
        for match in moved[:top]:
            lines.append(
                f"  {match.delta:>+12.4f}ms  {match.describe()} "
                f"({match.v_ms_a:.4f} -> {match.v_ms_b:.4f})"
            )
    else:
        lines.append("matched spans: no virtual-time differences")

    movement_a = [r for r in diff.only_in_a if r.get("kind") == "movement"]
    movement_b = [r for r in diff.only_in_b if r.get("kind") == "movement"]
    if movement_a or movement_b:
        lines.append("movement hops changed:")
        for record in movement_a:
            lines.append(f"  - removed {_describe_record(record)}")
        for record in movement_b:
            lines.append(f"  + added   {_describe_record(record)}")
    other_a = [r for r in diff.only_in_a if r.get("kind") != "movement"]
    other_b = [r for r in diff.only_in_b if r.get("kind") != "movement"]
    if other_a or other_b:
        lines.append(
            f"unmatched spans: {len(other_a)} only in {label_a}, "
            f"{len(other_b)} only in {label_b}"
        )
        for record in other_a[:top]:
            lines.append(f"  - only in {label_a}: {_describe_record(record)}")
        for record in other_b[:top]:
            lines.append(f"  + only in {label_b}: {_describe_record(record)}")

    if diff.candidate_flips:
        lines.append("flipped candidate orderings:")
        for flip in diff.candidate_flips:
            lines.append(
                f"  {{{flip.first}}} vs {{{flip.second}}}: "
                f"{flip.costs_a[0]:.3f} / {flip.costs_a[1]:.3f} -> "
                f"{flip.costs_b[0]:.3f} / {flip.costs_b[1]:.3f}"
            )
    if diff.winner_a is not None or diff.winner_b is not None:
        if diff.winner_a == diff.winner_b:
            lines.append(f"enumerator winner: {{{diff.winner_a}}} (unchanged)")
        else:
            lines.append(
                f"enumerator winner: {{{diff.winner_a}}} -> "
                f"{{{diff.winner_b}}}  <-- changed"
            )
    return "\n".join(lines)


def diff_files(
    path_a: str, path_b: str, top: int = 10
) -> str:
    """Load two JSONL span logs and render their diff."""
    diff = diff_traces(load_records(path_a), load_records(path_b))
    return render_diff(diff, label_a=path_a, label_b=path_b, top=top)
