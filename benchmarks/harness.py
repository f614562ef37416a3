"""Benchmark harness utilities.

Each benchmark registers the tables/series it reproduces (one per paper
figure or ablation) through :func:`record_table`; the ``conftest``
terminal-summary hook prints every recorded table after the run — so the
table output survives pytest's output capture — and mirrors it into
``benchmarks/results/latest.txt`` for EXPERIMENTS.md.

Scale is controlled with ``REPRO_BENCH_SCALE``:

* ``full``  (default) — the sweep sizes quoted in EXPERIMENTS.md;
* ``quick`` — reduced sizes for smoke runs.

Tracing is opt-in with ``REPRO_TRACE_DIR``: when set to a directory,
:func:`traced_context` attaches a
:class:`~repro.core.observability.Tracer` to the contexts it hands out
and writes one Chrome trace-event JSON file per traced run into that
directory (``<name>.trace.json``).  Unset (the default) the benchmarks
run untraced — zero spans, zero overhead.

Baselines the paper had to kill ("we had to stop after 22 hours") are
mirrored with a *virtual-time cap*: when a baseline's predicted virtual
time exceeds :data:`VIRTUAL_CAP_MS`, the row reports ``>cap`` instead of
burning wall-clock on a hopeless configuration.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

#: virtual-time cap standing in for the paper's 22-hour baseline kill
VIRTUAL_CAP_MS = 60 * 60 * 1000.0  # one virtual hour


def scale() -> str:
    """Benchmark scale: ``full`` or ``quick`` (REPRO_BENCH_SCALE)."""
    value = os.environ.get("REPRO_BENCH_SCALE", "full").lower()
    return value if value in ("full", "quick") else "full"


def pick(full_value, quick_value):
    """Choose a parameter by the active scale."""
    return quick_value if scale() == "quick" else full_value


def trace_dir() -> str | None:
    """Trace output directory (REPRO_TRACE_DIR), or None when untraced."""
    value = os.environ.get("REPRO_TRACE_DIR", "").strip()
    return value or None


@contextmanager
def traced_context(name: str, ctx=None):
    """Yield a :class:`RheemContext`, traced when REPRO_TRACE_DIR is set.

    With tracing off this is just ``RheemContext()`` (or the passed
    ``ctx``) — no tracer, no spans.  With tracing on, a fresh tracer is
    attached and the span tree is exported to
    ``$REPRO_TRACE_DIR/<name>.trace.json`` on exit.
    """
    from repro import RheemContext

    ctx = ctx or RheemContext()
    directory = trace_dir()
    if directory is None:
        yield ctx
        return

    from repro import Tracer, write_chrome_trace

    tracer = Tracer()
    ctx.attach_tracer(tracer)
    try:
        yield ctx
    finally:
        ctx.attach_tracer(None)
        os.makedirs(directory, exist_ok=True)
        write_chrome_trace(
            tracer, os.path.join(directory, f"{name}.trace.json")
        )


@dataclass
class Table:
    """One recorded result table."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        widths = [
            max(len(str(cell)) for cell in column)
            for column in zip(self.headers, *self.rows)
        ] if self.rows else [len(h) for h in self.headers]

        def fmt(cells):
            return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

        lines = [f"== {self.exp_id}: {self.title} ==", fmt(self.headers)]
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in self.rows)
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


#: global registry the conftest summary hook drains
_TABLES: list[Table] = []

#: machine-readable payloads, one per experiment id; the conftest hook
#: writes each as ``benchmarks/results/BENCH_<exp_id>.json``
_BENCH: dict[str, dict] = {}


def record_table(exp_id: str, title: str, headers: list[str]) -> Table:
    """Create and register a result table; fill rows via ``table.rows``."""
    table = Table(exp_id, title, list(headers))
    _TABLES.append(table)
    return table


def recorded_tables() -> list[Table]:
    return list(_TABLES)


def record_bench(exp_id: str, **payload) -> dict:
    """Register a machine-readable result payload for one experiment.

    The conftest terminal-summary hook serialises each payload to
    ``benchmarks/results/BENCH_<exp_id>.json`` with run provenance
    (scale, git sha, UTC timestamp) merged in, so CI and dashboards can
    assert on numbers without scraping the rendered tables.  Repeated
    calls for the same ``exp_id`` merge keys (last write wins).
    """
    entry = _BENCH.setdefault(exp_id, {})
    entry.update(payload)
    return entry


def recorded_benches() -> dict[str, dict]:
    return dict(_BENCH)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-temp + rename).

    A bench run that crashes mid-write must never leave a truncated
    ``latest.txt`` / ``BENCH_*.json`` behind: the temp file lives in the
    same directory so ``os.replace`` is an atomic rename, and the data
    is fsync'd before the swap so the rename never publishes an
    incomplete file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def git_sha() -> str | None:
    """The repo's HEAD commit sha, or None outside a git checkout."""
    from repro.core.observability.registry import repo_git_sha

    return repo_git_sha(
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


def maybe_resources(metrics) -> dict:
    """``{"resources": summary}`` when the run was profiled, else ``{}``.

    Benches splat this into :func:`record_bench` so profiled runs
    (``REPRO_PROFILE=1``) carry their real-resource totals into the
    ``BENCH_*.json`` payload without changing the unprofiled schema.
    """
    from repro.core.observability.resources import (
        profiling_enabled,
        resource_summary,
    )

    if not profiling_enabled():
        return {}
    summary = resource_summary(metrics.registry)
    return {"resources": summary} if summary else {}


def ms(value: float) -> str:
    """Format virtual milliseconds compactly (ms / s / min)."""
    if value >= 120_000:
        return f"{value / 60000:.1f}min"
    if value >= 1_000:
        return f"{value / 1000:.2f}s"
    return f"{value:.1f}ms"


def ratio(a: float, b: float) -> str:
    """a:b speed-up factor rendered as e.g. '12.3x'."""
    if b == 0:
        return "inf"
    return f"{a / b:.1f}x"
