"""Per-atom real-resource profiling (opt-in).

The tracer and cost ledger account *virtual* time — the optimizer's
currency.  This module attaches *real* resource attribution to every
atom span when profiling is enabled (``REPRO_PROFILE=1`` or
``Executor(profile=True)``):

* ``cpu_ms`` — per-thread CPU time over the atom (``time.thread_time``),
  contrasted with the span's wall time to expose blocking;
* ``queue_wait_ms`` — dispatch-to-start latency measured by the
  concurrent scheduler (0.0 on the sequential path);
* ``peak_alloc_bytes`` — peak ``tracemalloc`` allocation delta over the
  atom.  Exact when atoms run sequentially; an upper-bound approximation
  when worker threads interleave (tracemalloc's peak is process-wide);
* ``gc_pause_ms`` / ``gc_collections`` — cyclic-GC pauses attributed to
  the atom that triggered them (collections run on the triggering
  thread while it holds the GIL, so pauses are stop-the-world);
* ``channel_bytes`` — payload bytes of the atom's output channels:
  exact buffer bytes for columnar hand-offs, a sampled row estimate for
  collection channels.

The same figures are observed into the metrics registry
(``atom_cpu_ms``, ``atom_queue_wait_ms``, ``atom_rss_peak_bytes``,
``gc_pause_ms``, ``channel_bytes``) so they flow through the Prometheus
exposition and shard-merge paths, and the span attrs ride the existing
Chrome-trace/JSONL exporters and the run journal untouched.

When profiling is off the executor holds no profiler and every hook is
an ``is None`` check — zero allocation, no tracemalloc, no GC callback;
enforced by tests exactly like the tracer's no-op fast path.  When it is
on, the process-wide hooks live exactly as long as the runs using them.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import tracemalloc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.observability.registry import MetricsRegistry
    from repro.core.observability.spans import Span

#: environment flag enabling profiling (same convention as the other
#: REPRO_* flags: "1"/"true"/"yes"/"on")
PROFILE_ENV = "REPRO_PROFILE"

_TRUTHY = ("1", "true", "yes", "on")


def profiling_enabled(default: bool = False) -> bool:
    """Whether ``REPRO_PROFILE`` asks for per-atom resource profiling."""
    raw = os.environ.get(PROFILE_ENV)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


#: histogram buckets for byte-scale metrics (256 B .. 256 MiB); the
#: registry default buckets are virtual-ms scale and useless for sizes
BYTE_BUCKETS = (
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
    268435456.0,
)

#: histogram buckets for real-millisecond metrics (sub-ms resolution at
#: the low end — atoms are fast; the virtual-ms defaults start at 0.1)
REAL_MS_BUCKETS = (
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
    5000.0,
)


class _ProcessHooks:
    """The process-wide hooks a profiled run needs, reference counted.

    ``tracemalloc`` and one callback on ``gc.callbacks`` that accumulates
    total pause milliseconds and collection count.  CPython runs a
    collection on the thread that triggered it while holding the GIL, so
    start/stop pairs never interleave across threads and one
    pending-start slot suffices.  Atom probes snapshot the totals and
    charge the delta to whichever atom was running on the triggering
    thread.

    Concurrent profiled runs (the serving daemon's tenants) share the
    hooks: the first :meth:`acquire` attaches them, the last
    :meth:`release` undoes exactly what that first one did — it stops
    ``tracemalloc`` only if it was the one that started it.
    """

    def __init__(self) -> None:
        self.pause_ms = 0.0
        self.collections = 0
        self._pending_start = 0.0
        self._lock = threading.Lock()
        self._users = 0
        self._started_tracemalloc = False

    def acquire(self) -> None:
        with self._lock:
            if self._users == 0:
                self._started_tracemalloc = not tracemalloc.is_tracing()
                if self._started_tracemalloc:
                    tracemalloc.start()
                gc.callbacks.append(self._on_gc)
            self._users += 1

    def release(self) -> None:
        with self._lock:
            self._users -= 1
            if self._users == 0:
                gc.callbacks.remove(self._on_gc)
                if self._started_tracemalloc:
                    tracemalloc.stop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._pending_start = time.perf_counter()
        elif phase == "stop":
            self.pause_ms += (time.perf_counter() - self._pending_start) * 1e3
            self.collections += 1

    def snapshot(self) -> tuple[float, int]:
        return self.pause_ms, self.collections


_HOOKS = _ProcessHooks()


class AtomProbe:
    """Resource snapshot taken at atom start, finalised at atom end.

    One probe per atom execution, allocated only when profiling is on.
    """

    __slots__ = (
        "queue_wait_ms",
        "channel_bytes",
        "_cpu_start",
        "_alloc_start",
        "_gc_pause_start",
        "_gc_count_start",
    )

    def __init__(
        self,
        queue_wait_ms: float,
        cpu_start: float,
        alloc_start: int,
        gc_pause_start: float,
        gc_count_start: int,
    ) -> None:
        self.queue_wait_ms = queue_wait_ms
        self.channel_bytes = 0
        self._cpu_start = cpu_start
        self._alloc_start = alloc_start
        self._gc_pause_start = gc_pause_start
        self._gc_count_start = gc_count_start


class ResourceProfiler:
    """Samples real resources around each atom and charges span + registry.

    Construction touches nothing process-wide.  ``tracemalloc`` and the
    GC pause monitor are attached for the span of one run —
    :meth:`attach` on entry, :meth:`detach` in a ``finally``, which
    ``Executor.execute`` does — and shared by its worker threads (forked
    workers inherit them).  The profiler itself is stateless per atom —
    each execution gets its own :class:`AtomProbe`.
    """

    def attach(self) -> None:
        """Attach the process-wide hooks for one run (reference counted)."""
        _HOOKS.acquire()

    def detach(self) -> None:
        """Release what :meth:`attach` took; the last run out detaches."""
        _HOOKS.release()

    # ------------------------------------------------------------------
    def start_atom(self, queue_wait_ms: float = 0.0) -> AtomProbe:
        """Snapshot resources at atom start (on the executing thread)."""
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gc_pause, gc_count = _HOOKS.snapshot()
        return AtomProbe(
            queue_wait_ms=queue_wait_ms,
            cpu_start=time.thread_time(),
            alloc_start=current,
            gc_pause_start=gc_pause,
            gc_count_start=gc_count,
        )

    def finish_atom(
        self,
        probe: AtomProbe,
        span: "Span | None",
        registry: "MetricsRegistry",
        platform: str,
    ) -> None:
        """Finalise the probe: set span attrs, observe registry histograms.

        Must run on the same thread that called :meth:`start_atom` (the
        executor guarantees this — the probe lives inside one
        ``_run_task_atom`` call).
        """
        cpu_ms = (time.thread_time() - probe._cpu_start) * 1e3
        _current, peak = tracemalloc.get_traced_memory()
        peak_alloc = max(0, peak - probe._alloc_start)
        gc_pause, gc_count = _HOOKS.snapshot()
        gc_pause_ms = gc_pause - probe._gc_pause_start
        gc_collections = gc_count - probe._gc_count_start
        if span is not None:
            span.set(
                cpu_ms=cpu_ms,
                queue_wait_ms=probe.queue_wait_ms,
                peak_alloc_bytes=peak_alloc,
                gc_pause_ms=gc_pause_ms,
                gc_collections=gc_collections,
                channel_bytes=probe.channel_bytes,
            )
        registry.histogram(
            "atom_cpu_ms",
            "per-atom CPU time (thread_time) in real milliseconds",
            buckets=REAL_MS_BUCKETS,
        ).observe(cpu_ms, platform=platform)
        registry.histogram(
            "atom_queue_wait_ms",
            "scheduler dispatch-to-start latency in real milliseconds",
            buckets=REAL_MS_BUCKETS,
        ).observe(probe.queue_wait_ms, platform=platform)
        registry.histogram(
            "atom_rss_peak_bytes",
            "peak tracemalloc allocation delta per atom in bytes",
            buckets=BYTE_BUCKETS,
        ).observe(float(peak_alloc), platform=platform)
        registry.histogram(
            "gc_pause_ms",
            "cyclic-GC pause milliseconds attributed to the atom",
            buckets=REAL_MS_BUCKETS,
        ).observe(gc_pause_ms, platform=platform)

    # ------------------------------------------------------------------
    def record_channel(
        self,
        probe: AtomProbe,
        nbytes: int,
        registry: "MetricsRegistry",
        platform: str,
    ) -> None:
        """Charge one output channel's payload bytes to the atom."""
        probe.channel_bytes += nbytes
        registry.histogram(
            "channel_bytes",
            "payload bytes per output channel (exact for columnar, "
            "sampled row estimate otherwise)",
            buckets=BYTE_BUCKETS,
        ).observe(float(nbytes), platform=platform)


def resource_summary(registry: "MetricsRegistry") -> dict[str, dict]:
    """Aggregate resource histogram totals from a registry, for benches.

    Returns ``{metric: {"n": ..., "total": ..., "max": ...}}`` for each
    resource histogram that saw observations, summed across label sets.
    Empty dict when the run was not profiled.
    """
    out: dict[str, dict] = {}
    for name in (
        "atom_cpu_ms",
        "atom_queue_wait_ms",
        "atom_rss_peak_bytes",
        "gc_pause_ms",
        "channel_bytes",
    ):
        if name not in registry:
            continue
        hist = registry.histogram(name)
        n = 0
        total = 0.0
        vmax = 0.0
        for series in hist.series.values():
            n += series.n
            total += series.total
            if series.n and series.vmax > vmax:
                vmax = series.vmax
        if n:
            out[name] = {"n": n, "total": total, "max": vmax}
    return out
