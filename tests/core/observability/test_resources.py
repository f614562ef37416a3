"""Per-atom resource profiling tests (the PR's acceptance criteria).

* with ``profile=True`` (or ``REPRO_PROFILE=1``) every executed task
  atom's span carries ``cpu_ms`` / ``queue_wait_ms`` /
  ``peak_alloc_bytes`` / ``gc_pause_ms`` / ``gc_collections`` /
  ``channel_bytes``, and the figures reconcile exactly with the registry
  histograms — at parallelism 1 and 4 (shard registries merge in plan
  order);
* with profiling off the run is byte-identical to the pre-profiler
  behaviour: outputs, ``virtual_ms``, ledger sequence and span shape are
  unchanged, and the no-op fast path allocates no probe, starts no
  tracemalloc and installs no GC callback (enforced with exploding
  monkeypatches, exactly like the tracer's no-op test);
* the profiler's process-wide hooks live exactly as long as the runs
  using them: construction touches nothing, concurrent runs share the
  hooks and the last one out restores what the first one found;
* channel ``payload_bytes()`` is exact for columnar buffers and a
  sampled estimate for row channels;
* the registry histogram ``quantile()`` / ``merge_from()`` contracts
  hold under the byte-scale resource buckets.
"""

from __future__ import annotations

import gc
import re
import sys
import threading
import tracemalloc
from array import array
from contextlib import contextmanager
from sys import getsizeof

import pytest

from repro import RheemContext, Tracer
from repro.core.channels import CollectionChannel, ColumnarChannel
from repro.core.observability import (
    BYTE_BUCKETS,
    MetricsRegistry,
    ResourceProfiler,
    render_flamegraph,
    resource_summary,
)
from repro.core.observability.resources import (
    PROFILE_ENV,
    REAL_MS_BUCKETS,
    AtomProbe,
    profiling_enabled,
)

#: span attributes the profiler promises on every task-atom span
PROFILE_ATTRS = (
    "cpu_ms",
    "queue_wait_ms",
    "peak_alloc_bytes",
    "gc_pause_ms",
    "gc_collections",
    "channel_bytes",
)


def wordcount(ctx):
    return (
        ctx.collection(["a b a", "b a", "c"] * 40)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .reduce_by(lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1]))
        .sort(lambda kv: kv[0])
    )


@contextmanager
def attached_profiler():
    """A profiler with its process-wide hooks attached, as a run has."""
    profiler = ResourceProfiler()
    profiler.attach()
    try:
        yield profiler
    finally:
        profiler.detach()


class _FakeSpan:
    def __init__(self):
        self.attributes = {}

    def set(self, **attrs):
        self.attributes.update(attrs)


# ----------------------------------------------------------------------
# the env flag
# ----------------------------------------------------------------------
class TestProfilingEnabled:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profiling_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", "off", ""])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profiling_enabled() is False

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert profiling_enabled() is False
        assert profiling_enabled(default=True) is True


# ----------------------------------------------------------------------
# channel payload sizing
# ----------------------------------------------------------------------
class TestPayloadBytes:
    def test_released_collection_reports_zero(self):
        chan = CollectionChannel([(1, 2)] * 10, "java")
        chan.release()
        assert chan.payload_bytes() == 0

    def test_empty_collection_is_just_the_list(self):
        chan = CollectionChannel([], "java")
        assert chan.payload_bytes() == getsizeof([])

    def test_estimate_scales_with_cardinality(self):
        small = CollectionChannel([(i, i * 2) for i in range(100)], "java")
        big = CollectionChannel([(i, i * 2) for i in range(1000)], "java")
        b_small, b_big = small.payload_bytes(), big.payload_bytes()
        assert b_small > getsizeof([])
        # homogeneous rows: the sampled per-row cost scales ~linearly
        assert 8.0 < b_big / b_small < 12.0

    def test_columnar_is_exact_buffer_bytes(self):
        chan = ColumnarChannel.from_rows(list(range(100)), "java")
        assert chan is not None
        expected = 100 * array(chan.column(0).typecode).itemsize
        assert chan.payload_bytes() == expected

    def test_columnar_tuple_rows_sum_columns(self):
        chan = ColumnarChannel.from_rows([(i, float(i)) for i in range(50)], "java")
        assert chan is not None
        expected = sum(50 * col.itemsize for col in chan.columns)
        assert chan.payload_bytes() == expected

    def test_released_columnar_reports_zero(self):
        chan = ColumnarChannel.from_rows(list(range(10)), "java")
        chan.release()
        assert chan.payload_bytes() == 0


# ----------------------------------------------------------------------
# the profiler itself
# ----------------------------------------------------------------------
class TestResourceProfilerUnit:
    def test_probe_charges_span_and_registry(self):
        with attached_profiler() as profiler:
            registry = MetricsRegistry()
            span = _FakeSpan()
            probe = profiler.start_atom(queue_wait_ms=1.25)
            blob = bytearray(512 * 1024)  # visible allocation
            gc.collect()  # at least one attributable collection
            profiler.finish_atom(probe, span, registry, "java")
            del blob

        attrs = span.attributes
        assert set(PROFILE_ATTRS) <= set(attrs)
        assert attrs["queue_wait_ms"] == 1.25
        assert attrs["cpu_ms"] >= 0.0
        assert attrs["peak_alloc_bytes"] >= 512 * 1024
        assert attrs["gc_collections"] >= 1
        assert attrs["gc_pause_ms"] >= 0.0
        assert attrs["channel_bytes"] == 0

        for name in ("atom_cpu_ms", "atom_queue_wait_ms",
                     "atom_rss_peak_bytes", "gc_pause_ms"):
            assert name in registry
            assert registry.histogram(name).count(platform="java") == 1
        assert registry.histogram("atom_rss_peak_bytes").sum(
            platform="java"
        ) == float(attrs["peak_alloc_bytes"])

    def test_record_channel_accumulates(self):
        with attached_profiler() as profiler:
            registry = MetricsRegistry()
            probe = profiler.start_atom()
            profiler.record_channel(probe, 1000, registry, "java")
            profiler.record_channel(probe, 234, registry, "java")
        assert probe.channel_bytes == 1234
        hist = registry.histogram("channel_bytes")
        assert hist.count(platform="java") == 2
        assert hist.sum(platform="java") == 1234.0

    def test_resource_summary_totals(self):
        with attached_profiler() as profiler:
            registry = MetricsRegistry()
            for platform in ("java", "postgres"):
                probe = profiler.start_atom()
                profiler.record_channel(probe, 100, registry, platform)
                profiler.finish_atom(probe, None, registry, platform)
        summary = resource_summary(registry)
        assert set(summary) == {
            "atom_cpu_ms",
            "atom_queue_wait_ms",
            "atom_rss_peak_bytes",
            "gc_pause_ms",
            "channel_bytes",
        }
        # summed across label sets
        assert summary["channel_bytes"] == {"n": 2, "total": 200.0, "max": 100.0}
        assert summary["atom_cpu_ms"]["n"] == 2

    def test_resource_summary_empty_when_unprofiled(self):
        assert resource_summary(MetricsRegistry()) == {}

    def test_construction_touches_no_process_hook(self, monkeypatch):
        from repro.core.serving import ServingDaemon

        callbacks_before = len(gc.callbacks)
        ResourceProfiler()
        RheemContext(profile=True)
        monkeypatch.setenv(PROFILE_ENV, "1")
        ServingDaemon()  # stamps build info through a probe Executor()
        assert len(gc.callbacks) == callbacks_before
        assert not tracemalloc.is_tracing()

    def test_last_detach_restores_the_hooks(self):
        callbacks_before = len(gc.callbacks)
        first, second = ResourceProfiler(), ResourceProfiler()
        first.attach()
        second.attach()
        assert len(gc.callbacks) == callbacks_before + 1
        first.detach()
        assert tracemalloc.is_tracing()
        assert len(gc.callbacks) == callbacks_before + 1
        second.detach()
        assert len(gc.callbacks) == callbacks_before
        assert not tracemalloc.is_tracing()

    def test_reference_count_survives_contention(self):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost update to the count would detach the hooks under
        # a thread that still holds them, or leave them attached.
        callbacks_before = len(gc.callbacks)
        detached_while_held = []

        def churn():
            profiler = ResourceProfiler()
            for _ in range(100):
                profiler.attach()
                if not tracemalloc.is_tracing():
                    detached_while_held.append(threading.get_ident())
                profiler.detach()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert detached_while_held == []
        assert len(gc.callbacks) == callbacks_before
        assert not tracemalloc.is_tracing()

    def test_tracing_started_by_the_caller_stays_on(self):
        tracemalloc.start()
        try:
            wordcount(RheemContext(profile=True)).collect()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


# ----------------------------------------------------------------------
# the no-op fast path (the zero-behaviour-change guarantee)
# ----------------------------------------------------------------------
class TestNoopFastPath:
    def test_unprofiled_run_allocates_no_probe(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)

        def exploding_probe(self, *args, **kwargs):  # pragma: no cover
            raise AssertionError("AtomProbe allocated on an unprofiled run")

        def exploding_profiler(self, *args, **kwargs):  # pragma: no cover
            raise AssertionError("ResourceProfiler built on an unprofiled run")

        monkeypatch.setattr(AtomProbe, "__init__", exploding_probe)
        monkeypatch.setattr(ResourceProfiler, "__init__", exploding_profiler)
        callbacks_before = len(gc.callbacks)
        ctx = RheemContext()
        out = wordcount(ctx).collect()
        assert out == [("a", 120), ("b", 80), ("c", 40)]
        assert len(gc.callbacks) == callbacks_before

    def test_unprofiled_spans_carry_no_resource_attrs(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        tracer = Tracer()
        ctx = RheemContext(tracer=tracer)
        wordcount(ctx).collect()
        atoms = [s for s in tracer.spans if s.name.startswith("atom#")]
        assert atoms
        for span in atoms:
            assert not (set(PROFILE_ATTRS) & set(span.attributes))

    def test_env_flag_reaches_the_executor(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        ctx = RheemContext()
        assert ctx.executor.profile is True
        assert ctx.executor._profiler is not None
        monkeypatch.setenv(PROFILE_ENV, "0")
        assert RheemContext().executor._profiler is None
        # the explicit kwarg wins over the environment
        assert RheemContext(profile=False).executor._profiler is None


# ----------------------------------------------------------------------
# end-to-end attribution + registry reconciliation
# ----------------------------------------------------------------------
class TestProfiledRun:
    @pytest.mark.parametrize("parallelism", [None, 4])
    def test_span_attrs_reconcile_with_histograms(self, parallelism):
        tracer = Tracer()
        ctx = RheemContext(profile=True, tracer=tracer, parallelism=parallelism)
        _, metrics = wordcount(ctx).collect_with_metrics()

        atoms = [s for s in tracer.spans if s.name.startswith("atom#")]
        assert atoms
        for span in atoms:
            assert set(PROFILE_ATTRS) <= set(span.attributes), span.name
            assert span.attributes["queue_wait_ms"] >= 0.0
            if parallelism is None:
                assert span.attributes["queue_wait_ms"] == 0.0

        registry = metrics.registry
        checks = {
            "atom_cpu_ms": "cpu_ms",
            "atom_queue_wait_ms": "queue_wait_ms",
            "atom_rss_peak_bytes": "peak_alloc_bytes",
            "gc_pause_ms": "gc_pause_ms",
        }
        for hist_name, attr in checks.items():
            hist = registry.histogram(hist_name)
            n = sum(series.n for series in hist.series.values())
            total = sum(series.total for series in hist.series.values())
            assert n == len(atoms), hist_name
            assert total == pytest.approx(
                sum(float(s.attributes[attr]) for s in atoms)
            ), hist_name

        hist = registry.histogram("channel_bytes")
        assert sum(series.total for series in hist.series.values()) == (
            sum(s.attributes["channel_bytes"] for s in atoms)
        )
        # at least one atom produced a non-trivial output payload
        assert any(s.attributes["channel_bytes"] > 0 for s in atoms)

        summary = resource_summary(registry)
        assert summary["atom_cpu_ms"]["n"] == len(atoms)

    def test_parallel_run_records_queue_wait(self):
        tracer = Tracer()
        ctx = RheemContext(profile=True, tracer=tracer, parallelism=4)
        _, metrics = wordcount(ctx).collect_with_metrics()
        hist = metrics.registry.histogram("atom_queue_wait_ms")
        # the scheduler stamps a real dispatch-to-start latency
        assert sum(series.n for series in hist.series.values()) > 0
        assert sum(series.total for series in hist.series.values()) >= 0.0

    def test_concurrent_runs_share_the_hooks(self):
        # Both runs are inside execute at the barrier: the first one out
        # must leave the hooks to the second, the second detaches them.
        callbacks_before = len(gc.callbacks)
        barrier = threading.Barrier(2, timeout=30)
        tracing_at_barrier = {}

        def meet(line):
            me = threading.get_ident()
            if me not in tracing_at_barrier:
                barrier.wait()
                tracing_at_barrier[me] = tracemalloc.is_tracing()
            return line

        def run():
            ctx = RheemContext(profile=True)
            ctx.collection(["a b"] * 4).map(meet).collect()

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert list(tracing_at_barrier.values()) == [True, True]
        assert len(gc.callbacks) == callbacks_before
        assert not tracemalloc.is_tracing()

    def test_flamegraph_gains_self_wait_column(self):
        tracer = Tracer()
        wordcount(RheemContext(profile=True, tracer=tracer)).collect()
        rendered = render_flamegraph(tracer)
        assert "self=" in rendered and "wait=" in rendered

        plain = Tracer()
        wordcount(RheemContext(tracer=plain)).collect()
        unprofiled = render_flamegraph(plain)
        assert "self=" not in unprofiled and "wait=" not in unprofiled


# ----------------------------------------------------------------------
# profile on/off equivalence (everything but the extra attrs)
# ----------------------------------------------------------------------
class TestEquivalence:
    @staticmethod
    def _run(profile, parallelism):
        tracer = Tracer()
        ctx = RheemContext(
            tracer=tracer, profile=profile, parallelism=parallelism
        )
        out, metrics = wordcount(ctx).collect_with_metrics()
        # atom ids draw from a process-global counter, so two separate
        # runs shift them uniformly; the comparable bill is the rest
        ledger = [
            (e.label, e.ms, e.platform) for e in metrics.ledger.entries
        ]
        # ``atom#N`` ids also shift uniformly between runs — normalise
        # the counter away, exactly like trace diffing does
        names = [re.sub(r"#\d+", "#", s.name) for s in tracer.spans]
        return out, metrics.virtual_ms, ledger, names

    @pytest.mark.parametrize("parallelism", [None, 4])
    def test_profiling_never_changes_the_run(self, parallelism):
        off = self._run(False, parallelism)
        on = self._run(True, parallelism)
        assert on[0] == off[0]  # outputs
        assert on[1] == off[1]  # virtual_ms
        assert on[2] == off[2]  # full ledger sequence
        assert on[3] == off[3]  # span names, in order


# ----------------------------------------------------------------------
# registry histograms under the byte-scale buckets
# ----------------------------------------------------------------------
class TestResourceHistograms:
    def test_quantile_contract_under_byte_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "atom_rss_peak_bytes", "test", buckets=BYTE_BUCKETS
        )
        assert hist.quantile(0.5, platform="java") == 0.0  # empty series
        hist.observe(100.0, platform="java")
        assert hist.quantile(0.5, platform="java") == 100.0  # single obs
        for value in (2000.0, 1_000_000.0, 1e9):
            hist.observe(value, platform="java")
        # 1e9 overflows every bucket: the top quantile clamps to vmax
        assert hist.quantile(1.0, platform="java") == 1e9
        # the median lands inside a finite bucket bound
        median = hist.quantile(0.5, platform="java")
        assert 100.0 <= median <= BYTE_BUCKETS[-1]

    def test_merge_from_adds_resource_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, values in ((a, (500.0, 2000.0)), (b, (8000.0,))):
            hist = registry.histogram(
                "channel_bytes", "test", buckets=BYTE_BUCKETS
            )
            for value in values:
                hist.observe(value, platform="java")
        a.merge_from(b)
        hist = a.histogram("channel_bytes")
        assert hist.count(platform="java") == 3
        assert hist.sum(platform="java") == 10500.0
        (series,) = hist.series.values()
        assert series.vmin == 500.0
        assert series.vmax == 8000.0
        assert hist.quantile(1.0, platform="java") == 8000.0

    def test_merge_preserves_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("gc_pause_ms", "t", buckets=REAL_MS_BUCKETS).observe(
            0.02, platform="java"
        )
        a.merge_from(b)
        hist = a.histogram("gc_pause_ms")
        assert hist.count(platform="java") == 1
        # sub-ms resolution survived the merge (first real-ms bucket)
        assert hist.quantile(0.5, platform="java") <= REAL_MS_BUCKETS[1]
