"""Unit tests for the metrics registry."""

import json

import pytest

from repro.core.observability import Counter, Gauge, Histogram, MetricsRegistry
from repro.core.observability.registry import repo_git_sha


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("atoms")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3.0

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("atoms").inc(-1)

    def test_labeled_series_are_independent(self):
        counter = Counter("atoms")
        counter.inc(platform="java")
        counter.inc(3, platform="spark")
        assert counter.value(platform="java") == 1.0
        assert counter.value(platform="spark") == 3.0
        assert counter.value(platform="postgres") == 0.0
        assert counter.total() == 4.0

    def test_label_order_does_not_matter(self):
        counter = Counter("x")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0


class TestGauge:
    def test_dec_allowed(self):
        gauge = Gauge("inflight")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 3.0


class TestHistogram:
    def test_observe_count_sum(self):
        histogram = Histogram("ms")
        for value in (0.2, 3.0, 700.0):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(703.2)

    def test_bucket_boundaries(self):
        histogram = Histogram("f", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(1.0)   # le=1.0 bucket (closed upper bound)
        histogram.observe(5.0)
        histogram.observe(100.0)  # overflow bucket
        series = histogram.series[()]
        assert series.counts == [2, 1, 1]
        assert series.mean == pytest.approx(26.625)

    def test_labeled_series(self):
        histogram = Histogram("movement_ms")
        histogram.observe(1.0, pair="java->spark")
        histogram.observe(2.0, pair="java->spark")
        histogram.observe(9.0, pair="spark->postgres")
        assert histogram.count(pair="java->spark") == 2
        assert histogram.sum(pair="spark->postgres") == 9.0


class TestQuantileEdgeCases:
    """The adaptive drift trigger leans on these exact semantics."""

    def test_empty_series_is_zero(self):
        histogram = Histogram("f", buckets=(1.0, 4.0))
        assert histogram.quantile(0.9) == 0.0
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 0.0

    def test_single_sample_is_exact_at_any_q(self):
        # bucket bound for 2.5 is 4.0; vmin/vmax clamping must return
        # the sample itself, not the bucket's upper bound
        histogram = Histogram("f", buckets=(1.0, 4.0, 16.0))
        histogram.observe(2.5)
        for q in (0.0, 0.5, 0.9, 1.0):
            assert histogram.quantile(q) == 2.5

    def test_all_equal_samples_are_exact(self):
        histogram = Histogram("f", buckets=(1.0, 4.0, 16.0))
        for _ in range(10):
            histogram.observe(3.0)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert histogram.quantile(q) == 3.0

    def test_overflow_bucket_reports_exact_max(self):
        histogram = Histogram("f", buckets=(1.0, 4.0))
        histogram.observe(1000.0)  # beyond the last bound
        assert histogram.quantile(0.9) == 1000.0

    def test_clamped_to_observed_range(self):
        # p90 of {0.5, 0.6}: bucket upper bound is 1.0 but nothing that
        # large was observed — clamp to vmax
        histogram = Histogram("f", buckets=(1.0, 4.0))
        histogram.observe(0.5)
        histogram.observe(0.6)
        assert histogram.quantile(0.9) == 0.6
        # any q stays inside the exact observed range
        assert 0.5 <= histogram.quantile(0.0) <= 0.6

    def test_bucket_resolution_between_bounds(self):
        histogram = Histogram("f", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (1.5, 1.5, 1.5, 7.0):
            histogram.observe(value)
        # p50 lands in the (1, 2] bucket -> its upper bound
        assert histogram.quantile(0.5) == 2.0
        # p100 lands in the (4, 8] bucket, clamped to exact max 7.0
        assert histogram.quantile(1.0) == 7.0

    def test_fraction_out_of_range_rejected(self):
        histogram = Histogram("f", buckets=(1.0,))
        histogram.observe(0.5)
        series = histogram.series[()]
        with pytest.raises(ValueError):
            series.quantile(-0.1)
        with pytest.raises(ValueError):
            series.quantile(1.1)

    def test_per_label_quantiles_are_independent(self):
        histogram = Histogram("f", buckets=(1.0, 4.0))
        histogram.observe(0.5, kind="filter")
        histogram.observe(100.0, kind="flatmap")
        assert histogram.quantile(0.9, kind="filter") == 0.5
        assert histogram.quantile(0.9, kind="flatmap") == 100.0
        assert histogram.quantile(0.9, kind="join") == 0.0

    def test_merge_preserves_quantile_clamping(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("f", buckets=(1.0, 4.0)).observe(0.5)
        b.histogram("f", buckets=(1.0, 4.0)).observe(0.7)
        a.merge_from(b)
        merged = a.histogram("f")
        assert merged.count() == 2
        assert merged.quantile(1.0) == 0.7  # vmax travelled with the merge
        assert 0.5 <= merged.quantile(0.0) <= 0.7  # vmin bounds the floor


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert "a" in registry
        assert "b" not in registry

    def test_type_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")
        registry.gauge("g")
        with pytest.raises(TypeError):
            registry.counter("g")

    def test_help_backfilled_once(self):
        registry = MetricsRegistry()
        registry.counter("a")
        assert registry.counter("a", "first help").help == "first help"
        assert registry.counter("a", "second").help == "first help"

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("atoms").inc(platform="java")
        registry.histogram("ms").observe(4.2, pair="a->b")
        snapshot = registry.snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["atoms"]["type"] == "counter"
        assert parsed["atoms"]["series"]["platform=java"] == 1.0
        hist = parsed["ms"]["series"]["pair=a->b"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(4.2)

    def test_instruments_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert [i.name for i in registry.instruments()] == ["aa", "zz"]


def test_repo_git_sha_in_this_checkout():
    sha = repo_git_sha()
    assert sha and len(sha) == 40
