"""ExecutionMetrics as a registry view + the summary()/by_label()
satellites."""

import pytest

from repro.core.metrics import (
    CardinalityMisestimate,
    CostLedger,
    ExecutionMetrics,
)
from repro.core.observability import MetricsRegistry


class TestRegistryView:
    def test_counters_are_registry_backed(self):
        registry = MetricsRegistry()
        metrics = ExecutionMetrics(registry=registry)
        metrics.atoms_executed += 3
        metrics.retries += 1
        assert registry.counter("atoms_executed").value() == 3.0
        assert registry.counter("retries").value() == 1.0
        assert metrics.atoms_executed == 3
        assert isinstance(metrics.atoms_executed, int)

    def test_backoff_ms_stays_float(self):
        metrics = ExecutionMetrics()
        metrics.backoff_ms += 1.5
        assert metrics.backoff_ms == pytest.approx(1.5)

    def test_shared_registry_aggregates_across_runs(self):
        registry = MetricsRegistry()
        first = ExecutionMetrics(registry=registry)
        second = ExecutionMetrics(registry=registry)
        first.atoms_executed += 2
        second.atoms_executed += 3
        assert registry.counter("atoms_executed").value() == 5.0

    def test_default_registry_is_private(self):
        a = ExecutionMetrics()
        b = ExecutionMetrics()
        a.atoms_executed += 1
        assert b.atoms_executed == 0


class TestByLabel:
    def _metrics(self):
        ledger = CostLedger()
        ledger.charge("op.map", 3.0, "java", 1)
        ledger.charge("op.map", 2.0, "java", 2)
        ledger.charge("move.java->spark", 1.5, "spark", 2)
        ledger.charge("startup", 5.0, "java")
        return ExecutionMetrics(ledger=ledger)

    def test_full_breakdown(self):
        assert self._metrics().by_label() == {
            "op.map": 5.0,
            "move.java->spark": 1.5,
            "startup": 5.0,
        }

    def test_consistent_with_prefix_sums(self):
        metrics = self._metrics()
        for label, total in metrics.by_label().items():
            assert metrics.by_label_prefix(label) >= total
        assert sum(metrics.by_label().values()) == pytest.approx(
            metrics.virtual_ms
        )


class TestSummarySatellite:
    def test_quiet_run_has_no_extras(self):
        text = ExecutionMetrics().summary()
        assert "backoff=" not in text
        assert "loop_iterations=" not in text
        assert "failovers=" not in text

    def test_backoff_reported_when_nonzero(self):
        metrics = ExecutionMetrics()
        metrics.backoff_ms += 12.5
        assert "backoff=12.5ms" in metrics.summary()

    def test_loop_iterations_reported(self):
        metrics = ExecutionMetrics()
        metrics.loop_iterations += 7
        assert "loop_iterations=7" in metrics.summary()

    def test_failovers_and_quarantines_reported_together(self):
        metrics = ExecutionMetrics()
        metrics.failovers += 1
        text = metrics.summary()
        assert "failovers=1" in text and "quarantines=0" in text


class TestMisestimateHistogram:
    def test_every_finite_factor_observed(self):
        metrics = ExecutionMetrics()
        metrics.record_misestimate(
            CardinalityMisestimate(1, 100.0, 110), contradicted=False
        )
        metrics.record_misestimate(
            CardinalityMisestimate(2, 10.0, 80), contradicted=True
        )
        hist = metrics.registry.histogram("misestimate_factor")
        assert hist.count() == 2
        assert len(metrics.misestimates) == 1

    def test_infinite_factor_skips_histogram(self):
        metrics = ExecutionMetrics()
        metrics.record_misestimate(
            CardinalityMisestimate(1, 0.0, 5), contradicted=True
        )
        assert metrics.registry.histogram("misestimate_factor").count() == 0
        assert len(metrics.misestimates) == 1

    def test_movement_histogram_labeled_by_pair(self):
        metrics = ExecutionMetrics()
        metrics.observe_movement("java->spark", 2.0)
        metrics.observe_movement("java->spark", 3.0)
        hist = metrics.registry.histogram("movement_ms")
        assert hist.count(pair="java->spark") == 2
        assert hist.sum(pair="java->spark") == pytest.approx(5.0)
