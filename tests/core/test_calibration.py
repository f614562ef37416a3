"""CalibrationStore + CalibratedCardinalityEstimator unit suite.

The statistical-feedback harness's foundation layer: priors fold
correctly (counts, log-means, factor histograms), corrections come from
*raw* ratios (applied corrections divided back out, so learning is
stable run over run) and snapshot/restore round-trips exactly.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import CostHints, RheemContext
from repro.core.logical.operators import CollectSink
from repro.core.metrics import (
    MISESTIMATE_BUCKETS,
    CalibrationObservation,
    ExecutionMetrics,
)
from repro.core.observability.registry import MetricsRegistry
from repro.core.optimizer.calibration import CalibrationStore
from repro.core.optimizer.cardinality import (
    CalibratedCardinalityEstimator,
    CardinalityEstimator,
)


class TestStoreObservations:
    def test_observe_counts_and_correction(self):
        store = CalibrationStore()
        assert store.observe("filter", "java", estimated=10.0, observed=40)
        assert store.sample_count() == 1
        assert store.correction("filter") == pytest.approx(4.0)

    def test_correction_is_geometric_mean(self):
        store = CalibrationStore()
        store.observe("filter", "java", estimated=1.0, observed=4)
        store.observe("filter", "java", estimated=1.0, observed=16)
        # geo-mean of 4 and 16 is 8
        assert store.correction("filter") == pytest.approx(8.0)

    def test_under_estimates_pull_correction_down(self):
        store = CalibrationStore()
        store.observe("filter", "java", estimated=100.0, observed=25)
        assert store.correction("filter") == pytest.approx(0.25)

    def test_correction_pools_across_platforms(self):
        store = CalibrationStore()
        store.observe("filter", "java", estimated=1.0, observed=4)
        store.observe("filter", "spark", estimated=1.0, observed=16)
        assert store.correction("filter") == pytest.approx(8.0)
        assert store.correction("filter", "java") == pytest.approx(4.0)
        assert store.correction("filter", "spark") == pytest.approx(16.0)

    def test_unknown_kind_cold_start(self):
        store = CalibrationStore()
        assert store.correction("join.hash") == 1.0

    def test_min_samples_gate(self):
        store = CalibrationStore(min_samples=3)
        store.observe("filter", "java", estimated=1.0, observed=100)
        store.observe("filter", "java", estimated=1.0, observed=100)
        assert store.correction("filter") == 1.0  # 2 < 3: still cold
        store.observe("filter", "java", estimated=1.0, observed=100)
        assert store.correction("filter") == pytest.approx(100.0)

    def test_correction_clamped(self):
        store = CalibrationStore(max_correction=10.0)
        store.observe("filter", "java", estimated=1.0, observed=10_000)
        assert store.correction("filter") == pytest.approx(10.0)
        store2 = CalibrationStore(max_correction=10.0)
        store2.observe("filter", "java", estimated=10_000.0, observed=1)
        assert store2.correction("filter") == pytest.approx(0.1)

    def test_zero_sides_skipped(self):
        store = CalibrationStore()
        assert not store.observe("filter", "java", estimated=0.0, observed=5)
        assert not store.observe("filter", "java", estimated=5.0, observed=0)
        assert store.sample_count() == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="min_samples"):
            CalibrationStore(min_samples=0)
        with pytest.raises(ValueError, match="max_correction"):
            CalibrationStore(max_correction=0.5)

    def test_applied_correction_divided_back_out(self):
        """The anti-dilution property: feeding back a *corrected*
        estimate with its correction recorded must reproduce the raw
        bias, not wash it toward 1."""
        store = CalibrationStore()
        # run 1: raw estimate 2, observed 20000 -> raw ratio 1e4
        store.observe("filter", "java", estimated=2.0, observed=20_000)
        first = store.correction("filter")
        assert first == pytest.approx(10_000.0)
        # run 2: corrected estimate (2 * 1e4), observed 20000, residual 1
        store.observe(
            "filter", "java",
            estimated=2.0 * first, observed=20_000, correction=first,
        )
        # the learned correction is *stable*, not diluted to ~100
        assert store.correction("filter") == pytest.approx(10_000.0)

    def test_residual_factor_feeds_histogram(self):
        store = CalibrationStore()
        store.observe(
            "filter", "java", estimated=20_000.0, observed=20_000,
            correction=10_000.0,
        )
        # raw ratio is 1e4 (learning) but the residual factor is 1.0
        assert store.p90("filter", "java") == pytest.approx(1.0)
        assert store.correction("filter") == pytest.approx(10_000.0)

    def test_ingest_from_metrics(self):
        metrics = ExecutionMetrics()
        metrics.record_calibration_observation(
            CalibrationObservation(1, "filter", "java", 10.0, 100)
        )
        metrics.record_calibration_observation(
            CalibrationObservation(2, "map", "java", 50.0, 50)
        )
        store = CalibrationStore()
        assert store.ingest(metrics) == 2
        assert store.sample_count() == 2
        assert store.correction("filter") == pytest.approx(10.0)
        assert store.correction("map") == pytest.approx(1.0)

    def test_priors_summary(self):
        store = CalibrationStore()
        store.observe("filter", "java", estimated=1.0, observed=8)
        store.observe("filter", "java", estimated=1.0, observed=2)
        (prior,) = store.priors()
        assert prior.kind == "filter"
        assert prior.platform == "java"
        assert prior.count == 2
        assert prior.geo_mean_ratio == pytest.approx(4.0)
        assert prior.log_mean == pytest.approx(math.log(4.0))
        assert prior.p50 == pytest.approx(2.0)
        assert prior.p90 == pytest.approx(8.0)

    def test_reset_drops_everything(self):
        store = CalibrationStore()
        store.observe("filter", "java", estimated=1.0, observed=8)
        store.note_prior_applied("filter")
        store.reset()
        assert store.sample_count() == 0
        assert store.priors_applied == 0
        assert store.correction("filter") == 1.0

    def test_report_renders_priors(self):
        store = CalibrationStore()
        assert "empty" in store.report()
        store.observe("filter", "java", estimated=1.0, observed=8)
        report = store.report()
        assert "filter" in report
        assert "java" in report
        assert "p90" in report

    def test_shared_registry_exports_series(self):
        registry = MetricsRegistry()
        store = CalibrationStore(registry=registry)
        store.observe("filter", "java", estimated=1.0, observed=8)
        assert "calibration_samples" in registry
        assert "calibration_factor" in registry
        snap = registry.snapshot()
        assert snap["calibration_samples"]["series"] == {
            "kind=filter,platform=java": 1.0
        }


class TestSnapshotRestore:
    def make_store(self) -> CalibrationStore:
        store = CalibrationStore(min_samples=2, max_correction=1e3)
        store.observe("filter", "java", estimated=1.0, observed=8)
        store.observe("filter", "java", estimated=4.0, observed=2)
        store.observe("groupby.hash", "spark", estimated=100.0, observed=10)
        return store

    def test_round_trip_exact(self):
        store = self.make_store()
        clone = CalibrationStore(min_samples=2, max_correction=1e3)
        clone.restore(store.snapshot())
        assert clone.snapshot() == store.snapshot()
        for kind in ("filter", "groupby.hash"):
            assert clone.correction(kind) == store.correction(kind)
        assert clone.p90("filter", "java") == store.p90("filter", "java")

    def test_snapshot_json_serialisable(self):
        dump = json.dumps(self.make_store().snapshot())
        assert "filter" in dump

    def test_save_load_json(self, tmp_path):
        store = self.make_store()
        path = str(tmp_path / "cal.json")
        store.save_json(path)
        loaded = CalibrationStore.load_json(path)
        assert loaded.min_samples == store.min_samples
        assert loaded.max_correction == store.max_correction
        assert loaded.snapshot() == store.snapshot()

    def test_restore_is_additive(self):
        store = self.make_store()
        before = store.correction("filter")
        snap = store.snapshot()
        store.restore(snap)  # merge the same evidence again
        assert store.sample_count() == 6
        # doubling identical evidence leaves the geo-mean unchanged
        assert store.correction("filter") == pytest.approx(before)

    def test_restore_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            CalibrationStore().restore({"version": 99, "priors": []})

    def test_restore_rejects_mismatched_bounds(self):
        store = self.make_store()
        snap = store.snapshot()
        snap["priors"][0]["factor_histogram"]["bounds"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="bounds"):
            store.restore(snap)


class TestCalibratedEstimator:
    def _filter_plan(self, ctx, rows=1_000, selectivity=0.001):
        dq = ctx.collection(range(rows)).filter(
            lambda x: True, hints=CostHints(selectivity=selectivity)
        )
        dq.plan.add(CollectSink(), [dq.operator])
        return ctx.app_optimizer.optimize(dq.plan)

    def test_cold_store_matches_raw(self, ctx):
        physical = self._filter_plan(ctx)
        raw = CardinalityEstimator().estimate_plan(physical)
        calibrated = CalibratedCardinalityEstimator(CalibrationStore())
        assert calibrated.estimate_plan(physical) == raw
        assert calibrated.last_corrections == {}

    def test_warm_store_scales_correctable_kinds(self, ctx):
        physical = self._filter_plan(ctx)
        store = CalibrationStore()
        store.observe("filter", "java", estimated=1.0, observed=100)
        estimator = CalibratedCardinalityEstimator(store)
        raw = CardinalityEstimator().estimate_plan(physical)
        estimates = estimator.estimate_plan(physical)
        filter_ids = [
            op.id for op in physical.graph.operators if op.kind == "filter"
        ]
        (filter_id,) = filter_ids
        assert estimates[filter_id] == pytest.approx(raw[filter_id] * 100)
        assert estimator.last_corrections == {filter_id: pytest.approx(100.0)}
        assert store.priors_applied >= 1

    def test_collection_sources_never_corrected(self, ctx):
        physical = self._filter_plan(ctx, rows=50)
        store = CalibrationStore()
        store.observe("source.collection", "java", estimated=1.0, observed=100)
        estimator = CalibratedCardinalityEstimator(store)
        estimates = estimator.estimate_plan(physical)
        source_ids = [
            op.id for op in physical.graph.operators
            if op.kind == "source.collection"
        ]
        assert all(estimates[i] == 50.0 for i in source_ids)

    def test_pass_through_kinds_never_corrected(self):
        assert not CalibratedCardinalityEstimator.correctable("map")
        assert not CalibratedCardinalityEstimator.correctable("sink.collect")
        assert not CalibratedCardinalityEstimator.correctable("sort")
        assert CalibratedCardinalityEstimator.correctable("filter")
        assert CalibratedCardinalityEstimator.correctable("groupby.hash")
        assert CalibratedCardinalityEstimator.correctable("join.broadcast")
        assert CalibratedCardinalityEstimator.correctable("source.textfile")

    def test_wraps_custom_base_estimator(self, ctx):
        class Doubler(CardinalityEstimator):
            def estimate_operator(self, operator, input_cards):
                return 2.0 * super().estimate_operator(operator, input_cards)

        physical = self._filter_plan(ctx)
        estimator = CalibratedCardinalityEstimator(
            CalibrationStore(), base=Doubler()
        )
        doubled = Doubler().estimate_plan(physical)
        assert estimator.estimate_plan(physical) == doubled


class TestContextWiring:
    def test_calibrate_true_attaches_fresh_store(self):
        ctx = RheemContext(calibrate=True)
        assert isinstance(ctx.calibration, CalibrationStore)
        assert isinstance(ctx.estimator, CalibratedCardinalityEstimator)
        assert ctx.executor.calibration is ctx.calibration

    def test_calibrate_accepts_existing_store(self):
        store = CalibrationStore()
        ctx = RheemContext(calibrate=store)
        assert ctx.calibration is store

    def test_default_is_off(self):
        ctx = RheemContext()
        assert ctx.calibration is None
        assert not isinstance(ctx.estimator, CalibratedCardinalityEstimator)

    @staticmethod
    def _skewed_pipeline(ctx: RheemContext):
        # The repeat after the filter forces a task-atom boundary on the
        # filter's output, so its misestimate is actually *observed*.  A
        # bare filter->collect fuses into a single atom whose only
        # boundary is the sink.
        return (
            ctx.collection(range(100))
            .filter(lambda x: True, hints=CostHints(selectivity=0.01))
            .repeat(2, lambda d: d.map(lambda x: x))
        )

    def test_execution_feeds_store(self):
        ctx = RheemContext(calibrate=True)
        self._skewed_pipeline(ctx).collect()
        assert ctx.calibration.sample_count() > 0
        assert ctx.calibration.correction("filter") > 1.0

    def test_fused_filter_is_not_observed(self):
        # Boundary semantics: fused-away operators produce no calibration
        # samples of their own kind — only atom output boundaries do.
        ctx = RheemContext(calibrate=True)
        ctx.collection(range(100)).filter(
            lambda x: True, hints=CostHints(selectivity=0.01)
        ).collect()
        kinds = {p.kind for p in ctx.calibration.priors()}
        assert "filter" not in kinds
        assert "sink.collect" in kinds

    def test_second_run_applies_prior(self):
        ctx = RheemContext(calibrate=True)
        self._skewed_pipeline(ctx).collect()
        assert ctx.calibration.priors_applied == 0
        self._skewed_pipeline(ctx).collect()
        assert ctx.calibration.priors_applied >= 1
