"""Statistical-feedback tests for adaptive re-optimization.

The headline loop of this subsystem: run 1 misestimates and replans,
observations fold into the :class:`CalibrationStore`, run 2 starts from
corrected estimates and replans less.  These tests pin that behaviour
down with seeded workloads (ISSUE acceptance criteria b and c):

* after N runs with a deliberately skewed selectivity the per-run p90
  misestimate factor **monotonically shrinks** and the replan count
  drops;
* adaptive replans and the resulting priors are **deterministic under
  parallelism=4** (journal-ordered observation replay);
* the drift-band trigger itself behaves: the default band, single-outlier
  breach, infinite factors, dilution by healthy boundaries, and the
  ``replans_adaptive`` counter / ``PLAN_REPLANNED`` span event.
"""

from types import SimpleNamespace

import pytest

from repro import CostHints, RheemContext
from repro.core.channels import CollectionChannel
from repro.core.logical.operators import CollectSink
from repro.core.metrics import MISESTIMATE_BUCKETS
from repro.core.observability import Tracer
from repro.core.observability.registry import HistogramSeries
from repro.core.optimizer.calibration import CalibrationStore
from repro.core.progressive import ProgressiveExecutor

from tests.core.test_progressive import misestimated_loop_plan


def skewed_logical_plan(ctx, rows=20_000, iterations=15):
    """Same shape as ``misestimated_loop_plan`` but kept logical so it
    can go through ``ctx.execute_adaptive`` (which owns the app-level
    optimization and therefore the calibrated estimator)."""
    dq = (
        ctx.collection(range(rows))
        .filter(lambda x: True, hints=CostHints(selectivity=0.0001))
        .repeat(
            iterations,
            lambda s: s.map(lambda x: x + 1, hints=CostHints(udf_load=10.0)),
        )
    )
    dq.plan.add(CollectSink(), [dq.operator])
    return dq.plan


def run_skewed(store, parallelism=1):
    """One seeded adaptive run sharing ``store`` across runs.

    Returns ``(replans, p90, virtual_ms)`` where ``p90`` is the run's
    own boundary misestimate distribution (not the store's cumulative
    one).
    """
    ctx = RheemContext(calibrate=store, parallelism=parallelism)
    result, replans = ctx.execute_adaptive(skewed_logical_plan(ctx))
    window = HistogramSeries(MISESTIMATE_BUCKETS)
    for obs in result.metrics.calibration_observations:
        if obs.estimated > 0 and obs.observed > 0:
            ratio = obs.observed / obs.estimated
            window.observe(max(ratio, 1.0 / ratio))
    return replans, window.quantile(0.9), result.metrics.virtual_ms


class TestStatisticalFeedback:
    def test_p90_shrinks_and_replans_drop_over_runs(self):
        store = CalibrationStore()
        history = [run_skewed(store) for _ in range(3)]
        replans = [h[0] for h in history]
        p90s = [h[1] for h in history]
        # run 1 replans on the 10^4 misestimate; runs 2..N start from
        # corrected estimates and stop replanning
        assert replans[0] >= 1
        assert replans[1] < replans[0]
        assert replans[2] == replans[1]
        # the per-run p90 factor shrinks monotonically as priors converge
        assert p90s[1] < p90s[0]
        assert p90s[2] <= p90s[1]
        # and the warmed-up run is within the healthy band
        assert p90s[-1] < 4.0

    def test_warm_run_bill_not_worse(self):
        store = CalibrationStore()
        _, _, cold_ms = run_skewed(store)
        _, _, warm_ms = run_skewed(store)
        assert warm_ms <= cold_ms

    def test_deterministic_under_parallelism(self):
        """Criterion (c): the same runs at parallelism 1 and 4 yield the
        same replan counts and *identical* learned priors — observation
        order is pinned by journal replay, not thread timing."""
        snaps = {}
        replans_by_par = {}
        for parallelism in (1, 4):
            store = CalibrationStore()
            replans_by_par[parallelism] = [
                run_skewed(store, parallelism=parallelism)[0]
                for _ in range(2)
            ]
            snaps[parallelism] = store.snapshot()
        assert replans_by_par[1] == replans_by_par[4]
        assert snaps[1] == snaps[4]

    def test_replans_adaptive_counter_and_event(self):
        tracer = Tracer()
        ctx = RheemContext(calibrate=True, tracer=tracer)
        result, replans = ctx.execute_adaptive(skewed_logical_plan(ctx))
        assert replans >= 1
        assert (
            result.metrics.registry.counter("replans_adaptive").total()
            == replans
        )
        events = [
            event
            for span in tracer.spans
            for event in span.events
            if event.name == "PLAN_REPLANNED"
        ]
        assert len(events) == replans
        assert events[0].attributes["trigger"] == "p90_drift"
        assert events[0].attributes["p90"] >= 4.0
        assert events[0].attributes["band_high"] == 4.0


class TestDriftBand:
    def test_band_validation(self, ctx):
        low, high = ProgressiveExecutor(ctx.task_optimizer).DRIFT_BAND
        assert (low, high) == (1.0, 4.0)
        assert 1.0 <= low <= high

    def test_wide_band_suppresses_replans(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        progressive.DRIFT_BAND = (1.0, 1e9)
        result, replans = progressive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert replans == 0
        assert len(result.single) == 20_000

    def test_default_band_replans_like_legacy(self, ctx):
        """On a single-gross-outlier plan the drift trigger and a fixed
        per-boundary threshold at the band's high edge agree
        (single-sample p90 is exact)."""

        class FixedThreshold(ProgressiveExecutor):
            def _drift_exceeded(self, atom, channels, execution, window):
                factors = self._boundary_factors(atom, channels, execution)
                return any(f >= self.DRIFT_BAND[1] for f in factors)

        adaptive = ProgressiveExecutor(ctx.task_optimizer)
        _, drift_replans = adaptive.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        legacy = FixedThreshold(ctx.task_optimizer)
        _, legacy_replans = legacy.execute_progressively(
            misestimated_loop_plan(ctx)
        )
        assert drift_replans == legacy_replans >= 1

    # -- _drift_exceeded unit tests over stub atoms --------------------

    @staticmethod
    def _drift(ctx, estimates, observed, band=(1.0, 4.0)):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        progressive.DRIFT_BAND = band
        atom = SimpleNamespace(output_ids=sorted(estimates))
        channels = {
            op_id: CollectionChannel(list(range(n)), "java")
            for op_id, n in observed.items()
        }
        execution = SimpleNamespace(estimates=estimates)
        window = HistogramSeries(MISESTIMATE_BUCKETS)
        return progressive._drift_exceeded(atom, channels, execution, window)

    def test_single_outlier_breaches(self, ctx):
        assert self._drift(ctx, {1: 10.0}, {1: 40})
        assert not self._drift(ctx, {1: 10.0}, {1: 39})

    def test_underestimate_folds(self, ctx):
        # 40 estimated vs 10 observed is the same folded factor of 4
        assert self._drift(ctx, {1: 40.0}, {1: 10})

    def test_zero_estimate_is_immediate_breach(self, ctx):
        assert self._drift(ctx, {1: 0.0}, {1: 5})

    def test_healthy_majority_dilutes_one_moderate_outlier(self, ctx):
        estimates = {i: 10.0 for i in range(1, 11)}
        observed = {i: 10 for i in range(1, 11)}
        observed[10] = 45  # one 4.5x miss among nine exact boundaries
        assert not self._drift(ctx, estimates, observed)
        # whereas alone it would breach
        assert self._drift(ctx, {10: 10.0}, {10: 45})

    def test_broad_moderate_drift_breaches(self, ctx):
        # every boundary off by ~6x: p90 lands above the band high
        estimates = {i: 10.0 for i in range(1, 11)}
        observed = {i: 60 for i in range(1, 11)}
        assert self._drift(ctx, estimates, observed)

    def test_missing_estimate_or_channel_is_skipped(self, ctx):
        progressive = ProgressiveExecutor(ctx.task_optimizer)
        atom = SimpleNamespace(output_ids=[1, 2])
        execution = SimpleNamespace(estimates={1: 10.0})
        window = HistogramSeries(MISESTIMATE_BUCKETS)
        assert not progressive._drift_exceeded(atom, {}, execution, window)
        assert window.n == 0
