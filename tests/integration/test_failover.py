"""Mid-run failover: a platform that dies permanently after the first
atom is quarantined and the remaining plan suffix re-runs on a healthy
platform — results identical, quarantined platform untouched afterwards.
"""

import pytest

from repro import (
    FailureInjector,
    HealthTracker,
    RheemContext,
    RuntimeContext,
)
from repro.core.listeners import (
    ATOM_FAILED_OVER,
    ATOM_STARTED,
    PLATFORM_QUARANTINED,
    RecordingListener,
)
from repro.core.logical.operators import CollectSink
from repro.core.resilience import BREAKER_OPEN
from repro.errors import ExecutionError


def build_execution(ctx, forced_platform=None):
    """A multi-atom plan (pre-stage, loop, post-stage) so there is a
    meaningful suffix left to re-plan after the first atom."""
    dq = (
        ctx.collection(range(100))
        .map(lambda x: x + 1)
        .repeat(3, lambda s: s.map(lambda x: x * 2))
        .filter(lambda x: x % 3 != 0)
        .sort(lambda x: x)
    )
    dq.plan.add(CollectSink(), [dq.operator])
    physical = ctx.app_optimizer.optimize(dq.plan)
    return ctx.task_optimizer.optimize(
        physical, forced_platform=forced_platform
    )


def reference_result():
    ctx = RheemContext()
    execution = build_execution(ctx, forced_platform="java")
    return ctx.executor.execute(execution, RuntimeContext()).single


class TestMidRunFailover:
    def _run_with_dead_java(self, max_retries=1):
        ctx = RheemContext(failover=True, max_retries=max_retries)
        recorder = RecordingListener()
        ctx.executor.add_listener(recorder)
        execution = build_execution(ctx, forced_platform="java")
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1})
        )
        result = ctx.executor.execute(execution, runtime)
        return result, recorder, runtime

    def test_results_identical_after_failover(self):
        result, _, _ = self._run_with_dead_java()
        assert result.single == reference_result()

    def test_failover_and_quarantine_counted(self):
        result, _, runtime = self._run_with_dead_java()
        assert result.metrics.failovers >= 1
        assert result.metrics.quarantines >= 1
        assert runtime.health.state("java") == BREAKER_OPEN

    def test_quarantined_platform_receives_no_further_atoms(self):
        _, recorder, _ = self._run_with_dead_java()
        kinds = [e.kind for e in recorder.events]
        cut = kinds.index(PLATFORM_QUARANTINED)
        after = [
            e.details["platform"]
            for e in recorder.events[cut:]
            if e.kind == ATOM_STARTED
        ]
        assert after, "no atoms ran after the quarantine"
        assert "java" not in after

    def test_event_payloads(self):
        _, recorder, _ = self._run_with_dead_java()
        (quarantine,) = [
            e for e in recorder.events if e.kind == PLATFORM_QUARANTINED
        ]
        assert quarantine.details["platform"] == "java"
        assert quarantine.details["cooldown_ms"] > 0
        (failover,) = [
            e for e in recorder.events if e.kind == ATOM_FAILED_OVER
        ]
        assert failover.details["from_platform"] == "java"
        assert failover.details["remaining_atoms"] >= 1
        assert "java" not in failover.details["platforms"]

    def test_permanent_death_skips_pointless_retries(self):
        """PlatformDownError is not retried on the same platform: no
        retries are recorded even with a retry budget available."""
        result, recorder, _ = self._run_with_dead_java(max_retries=2)
        assert result.metrics.retries == 0

    def test_replan_cost_charged(self):
        result, _, _ = self._run_with_dead_java()
        assert result.metrics.by_label_prefix("failover.replan") > 0

    def test_failover_disabled_surfaces_error(self):
        ctx = RheemContext(failover=False, max_retries=1)
        execution = build_execution(ctx, forced_platform="java")
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1})
        )
        with pytest.raises(ExecutionError):
            ctx.executor.execute(execution, runtime)

    def test_transient_failures_do_not_fail_over(self):
        """A budgeted transient failure is absorbed by retries without
        quarantining anything."""
        ctx = RheemContext(failover=True)
        execution = build_execution(ctx, forced_platform="java")
        runtime = RuntimeContext(
            failure_injector=FailureInjector({1: 1})
        )
        result = ctx.executor.execute(execution, runtime)
        assert result.metrics.failovers == 0
        assert result.metrics.quarantines == 0
        assert result.metrics.retries == 1
        assert result.single == reference_result()

    def test_every_platform_dead_is_fatal(self):
        ctx = RheemContext(failover=True, max_retries=0)
        execution = build_execution(ctx, forced_platform="java")
        runtime = RuntimeContext(
            failure_injector=FailureInjector(
                down_platforms={"java": 1, "spark": 0, "postgres": 0}
            )
        )
        with pytest.raises(ExecutionError):
            ctx.executor.execute(execution, runtime)


class TestHealthCarryOver:
    def test_open_breaker_skips_platform_in_next_run(self):
        """A RuntimeContext that saw java die keeps routing around it in
        later executions until the cool-down expires."""
        ctx = RheemContext(failover=True, max_retries=1)
        recorder = RecordingListener()
        ctx.executor.add_listener(recorder)
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1}),
            health=HealthTracker(cooldown_ms=1e9),
        )
        execution = build_execution(ctx, forced_platform="java")
        ctx.executor.execute(execution, runtime)
        assert not runtime.health.is_available("java")

        # Second run, same runtime: java is rejected up front and the
        # whole plan fails over before any java atom executes.
        recorder.events.clear()
        second = build_execution(ctx, forced_platform="java")
        runtime.failure_injector = None
        result = ctx.executor.execute(second, runtime)
        assert result.single == reference_result()
        platforms = [
            e.details["platform"]
            for e in recorder.events
            if e.kind == ATOM_STARTED
        ]
        assert platforms and "java" not in platforms

    def test_failover_leaves_the_callers_journal_attached(self, tmp_path):
        """Journaling stops for the rest of a failed-over *run* (the
        records describe the replaced plan), not for the runtime: the
        next execute on the same RuntimeContext journals again."""
        from repro import RunJournal

        ctx = RheemContext(failover=True, max_retries=1)
        journal = RunJournal(str(tmp_path / "run.journal"))
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1}),
            journal=journal,
        )
        execution = build_execution(ctx, forced_platform="java")
        first = ctx.executor.execute(execution, runtime)
        assert first.metrics.failovers >= 1
        assert journal.records_written < len(execution.atoms)
        assert runtime.journal is journal

        runtime.failure_injector = None
        second = build_execution(ctx, forced_platform="spark")
        ctx.executor.execute(second, runtime)
        journal.close()
        assert journal.records_written == len(second.atoms)
