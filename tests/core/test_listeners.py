"""Tests for Executor monitoring listeners."""

import io

import pytest

from repro import FailureInjector, RheemContext
from repro.core.listeners import (
    ATOM_FINISHED,
    ATOM_RETRIED,
    ATOM_STARTED,
    EXECUTION_FINISHED,
    EXECUTION_STARTED,
    LOOP_ITERATION,
    ConsoleProgressListener,
    ExecutionEvent,
    ExecutionListener,
    RecordingListener,
    VirtualBudgetListener,
)
from repro.errors import ExecutionError


@pytest.fixture()
def listening_ctx():
    ctx = RheemContext()
    recorder = RecordingListener()
    ctx.executor.add_listener(recorder)
    return ctx, recorder


class TestEventStream:
    def test_simple_plan_event_sequence(self, listening_ctx):
        ctx, recorder = listening_ctx
        ctx.collection(range(5)).map(lambda x: x).collect(platform="java")
        kinds = recorder.kinds()
        assert kinds[0] == EXECUTION_STARTED
        assert kinds[-1] == EXECUTION_FINISHED
        assert ATOM_STARTED in kinds and ATOM_FINISHED in kinds

    def test_atom_events_carry_platform(self, listening_ctx):
        ctx, recorder = listening_ctx
        ctx.collection([1]).collect(platform="spark")
        started = [e for e in recorder.events if e.kind == ATOM_STARTED]
        assert all(e.details["platform"] == "spark" for e in started)

    def test_finish_event_totals(self, listening_ctx):
        ctx, recorder = listening_ctx
        _, metrics = ctx.collection(range(10)).collect_with_metrics(platform="java")
        finish = recorder.events[-1]
        assert finish.details["virtual_ms"] == pytest.approx(metrics.virtual_ms)
        assert finish.details["atoms_executed"] == metrics.atoms_executed

    def test_retry_events(self):
        ctx = RheemContext(failure_injector=FailureInjector({0: 1}))
        recorder = RecordingListener()
        ctx.executor.add_listener(recorder)
        ctx.collection([1]).collect(platform="java")
        assert recorder.count(ATOM_RETRIED) == 1
        retry = next(e for e in recorder.events if e.kind == ATOM_RETRIED)
        assert "injected failure" in retry.details["error"]

    def test_loop_iteration_events(self, listening_ctx):
        ctx, recorder = listening_ctx
        ctx.collection([0]).repeat(4, lambda dq: dq.map(lambda x: x + 1)).collect(
            platform="java"
        )
        assert recorder.count(LOOP_ITERATION) == 4
        last = [e for e in recorder.events if e.kind == LOOP_ITERATION][-1]
        assert last.details["state_card"] == 1

    def test_multiple_listeners_all_notified(self):
        ctx = RheemContext()
        first, second = RecordingListener(), RecordingListener()
        ctx.executor.add_listener(first)
        ctx.executor.add_listener(second)
        ctx.collection([1]).collect(platform="java")
        assert first.kinds() == second.kinds()


class TestConsoleListener:
    def test_prints_one_line_per_event(self):
        buffer = io.StringIO()
        ctx = RheemContext()
        ctx.executor.add_listener(ConsoleProgressListener(stream=buffer))
        ctx.collection([1]).collect(platform="java")
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("[rheem]") for line in lines)


class TestBudgetListener:
    def test_aborts_over_budget(self):
        ctx = RheemContext()
        ctx.executor.add_listener(VirtualBudgetListener(budget_ms=0.001))
        with pytest.raises(ExecutionError, match="virtual budget exceeded"):
            ctx.collection(range(100)).map(lambda x: x).collect(platform="java")

    def test_under_budget_passes(self):
        ctx = RheemContext()
        ctx.executor.add_listener(VirtualBudgetListener(budget_ms=1e9))
        out = ctx.collection(range(10)).collect(platform="java")
        assert out == list(range(10))


def test_event_str():
    event = ExecutionEvent(ATOM_STARTED, {"atom": 1, "platform": "java"})
    assert "atom=1" in str(event)
    assert "platform=java" in str(event)


class _BombListener(ExecutionListener):
    """Raises on the Nth event of a given kind (satellite regression
    guard: a listener blowing up mid-run must abort cleanly)."""

    def __init__(self, kind: str, after: int = 1):
        self.kind = kind
        self.after = after
        self.seen = 0

    def on_event(self, event: ExecutionEvent) -> None:
        if event.kind == self.kind:
            self.seen += 1
            if self.seen >= self.after:
                raise RuntimeError(f"listener bomb on {self.kind}")


class TestListenerErrorPropagation:
    """A listener raising mid-run aborts the execution cleanly: the
    error propagates undecorated, checkpoint state stays consistent and
    the HealthTracker is not left half-open."""

    def _execution(self, ctx):
        from repro.core.logical.operators import CollectSink

        dq = ctx.collection(range(40)).map(lambda x: x + 1).filter(
            lambda x: x % 2 == 0
        )
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        return ctx.task_optimizer.optimize(physical, forced_platform="java")

    def test_listener_error_aborts_and_propagates(self):
        from repro import RheemContext

        ctx = RheemContext()
        bomb = _BombListener(ATOM_FINISHED)
        ctx.executor.add_listener(bomb)
        with pytest.raises(RuntimeError, match="listener bomb"):
            ctx.collection(range(10)).map(lambda x: x).collect()

    def test_executor_reusable_after_aborted_run(self):
        from repro import RheemContext

        ctx = RheemContext()
        bomb = _BombListener(ATOM_FINISHED)
        ctx.executor.add_listener(bomb)
        with pytest.raises(RuntimeError):
            ctx.collection(range(10)).map(lambda x: x).collect()
        ctx.executor.listeners.remove(bomb)
        assert ctx.collection(range(3)).map(lambda x: x * 2).collect() == [
            0, 2, 4,
        ]

    def test_health_tracker_not_left_half_open(self):
        from repro import RheemContext, RuntimeContext
        from repro.core.resilience import BREAKER_CLOSED

        ctx = RheemContext()
        ctx.executor.add_listener(_BombListener(ATOM_FINISHED))
        runtime = RuntimeContext()
        execution = self._execution(ctx)
        with pytest.raises(RuntimeError):
            ctx.executor.execute(execution, runtime)
        # The abort is not a platform failure: every breaker stays
        # closed and every platform stays available.
        for platform in ctx.platforms:
            assert runtime.health.state(platform.name) == BREAKER_CLOSED
            assert runtime.health.is_available(platform.name)
            assert runtime.health.health(platform.name).failures == 0

    def test_checkpoint_state_not_corrupted(self, tmp_path):
        from repro import (
            CheckpointManager, RheemContext, RunJournal, RuntimeContext,
        )
        from repro.core.logical.operators import CollectSink
        from repro.storage import Catalog, LocalFsStore

        catalog = Catalog()
        catalog.register_store(LocalFsStore(root=str(tmp_path / "ckpt")))
        manager = CheckpointManager(catalog, "localfs", plan_key="bomb-test")

        def journaled_run(ctx, execution):
            journal = RunJournal(str(tmp_path / "run.journal"), store=manager)
            try:
                return ctx.executor.execute(
                    execution, RuntimeContext(journal=journal)
                )
            finally:
                journal.close()

        ctx = RheemContext()
        # Two atoms via a union of two sources, forced to one platform.
        left = ctx.collection(range(20)).map(lambda x: x + 1)
        dq = left.union(ctx.collection(range(5)))
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        execution = ctx.task_optimizer.optimize(
            physical, forced_platform="java"
        )
        if len(execution.atoms) < 2:
            pytest.skip("plan collapsed into one atom")

        bomb = _BombListener(ATOM_FINISHED, after=2)
        ctx.executor.add_listener(bomb)
        with pytest.raises(RuntimeError):
            journaled_run(ctx, execution)
        assert manager.saves >= 1  # completed atoms were persisted

        # Rerun without the bomb: resumes cleanly, result correct.
        ctx.executor.listeners.remove(bomb)
        resumed = journaled_run(ctx, execution)
        assert resumed.metrics.atoms_restored >= 1
        expected = sorted([x + 1 for x in range(20)] + list(range(5)))
        assert sorted(resumed.single) == expected

    def test_bomb_on_started_aborts_before_any_work(self):
        from repro import RheemContext, RuntimeContext

        ctx = RheemContext()
        recording = RecordingListener()
        ctx.executor.add_listener(_BombListener(EXECUTION_STARTED))
        ctx.executor.add_listener(recording)
        with pytest.raises(RuntimeError):
            ctx.executor.execute(self._execution(ctx), RuntimeContext())
        assert recording.count(ATOM_FINISHED) == 0
