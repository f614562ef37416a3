"""The concurrent DAG scheduler's determinism contract.

Whatever the parallelism, a run must produce byte-identical outputs, an
*identical* cost ledger (entry order included — ``virtual_ms`` is a
float sum), equivalent span trees (modulo ``worker``/``slot`` stamps)
and identical resilience behaviour under seeded fault injection.  On top
of that: ``makespan_ms <= virtual_ms`` always, and channel refcounting
must release intermediate hand-offs without ever touching a payload a
consumer still needs.
"""

import pytest

from repro import FailureInjector, RheemContext, RuntimeContext, Tracer
from repro.core.channels import CollectionChannel
from repro.core.executor import Executor
from repro.core.logical.operators import CollectionSource, CollectSink, Map
from repro.core.logical.plan import LogicalPlan
from repro.core.optimizer.application import ApplicationOptimizer
from repro.core.optimizer.enumerator import MultiPlatformOptimizer
from repro.core.scheduler import CriticalPath, atom_dependencies
from repro.errors import ExecutionError
from repro.platforms import JavaPlatform

PIPELINES = 6


def branching_execution():
    """PIPELINES independent source→map→sink pipelines (one atom each)."""
    plan = LogicalPlan()
    for p in range(PIPELINES):
        src = plan.add(CollectionSource(list(range(p * 10, p * 10 + 8))))
        mapped = plan.add(Map(lambda x, p=p: x * 3 + p), [src])
        plan.add(CollectSink(), [mapped])
    physical = ApplicationOptimizer().optimize(plan)
    return MultiPlatformOptimizer([JavaPlatform()]).optimize(physical)


def loop_execution(ctx):
    """Pre-stage, loop barrier, post-stage: a multi-atom chain."""
    dq = (
        ctx.collection(range(60))
        .map(lambda x: x + 1)
        .repeat(3, lambda s: s.map(lambda x: x * 2))
        .filter(lambda x: x % 3 != 0)
        .sort(lambda x: x)
    )
    dq.plan.add(CollectSink(), [dq.operator])
    physical = ctx.app_optimizer.optimize(dq.plan)
    return ctx.task_optimizer.optimize(physical, forced_platform="java")


def run(execution, parallelism, runtime=None, tracer=None, **executor_kw):
    runtime = runtime or RuntimeContext(tracer=tracer)
    return Executor(parallelism=parallelism, **executor_kw).execute(
        execution, runtime
    )


class TestIdenticalResultsAndBill:
    def test_outputs_and_virtual_ms_identical(self):
        execution = branching_execution()
        base = run(execution, 1)
        for parallelism in (2, 4, 8):
            result = run(execution, parallelism)
            assert result.outputs == base.outputs
            assert result.metrics.virtual_ms == base.metrics.virtual_ms

    def test_ledger_entries_identical_in_order(self):
        """Not just the total: the *entry sequence* matches sequential."""
        execution = branching_execution()
        entries = {}
        for parallelism in (1, 4):
            result = run(execution, parallelism)
            entries[parallelism] = [
                (e.label, e.ms, e.platform, e.atom_id)
                for e in result.metrics.ledger.entries
            ]
        assert entries[1] == entries[4]

    def test_counters_identical(self):
        execution = branching_execution()
        base = run(execution, 1).metrics
        wide = run(execution, 4).metrics
        assert wide.atoms_executed == base.atoms_executed
        assert wide.retries == base.retries
        assert wide.by_platform() == base.by_platform()

    def test_loop_plan_identical(self):
        ctx = RheemContext()
        execution = loop_execution(ctx)
        base = run(execution, 1)
        wide = run(execution, 4)
        assert wide.single == base.single
        assert wide.metrics.virtual_ms == base.metrics.virtual_ms
        assert wide.metrics.loop_iterations == base.metrics.loop_iterations


class TestMakespan:
    def test_makespan_at_most_virtual(self):
        execution = branching_execution()
        for parallelism in (1, 2, 4):
            metrics = run(execution, parallelism).metrics
            assert 0 < metrics.makespan_ms <= metrics.virtual_ms

    def test_makespan_strictly_below_virtual_on_branching_plan(self):
        """Independent pipelines overlap: the critical path is one
        pipeline, not the sum of all six."""
        metrics = run(branching_execution(), 4).metrics
        assert metrics.makespan_ms < metrics.virtual_ms

    def test_makespan_agrees_across_parallelism(self):
        execution = branching_execution()
        base = run(execution, 1).metrics.makespan_ms
        wide = run(execution, 4).metrics.makespan_ms
        assert wide == pytest.approx(base, rel=1e-9)

    def test_makespan_in_summary(self):
        metrics = run(branching_execution(), 4).metrics
        assert "makespan=" in metrics.summary()

    def test_sequential_chain_makespan_equals_atom_time(self):
        """A linear chain has no overlap: makespan == serialized path."""
        ctx = RheemContext()
        execution = loop_execution(ctx)
        for parallelism in (1, 4):
            metrics = run(execution, parallelism).metrics
            assert metrics.makespan_ms == pytest.approx(
                metrics.virtual_ms, rel=1e-9
            )


class TestSpanEquivalence:
    @staticmethod
    def _shape(tracer):
        """Span tree as comparable rows, dropping scheduler stamps."""
        by_id = {s.span_id: s for s in tracer.spans}
        rows = []
        for span in tracer.spans:
            parent = by_id.get(span.parent_id)
            attrs = {
                k: v for k, v in span.attributes.items()
                if k not in ("worker", "slot")
            }
            rows.append((
                span.name, span.kind,
                parent.name if parent else None,
                tuple(sorted((k, repr(v)) for k, v in attrs.items())),
                tuple(e.name for e in span.events),
            ))
        return sorted(rows)

    def test_span_tree_identical_modulo_worker_slot(self):
        execution = branching_execution()
        shapes = {}
        tracers = {}
        for parallelism in (1, 4):
            tracer = Tracer()
            run(execution, parallelism, tracer=tracer)
            shapes[parallelism] = self._shape(tracer)
            tracers[parallelism] = tracer
        assert shapes[1] == shapes[4]

    def test_parallel_atom_spans_carry_worker_and_slot(self):
        tracer = Tracer()
        run(branching_execution(), 4, tracer=tracer)
        atom_spans = [s for s in tracer.spans if s.name.startswith("atom#")]
        assert atom_spans
        for span in atom_spans:
            assert isinstance(span.attributes.get("worker"), int)
            assert isinstance(span.attributes.get("slot"), int)

    def test_virtual_clock_reconciles_with_ledger(self):
        execution = branching_execution()
        for parallelism in (1, 4):
            tracer = Tracer()
            result = run(execution, parallelism, tracer=tracer)
            assert tracer.total_virtual_ms() == pytest.approx(
                result.metrics.virtual_ms
            )


class TestFaultInjectionSweep:
    """Seeded fault injection must be schedule-free: any parallelism
    sees exactly the failures, retries and (if it comes to it) the
    terminal error a sequential run sees."""

    @staticmethod
    def _outcome(execution, parallelism, injector_config, **executor_kw):
        runtime = RuntimeContext(
            failure_injector=FailureInjector(**injector_config)
        )
        try:
            result = Executor(
                parallelism=parallelism, max_retries=2, **executor_kw
            ).execute(execution, runtime)
        except ExecutionError as error:
            return ("error", type(error).__name__, str(error))
        return (
            "ok", result.outputs, result.metrics.virtual_ms,
            result.metrics.retries,
        )

    def test_transient_failure_at_every_position(self):
        execution = branching_execution()
        reference = run(execution, 1)
        total = reference.metrics.atoms_executed
        for position in range(total):
            for parallelism in (1, 4):
                result = run(
                    execution, parallelism,
                    runtime=RuntimeContext(
                        failure_injector=FailureInjector({position: 1})
                    ),
                )
                assert result.outputs == reference.outputs, position
                assert result.metrics.retries == 1, position

    @pytest.mark.parametrize("seed", range(6))
    def test_probabilistic_sweep_identical_outcomes(self, seed):
        execution = branching_execution()
        config = dict(rate=0.3, seed=seed)
        sequential = self._outcome(execution, 1, config)
        concurrent = self._outcome(execution, 4, config)
        assert concurrent == sequential

    @pytest.mark.parametrize("seed", range(4))
    def test_straggler_sweep_identical_bill(self, seed):
        execution = branching_execution()
        config = dict(slowdown_rate=0.5, slowdown_ms=7.0, seed=seed)
        sequential = self._outcome(execution, 1, config)
        concurrent = self._outcome(execution, 4, config)
        assert concurrent == sequential
        assert sequential[0] == "ok"

    def test_loop_plan_fault_sweep(self):
        ctx = RheemContext()
        execution = loop_execution(ctx)
        for seed in range(3):
            config = dict(rate=0.25, seed=seed)
            sequential = self._outcome(execution, 1, config)
            concurrent = self._outcome(execution, 4, config)
            assert concurrent == sequential, seed


class TestFailoverUnderParallelism:
    def _ctx(self, parallelism):
        return RheemContext(
            failover=True, max_retries=1, parallelism=parallelism
        )

    def _run(self, parallelism):
        ctx = self._ctx(parallelism)
        execution = loop_execution(ctx)
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1})
        )
        return ctx.executor.execute(execution, runtime), runtime

    def test_failover_results_match_sequential(self):
        sequential, _ = self._run(1)
        concurrent, _ = self._run(4)
        assert concurrent.single == sequential.single
        assert (
            concurrent.metrics.virtual_ms == sequential.metrics.virtual_ms
        )
        assert concurrent.metrics.failovers == sequential.metrics.failovers
        assert (
            concurrent.metrics.quarantines
            == sequential.metrics.quarantines
        )
        assert concurrent.metrics.failovers >= 1

    def test_multi_sink_failover_discards_speculative_work(self):
        """Every branch lands on the surviving platform with identical
        outputs even though speculative java executions get rolled
        back mid-run."""
        plan = LogicalPlan()
        for p in range(4):
            src = plan.add(CollectionSource(list(range(20))))
            mapped = plan.add(Map(lambda x, p=p: x + p), [src])
            plan.add(CollectSink(), [mapped])
        results = {}
        for parallelism in (1, 4):
            ctx = RheemContext(
                failover=True, max_retries=1, parallelism=parallelism
            )
            physical = ctx.app_optimizer.optimize(plan)
            execution = ctx.task_optimizer.optimize(
                physical, forced_platform="java"
            )
            runtime = RuntimeContext(
                failure_injector=FailureInjector(down_platforms={"java": 2})
            )
            results[parallelism] = ctx.executor.execute(execution, runtime)
        # Each parallelism re-optimizes (sink ids differ); compare values.
        assert sorted(results[4].outputs.values()) == sorted(
            results[1].outputs.values()
        )
        assert (
            results[4].metrics.virtual_ms == results[1].metrics.virtual_ms
        )


class TestChannelRefcounting:
    def _spy(self, monkeypatch):
        released = []
        original = CollectionChannel.release

        def recording(channel):
            released.append(channel)
            original(channel)

        monkeypatch.setattr(CollectionChannel, "release", recording)
        return released

    def test_intermediate_channels_released(self, monkeypatch):
        released = self._spy(monkeypatch)
        ctx = RheemContext()
        execution = loop_execution(ctx)
        reference = run(execution, 1).single
        result = run(execution, 4)
        assert result.single == reference
        assert released, "no intermediate channel was released"

    def test_failover_mode_disables_refcounting(self, monkeypatch):
        released = self._spy(monkeypatch)
        ctx = RheemContext(failover=True, parallelism=4)
        execution = loop_execution(ctx)
        ctx.executor.execute(execution, RuntimeContext())
        assert released == []

    def test_width_one_releases_under_the_same_policy(
        self, monkeypatch, tmp_path
    ):
        """Refcounting is one policy at every width: an intermediate
        hand-off is dropped inline too, and kept whenever a failover
        re-plan or a recoverable journal's store may still need it."""
        from repro import CheckpointManager, RunJournal
        from repro.storage import Catalog, LocalFsStore

        released = self._spy(monkeypatch)
        ctx = RheemContext()
        execution = loop_execution(ctx)
        reference = run(execution, 4).single
        released.clear()
        assert run(execution, 1).single == reference
        assert released, "width 1 released no intermediate channel"
        released.clear()
        run(execution, 1, failover=True, task_optimizer=ctx.task_optimizer)
        assert released == []
        catalog = Catalog()
        catalog.register_store(LocalFsStore(root=str(tmp_path / "ckpt")))
        journal = RunJournal(
            str(tmp_path / "run.journal"),
            store=CheckpointManager(catalog, "localfs", "refcount"),
        )
        run(execution, 1, runtime=RuntimeContext(journal=journal))
        journal.close()
        assert released == []
        # An audit journal keeps no payloads, so it releases as usual.
        audit = RunJournal(str(tmp_path / "audit.journal"))
        run(execution, 1, runtime=RuntimeContext(journal=audit))
        audit.close()
        assert released


class TestChannelUnit:
    def test_owned_list_adopted_without_copy(self):
        payload = [1, 2, 3]
        channel = CollectionChannel(payload, "java", owned=True)
        assert channel.data is payload

    def test_unowned_sequences_copied(self):
        payload = [1, 2, 3]
        assert CollectionChannel(payload, "java").data is not payload
        assert CollectionChannel((1, 2), "java", owned=True).data == [1, 2]

    def test_release_keeps_cardinality_and_blocks_reads(self):
        channel = CollectionChannel([1, 2, 3], "java")
        channel.release()
        channel.release()  # idempotent
        assert channel.released
        assert len(channel) == 3
        assert channel.cardinality == 3
        with pytest.raises(ExecutionError, match="released"):
            channel.require_data()


class TestCriticalPathUnit:
    class _FakeAtom:
        def __init__(self, inputs, outputs):
            self.external_inputs = {i: op for i, op in enumerate(inputs)}
            self.output_ids = list(outputs)

    def test_diamond_critical_path(self):
        cpath = CriticalPath()
        source = self._FakeAtom([], [1])
        left = self._FakeAtom([1], [2])
        right = self._FakeAtom([1], [3])
        join = self._FakeAtom([2, 3], [4])
        cpath.record(source, 10.0)
        cpath.record(left, 5.0)
        cpath.record(right, 20.0)
        cpath.record(join, 1.0)
        # 10 + max(5, 20) + 1
        assert cpath.makespan_ms == pytest.approx(31.0)
        assert cpath.accounted_ms == pytest.approx(36.0)

    def test_overhead_serializes_before_atoms(self):
        cpath = CriticalPath()
        cpath.sync_overhead(4.0)  # e.g. platform startup
        atom = self._FakeAtom([], [1])
        cpath.record(atom, 6.0)
        assert cpath.makespan_ms == pytest.approx(10.0)

    def test_atom_dependencies_task(self):
        atom = self._FakeAtom([7, 9], [11])
        assert atom_dependencies(atom) == {7, 9}


class TestParallelismConfig:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "4")
        assert Executor().parallelism == 4
        monkeypatch.setenv("REPRO_PARALLELISM", "junk")
        assert Executor().parallelism == 1

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLELISM", "8")
        assert Executor(parallelism=2).parallelism == 2

    def test_floor_of_one(self):
        assert Executor(parallelism=0).parallelism == 1

    def test_context_passes_parallelism_through(self):
        ctx = RheemContext(parallelism=4)
        assert ctx.executor.parallelism == 4


class TestAdaptiveThroughDriver:
    """Adaptive runs are ordinary runs: same driver, spans, events and
    width-independence, plus the after-atom cut."""

    def test_traced_adaptive_run_is_an_ordinary_execution(self):
        from repro.core.listeners import (
            EXECUTION_FINISHED,
            EXECUTION_STARTED,
            RecordingListener,
        )
        from tests.core.test_progressive_adaptive import skewed_logical_plan

        tracer = Tracer()
        ctx = RheemContext(tracer=tracer)
        recorder = RecordingListener()
        ctx.executor.add_listener(recorder)
        result, replans = ctx.execute_adaptive(skewed_logical_plan(ctx))
        assert replans >= 1
        assert [s.name for s in tracer.spans].count("execute") == 1
        kinds = [event.kind for event in recorder.events]
        assert kinds[0] == EXECUTION_STARTED
        assert kinds[-1] == EXECUTION_FINISHED
        assert 0 < result.metrics.makespan_ms <= result.metrics.virtual_ms

    def test_adaptive_identical_at_any_width(self):
        from repro.core.progressive import ProgressiveExecutor
        from tests.core.test_progressive import misestimated_loop_plan

        runs = {}
        for parallelism in (1, 2):
            ctx = RheemContext()
            progressive = ProgressiveExecutor(ctx.task_optimizer)
            progressive.parallelism = parallelism
            tracer = Tracer()
            result, replans = progressive.execute_progressively(
                misestimated_loop_plan(ctx), RuntimeContext(tracer=tracer)
            )
            # width 2 really dispatches: worker-run atoms carry a stamp
            assert (parallelism > 1) == any(
                "worker" in span.attributes for span in tracer.spans
            )
            runs[parallelism] = (
                replans,
                result.single,
                repr(result.metrics.virtual_ms),
                [
                    (e.label, repr(e.ms), e.platform)
                    for e in result.metrics.ledger.entries
                ],
            )
        assert runs[1][0] >= 1
        assert runs[2] == runs[1]

    def test_adaptive_run_uses_the_contexts_configuration(self):
        """``execute_adaptive`` runs under everything the context's
        executor was configured with — columnar hand-offs and failover
        included — not under a fresh executor's defaults."""
        from tests.core.test_process_mode import build_join

        def adaptive(**config):
            ctx = RheemContext(**config)
            handle = build_join(ctx)
            handle.plan.add(CollectSink(), [handle.operator])
            return ctx.execute_adaptive(handle.plan)[0]

        expected = adaptive()
        assert "postgres" in expected.metrics.by_platform()
        result = adaptive(columnar=True)
        assert result.single == expected.single
        labels = {entry.label for entry in result.metrics.ledger.entries}
        assert "columnar.ingest" in labels
        result = adaptive(
            failover=True, max_retries=1,
            failure_injector=FailureInjector(down_platforms={"postgres": 1}),
        )
        assert result.metrics.failovers >= 1
        assert result.single == expected.single
