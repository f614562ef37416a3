"""Process-mode execution: the GIL-escape backend's determinism contract.

``Executor(execution_mode="process")`` swaps the concurrent scheduler's
thread pool for forked worker processes; every channel crosses the
boundary inside the one pickle its sender makes.  The contract is the
same as the thread backend's, verbatim: byte-identical outputs,
``virtual_ms``, ledger entry sequence and span shape versus a sequential
run, at any parallelism, under seeded fault injection, failover, chaos
crashes and cross-mode resume — plus two of its own: a payload that
cannot be pickled is an :class:`ExecutionError` naming the atom (never a
hang), and no worker process outlives any exit path.
"""

import multiprocessing
import os
import pickle
import threading

import pytest

from repro import (
    CheckpointManager,
    CrashInjector,
    FailureInjector,
    RheemContext,
    RunJournal,
    RuntimeContext,
    SimulatedCrash,
    Tracer,
)
from repro.core.channels import ColumnarChannel
from repro.core.executor import Executor
from repro.core.logical.operators import CollectionSource, CollectSink, Map
from repro.core.logical.plan import LogicalPlan
from repro.core.observability.resources import resource_summary
from repro.errors import AtomExhaustedError, ExecutionError
from repro.storage import Catalog, LocalFsStore

MODES = ("thread", "process")

WORDS = (
    "the road to freedom in big data analytics "
    "the freedom to choose a platform the road goes on"
).split()


# ----------------------------------------------------------------------
# plan zoo (multi-atom: branching pipelines, joins, loop barriers)
# ----------------------------------------------------------------------
def build_wordcount(ctx):
    lines = [" ".join(WORDS[i : i + 4]) for i in range(0, len(WORDS), 2)]
    return (
        ctx.collection(lines)
        .flat_map(str.split)
        .map(lambda word: (word, 1))
        .reduce_by(
            key=lambda pair: pair[0],
            reducer=lambda a, b: (a[0], a[1] + b[1]),
        )
        .sort(key=lambda pair: (-pair[1], pair[0]))
    )


def build_join(ctx):
    left = ctx.collection(range(40)).map(lambda x: (x % 7, x))
    right = ctx.collection(range(25)).map(lambda x: (x % 7, x * x))
    return (
        left.join(right, lambda p: p[0], lambda p: p[0])
        .map(lambda pair: (pair[0][1], pair[1][1]))
        .sort(key=lambda p: (p[0], p[1]))
    )


def build_kmeans(ctx):
    points = [float(x) for x in range(0, 30, 3)]

    def iteration(state):
        side = state.source(points, name="points")
        return (
            state.cross(side)
            .map(lambda pair: (pair[1], pair[0], abs(pair[0] - pair[1])))
            .reduce_by(
                key=lambda t: t[0],
                reducer=lambda a, b: a if a[2] <= b[2] else b,
            )
            .group_by(lambda t: t[1])
            .map(lambda g: sum(point for point, _, _ in g[1]) / len(g[1]))
            .sort(key=lambda c: c)
        )

    return (
        ctx.collection([1.0, 25.0])
        .repeat(3, iteration)
        .sort(key=lambda c: c)
    )


def build_pagerank(ctx):
    edges = [(i, (i * 3 + 1) % 8) for i in range(8)] + [(0, 4), (5, 2)]

    def iteration(state):
        side = state.source(edges, name="edges")
        return (
            state.join(side, lambda r: r[0], lambda e: e[0])
            .map(lambda pair: (pair[1][1], pair[0][1] * 0.85))
            .reduce_by(
                key=lambda r: r[0],
                reducer=lambda a, b: (a[0], a[1] + b[1]),
            )
            .map(lambda r: (r[0], round(r[1] + 0.15, 9)))
            .sort(key=lambda r: r[0])
        )

    ranks = [(node, 1.0) for node in range(8)]
    return ctx.collection(ranks).repeat(2, iteration).sort(key=lambda r: r[0])


WORKLOADS = {
    "wordcount": build_wordcount,
    "join": build_join,
    "kmeans": build_kmeans,
    "pagerank": build_pagerank,
}


def build_execution(ctx, build):
    handle = build(ctx)
    handle.plan.add(CollectSink(), [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    return ctx.task_optimizer.optimize(physical)


def on_java(plan):
    from repro.core.optimizer.application import ApplicationOptimizer
    from repro.core.optimizer.enumerator import MultiPlatformOptimizer
    from repro.platforms import JavaPlatform

    physical = ApplicationOptimizer().optimize(plan)
    return MultiPlatformOptimizer([JavaPlatform()]).optimize(physical)


def branching_execution(pipelines=6, numeric=False):
    """Independent source→map→sink pipelines: one dispatchable atom
    each, so the scheduler genuinely overlaps them.  ``numeric=True``
    makes every atom output packable (floats) for the columnar tests."""
    plan = LogicalPlan()
    for p in range(pipelines):
        if numeric:
            src = plan.add(
                CollectionSource([float(x) for x in range(p, p + 40)])
            )
            mapped = plan.add(Map(lambda x, p=p: x * 1.5 + p), [src])
        else:
            src = plan.add(CollectionSource(list(range(p * 10, p * 10 + 8))))
            mapped = plan.add(Map(lambda x, p=p: x * 3 + p), [src])
        plan.add(CollectSink(), [mapped])
    return on_java(plan)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def run(execution, parallelism, mode="thread", runtime=None, tracer=None,
        **executor_kw):
    runtime = runtime or RuntimeContext(tracer=tracer)
    return Executor(
        parallelism=parallelism, execution_mode=mode, **executor_kw
    ).execute(execution, runtime)


def ledger_sequence(metrics):
    return [
        (e.label, repr(e.ms), e.platform, e.atom_id)
        for e in metrics.ledger.entries
    ]


def span_shape(tracer):
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


def fingerprint(execution, parallelism, mode, **executor_kw):
    tracer = Tracer()
    result = run(execution, parallelism, mode, tracer=tracer, **executor_kw)
    return {
        "outputs": result.outputs,
        "virtual": repr(result.metrics.virtual_ms),
        "ledger": ledger_sequence(result.metrics),
        "spans": span_shape(tracer),
        "makespan": repr(result.metrics.makespan_ms),
    }


# ----------------------------------------------------------------------
# the equivalence matrix
# ----------------------------------------------------------------------
def assert_matrix_identical(execution, **executor_kw):
    """The full equivalence contract over one shared execution object
    (reusing it keeps atom ids stable across runs):

    * processes == threads at the *same* parallelism on everything —
      outputs, ``virtual_ms``, ledger sequence, span shape, makespan;
    * outputs, ``virtual_ms`` and the ledger sequence additionally match
      the sequential run at every parallelism (makespan and span
      virtual timing legitimately compress when lanes overlap).
    """
    sequential = fingerprint(execution, 1, "thread", **executor_kw)
    for parallelism in (1, 4):
        per_mode = {
            mode: fingerprint(execution, parallelism, mode, **executor_kw)
            for mode in MODES
        }
        assert per_mode["process"] == per_mode["thread"], parallelism
        for mode, got in per_mode.items():
            for key in ("outputs", "virtual", "ledger"):
                assert got[key] == sequential[key], (mode, parallelism, key)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads_identical_across_modes(self, name):
        execution = build_execution(RheemContext(), WORKLOADS[name])
        assert_matrix_identical(execution)

    def test_branching_plan_identical_across_modes(self):
        assert_matrix_identical(branching_execution())

    def test_columnar_identical_across_modes(self):
        assert_matrix_identical(
            branching_execution(numeric=True), columnar=True
        )

    def test_columnar_loop_identical_across_modes(self):
        """Loop barriers consume columnar state channels inline on the
        coordinator."""
        execution = build_execution(RheemContext(), build_kmeans)
        assert_matrix_identical(execution, columnar=True)

    def test_counters_identical(self):
        execution = branching_execution()
        base = run(execution, 1).metrics
        proc = run(execution, 4, "process").metrics
        assert proc.atoms_executed == base.atoms_executed
        assert proc.retries == base.retries
        assert proc.by_platform() == base.by_platform()


# ----------------------------------------------------------------------
# the wire: one pickle per message
# ----------------------------------------------------------------------
class TestSharedMemoryAccounting:
    def test_channel_accounting_identical_across_modes(self):
        """``channel_bytes`` (and every other resource total the modes
        share deterministically) must not notice the backend swap."""
        execution = build_execution(RheemContext(), build_join)
        per_mode = {
            mode: resource_summary(
                run(
                    execution, 4, mode, columnar=True, profile=True
                ).metrics.registry
            )
            for mode in MODES
        }
        assert per_mode["process"]["channel_bytes"] == (
            per_mode["thread"]["channel_bytes"]
        )


def closure_execution():
    """Two independent pipelines whose output rows are closures: fine
    to hand between threads, impossible to pickle."""
    plan = LogicalPlan()
    for _ in range(2):
        src = plan.add(CollectionSource(list(range(4))))
        mapped = plan.add(Map(lambda x: (lambda: x)), [src])
        plan.add(CollectSink(), [mapped])
    return on_java(plan)


def run_with_timeout(execution, mode, seconds=5.0):
    """Run on a daemon thread so a wedged coordinator fails the test
    instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = run(execution, 2, mode)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{mode} run still going after {seconds}s"
    return outcome


class TestUnpicklablePayload:
    def test_unpicklable_output_is_an_error_not_a_hang(self):
        outcome = run_with_timeout(closure_execution(), "process")
        error = outcome.get("error")
        assert isinstance(error, ExecutionError), outcome
        assert "atom index 0" in str(error)
        assert "cannot cross the process boundary" in str(error)
        assert multiprocessing.active_children() == []

    def test_unpicklable_input_is_an_error_not_a_hang(self):
        """The coordinator's half: a loop barrier (run inline) leaves
        closures as state, and the atom after it is dispatched."""
        execution = build_execution(
            RheemContext(),
            lambda c: c.collection([1, 2])
            .repeat(2, lambda state: state.map(lambda v: (lambda: 7)))
            .map(lambda f: f()),
        )
        outcome = run_with_timeout(execution, "process")
        error = outcome.get("error")
        assert isinstance(error, ExecutionError), outcome
        assert "atom index 2: input cannot cross" in str(error)
        assert multiprocessing.active_children() == []
        assert run_with_timeout(execution, "thread")["result"].single == [7, 7]

    def test_unpicklable_output_is_fine_on_threads(self):
        outcome = run_with_timeout(closure_execution(), "thread")
        assert "error" not in outcome, outcome
        assert [len(rows) for rows in outcome["result"].outputs.values()] == [
            4, 4
        ]


class TestColumnarChannelPickle:
    @staticmethod
    def _roundtrip(channel):
        return pickle.loads(pickle.dumps(channel, pickle.HIGHEST_PROTOCOL))

    def test_roundtrip_preserves_layout_and_payload(self):
        channel = ColumnarChannel.from_rows(
            [(1, 2.0), (3, 4.25), (5, 6.0)], "java"
        )
        rebuilt = self._roundtrip(channel)
        assert type(rebuilt) is ColumnarChannel
        assert [c.typecode for c in rebuilt.columns] == ["q", "d"]
        assert not rebuilt.scalar
        assert rebuilt.producer_platform == "java"
        assert len(rebuilt) == 3
        assert rebuilt.payload_bytes() == channel.payload_bytes()
        assert rebuilt.require_data() == channel.require_data()

    def test_scalar_layout_and_released_cardinality_survive(self):
        channel = ColumnarChannel.from_rows([1.5, 2.5], "spark")
        rebuilt = self._roundtrip(channel)
        assert rebuilt.scalar and rebuilt.width == 1
        assert rebuilt.require_data() == [1.5, 2.5]
        channel.release()
        rebuilt = self._roundtrip(channel)
        assert rebuilt.released and len(rebuilt) == 2
        assert rebuilt.payload_bytes() == 0

    def test_materialised_row_view_is_not_shipped(self):
        channel = ColumnarChannel.from_rows(
            [(i, i * 0.5) for i in range(500)], "java"
        )
        before = len(pickle.dumps(channel, pickle.HIGHEST_PROTOCOL))
        channel.require_data()
        after = len(pickle.dumps(channel, pickle.HIGHEST_PROTOCOL))
        assert after <= before


# ----------------------------------------------------------------------
# fault injection parity
# ----------------------------------------------------------------------
class TestFaultInjectionParity:
    @staticmethod
    def _outcome(execution, parallelism, mode, injector_config,
                 **executor_kw):
        runtime = RuntimeContext(
            failure_injector=FailureInjector(**injector_config)
        )
        try:
            result = Executor(
                parallelism=parallelism, execution_mode=mode,
                max_retries=2, **executor_kw
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
        for position in range(int(total)):
            result = run(
                execution, 4, "process",
                runtime=RuntimeContext(
                    failure_injector=FailureInjector({position: 1})
                ),
            )
            assert result.outputs == reference.outputs, position
            assert result.metrics.retries == 1, position

    @pytest.mark.parametrize("seed", range(4))
    def test_probabilistic_sweep_identical_outcomes(self, seed):
        execution = branching_execution()
        config = dict(rate=0.3, seed=seed)
        sequential = self._outcome(execution, 1, "thread", config)
        inline = self._outcome(execution, 1, "process", config)
        threads = self._outcome(execution, 4, "thread", config)
        processes = self._outcome(execution, 4, "process", config)
        assert processes == sequential == threads == inline

    @pytest.mark.parametrize("seed", range(3))
    def test_straggler_sweep_identical_bill(self, seed):
        execution = branching_execution()
        config = dict(slowdown_rate=0.5, slowdown_ms=7.0, seed=seed)
        sequential = self._outcome(execution, 1, "thread", config)
        inline = self._outcome(execution, 1, "process", config)
        processes = self._outcome(execution, 4, "process", config)
        assert processes == sequential == inline
        assert sequential[0] == "ok"

    def test_exhaustion_error_identical(self):
        """A terminal AtomExhaustedError survives the pickle boundary
        with its message intact and its atom reattached."""
        execution = branching_execution()
        config = dict(failures={0: 99})
        sequential = self._outcome(execution, 1, "thread", config)
        inline = self._outcome(execution, 1, "process", config)
        processes = self._outcome(execution, 4, "process", config)
        assert sequential[0] == "error"
        assert processes == sequential == inline

    def test_exhaustion_atom_reattached(self):
        execution = branching_execution()
        runtime = RuntimeContext(
            failure_injector=FailureInjector({0: 99})
        )
        with pytest.raises(AtomExhaustedError) as failure:
            Executor(
                parallelism=4, execution_mode="process", max_retries=1
            ).execute(execution, runtime)
        assert failure.value.atom is not None
        assert failure.value.atom in execution.atoms

    def test_failover_identical_to_sequential(self):
        results = {}
        for parallelism, mode in ((1, "thread"), (4, "process")):
            ctx = RheemContext(
                failover=True, max_retries=1, parallelism=parallelism,
                execution_mode=mode,
            )
            execution = build_execution(ctx, build_kmeans)
            runtime = RuntimeContext(
                failure_injector=FailureInjector(down_platforms={"java": 1})
            )
            results[mode, parallelism] = ctx.executor.execute(
                execution, runtime
            )
        sequential = results["thread", 1]
        processes = results["process", 4]
        assert processes.single == sequential.single
        assert processes.metrics.virtual_ms == sequential.metrics.virtual_ms
        assert processes.metrics.failovers == sequential.metrics.failovers
        assert processes.metrics.failovers >= 1


# ----------------------------------------------------------------------
# chaos: crashes, cross-mode resume, worker hygiene on abnormal exits
# ----------------------------------------------------------------------
class ChaosHarness:
    """One shared execution, one journal layout, many crash/resume runs."""

    def __init__(self, tmp_path, build=build_kmeans, **executor_kw):
        self.tmp_path = tmp_path
        self.executor_kw = executor_kw
        self.execution = build_execution(RheemContext(), build)
        self.runs = 0

    def run(self, rundir, mode, parallelism=4, crash_at=None,
            crash_mode="after"):
        rundir = os.fspath(rundir)
        os.makedirs(rundir, exist_ok=True)
        catalog = Catalog()
        catalog.register_store(
            LocalFsStore(root=os.path.join(rundir, "ckpt"))
        )
        checkpoint = CheckpointManager(catalog, "localfs", plan_key="chaos")
        journal = RunJournal(
            os.path.join(rundir, "run.journal"), run_id="chaos",
            store=checkpoint,
        )
        tracer = Tracer()
        runtime = RuntimeContext(
            tracer=tracer,
            journal=journal,
            crash_injector=(
                CrashInjector(crash_at, mode=crash_mode)
                if crash_at is not None
                else None
            ),
        )
        executor = Executor(
            parallelism=parallelism, execution_mode=mode, **self.executor_kw
        )
        try:
            result = executor.execute(self.execution, runtime)
            return result, journal, tracer
        finally:
            journal.close()

    def reference(self):
        result, journal, tracer = self.run(
            self.tmp_path / "reference", "thread", parallelism=1
        )
        return {
            "output": result.single,
            "virtual": repr(result.metrics.virtual_ms),
            "ledger": ledger_sequence(result.metrics),
            "spans": span_shape(tracer),
            "records": journal.records_written,
        }

    def crash_then_resume(self, crash_at, crash_mode, mode, resume_mode):
        self.runs += 1
        rundir = self.tmp_path / f"crash-{self.runs}"
        with pytest.raises(SimulatedCrash):
            self.run(rundir, mode, crash_at=crash_at, crash_mode=crash_mode)
        return self.run(rundir, resume_mode)

    def assert_identical(self, reference, result, tracer):
        assert result.single == reference["output"]
        assert repr(result.metrics.virtual_ms) == reference["virtual"]
        assert ledger_sequence(result.metrics) == reference["ledger"]
        assert span_shape(tracer) == reference["spans"]


class TestChaosParity:
    def test_crash_resume_in_process_mode(self, tmp_path):
        harness = ChaosHarness(tmp_path)
        reference = harness.reference()
        assert reference["records"] >= 2
        for crash_at in range(reference["records"]):
            result, journal, tracer = harness.crash_then_resume(
                crash_at, "after", "process", "process"
            )
            harness.assert_identical(reference, result, tracer)
            assert result.metrics.resumes == 1
            assert result.metrics.atoms_restored == crash_at + 1
            assert journal.records_written == reference["records"]

    def test_torn_tail_in_process_mode(self, tmp_path):
        harness = ChaosHarness(tmp_path)
        reference = harness.reference()
        result, _journal, tracer = harness.crash_then_resume(
            0, "torn", "process", "process"
        )
        harness.assert_identical(reference, result, tracer)

    @pytest.mark.parametrize(
        "crash_under,resume_under",
        [("thread", "process"), ("process", "thread")],
    )
    def test_cross_mode_resume(self, tmp_path, crash_under, resume_under):
        """Execution mode is excluded from the config epoch: a journal
        written under one backend resumes under the other."""
        harness = ChaosHarness(tmp_path)
        reference = harness.reference()
        result, _journal, tracer = harness.crash_then_resume(
            0, "after", crash_under, resume_under
        )
        harness.assert_identical(reference, result, tracer)
        assert result.metrics.resumes == 1

    def test_columnar_crash_resume_in_process_mode(self, tmp_path):
        harness = ChaosHarness(tmp_path, columnar=True)
        reference = harness.reference()
        result, _journal, tracer = harness.crash_then_resume(
            reference["records"] - 1, "after", "process", "process"
        )
        harness.assert_identical(reference, result, tracer)


class TestSegmentHygiene:
    def test_plain_columnar_run_leaves_nothing(self):
        execution = branching_execution(numeric=True)
        run(execution, 4, "process", columnar=True)
        assert multiprocessing.active_children() == []

    def test_failover_drain_leaves_nothing(self):
        ctx = RheemContext(
            failover=True, max_retries=1, parallelism=4,
            execution_mode="process", columnar=True,
        )
        execution = build_execution(ctx, build_kmeans)
        runtime = RuntimeContext(
            failure_injector=FailureInjector(down_platforms={"java": 1})
        )
        result = ctx.executor.execute(execution, runtime)
        assert result.metrics.failovers >= 1
        assert multiprocessing.active_children() == []

    def test_terminal_error_leaves_nothing(self):
        execution = branching_execution(numeric=True)
        runtime = RuntimeContext(
            failure_injector=FailureInjector({2: 99})
        )
        with pytest.raises(AtomExhaustedError):
            run(
                execution, 4, "process", runtime=runtime,
                columnar=True, max_retries=1,
            )
        assert multiprocessing.active_children() == []

    def test_deadline_kill_leaves_nothing(self):
        import time

        ctx = RheemContext(
            deadline_ms=80.0, max_retries=0, parallelism=4,
            execution_mode="process", columnar=True,
        )
        execution = build_execution(
            ctx,
            lambda c: c.collection([float(x) for x in range(4)]).map(
                lambda x: time.sleep(0.4) or x
            ),
        )
        with pytest.raises(AtomExhaustedError):
            ctx.executor.execute(execution, RuntimeContext())
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestExecutionModeConfig:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION_MODE", raising=False)
        assert Executor().execution_mode == "thread"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "process")
        assert Executor().execution_mode == "process"
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "junk")
        assert Executor().execution_mode == "thread"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "process")
        assert Executor(execution_mode="thread").execution_mode == "thread"

    def test_explicit_invalid_raises(self):
        with pytest.raises(ValueError, match="execution_mode"):
            Executor(execution_mode="fibers")

    def test_context_passes_mode_through(self):
        ctx = RheemContext(execution_mode="process")
        assert ctx.executor.execution_mode == "process"

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["demo", "--execution-mode", "process"]
        )
        assert args.execution_mode == "process"

    def test_sequential_parallelism_ignores_mode(self):
        """parallelism=1 never builds a pool of either kind."""
        execution = branching_execution()
        base = run(execution, 1, "thread")
        proc = run(execution, 1, "process")
        assert proc.outputs == base.outputs
        assert proc.metrics.virtual_ms == base.metrics.virtual_ms
