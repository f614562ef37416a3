"""Tests for the recoverable journal's payload store and journaled reruns."""

import pytest

from repro import FailureInjector, RheemContext, RunJournal, RuntimeContext
from repro.core.checkpoint import CheckpointManager, plan_fingerprint
from repro.core.listeners import ATOM_STARTED, RecordingListener
from repro.core.logical.operators import CollectSink
from repro.errors import ExecutionError, StorageError
from repro.platforms import JavaPlatform, SparkPlatform
from repro.storage import Catalog, LocalFsStore


@pytest.fixture()
def catalog(tmp_path):
    catalog = Catalog()
    catalog.register_store(LocalFsStore(root=str(tmp_path / "ckpt")))
    return catalog


@pytest.fixture()
def manager(catalog):
    return CheckpointManager(catalog, "localfs", plan_key="test-plan")


@pytest.fixture()
def journaled(manager, tmp_path):
    """``journaled(executor, execution, **runtime_kwargs)``: one run over
    the test's one recoverable journal (same path, same store)."""

    def run(executor, execution, **runtime_kwargs):
        journal = RunJournal(str(tmp_path / "run.journal"), store=manager)
        try:
            return executor.execute(
                execution, RuntimeContext(journal=journal, **runtime_kwargs)
            )
        finally:
            journal.close()

    return run


def build_execution(ctx, *, cross_platform=False):
    """A two-atom plan (via a forced platform split) ending in a sink."""
    dq = ctx.collection(range(50)).map(lambda x: x * 2).filter(
        lambda x: x % 3 == 0
    )
    dq.plan.add(CollectSink(), [dq.operator])
    physical = ctx.app_optimizer.optimize(dq.plan)
    return ctx.task_optimizer.optimize(physical, forced_platform="java")


def build_two_atoms(ctx):
    """Two atoms via a union of two sources, forced to one platform."""
    left = ctx.collection(range(20)).map(lambda x: x + 1)
    dq = left.union(ctx.collection(range(5)))
    dq.plan.add(CollectSink(), [dq.operator])
    physical = ctx.app_optimizer.optimize(dq.plan)
    execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
    assert len(execution.atoms) == 2
    return execution


def build_join_loop_sort(ctx):
    """Four atoms — two tasks, a loop barrier, a final task — so widths
    above 1 dispatch to workers instead of running inline."""
    left = ctx.collection(range(40)).map(lambda x: (x % 7, x))
    right = ctx.collection(range(25)).map(lambda x: (x % 7, x * x))
    dq = (
        left.join(right, lambda p: p[0], lambda p: p[0])
        .map(lambda pair: (pair[0][1], pair[1][1]))
        .repeat(2, lambda s: s.map(lambda p: (p[0], p[1] + 1)))
        .sort(key=lambda p: (p[0], p[1]))
    )
    dq.plan.add(CollectSink(), [dq.operator])
    physical = ctx.app_optimizer.optimize(dq.plan)
    execution = ctx.task_optimizer.optimize(physical)
    assert len(execution.atoms) == 4
    return execution


def started_atoms(executor, run):
    """Run ``run()`` and return the ATOM_STARTED events it emitted — the
    atoms that actually executed (a replayed atom never starts)."""
    listener = RecordingListener()
    executor.add_listener(listener)
    try:
        result = run()
    finally:
        executor.listeners.remove(listener)
    return result, [e for e in listener.events if e.kind == ATOM_STARTED]


def ledger_sequence(metrics):
    return [
        (e.label, repr(e.ms), e.platform, e.atom_id)
        for e in metrics.ledger.entries
    ]


class TestCheckpointManager:
    def test_save_load_roundtrip(self, manager):
        manager.save(0, 0, [1, "two", (3,)])
        restored = manager.load(0, 0)
        assert restored is not None
        data, cost = restored
        assert data == [1, "two", (3,)]
        assert cost >= 0

    def test_missing_checkpoint_is_none(self, manager):
        assert manager.load(7, 0) is None

    def test_clear_scoped_to_plan_key(self, catalog):
        first = CheckpointManager(catalog, "localfs", plan_key="a")
        second = CheckpointManager(catalog, "localfs", plan_key="b")
        first.save(0, 0, [1])
        second.save(0, 0, [2])
        assert first.clear() == 1
        assert second.load(0, 0)[0] == [2]

    def test_empty_plan_key_rejected(self, catalog):
        with pytest.raises(StorageError):
            CheckpointManager(catalog, "localfs", plan_key="")


class TestResumableExecution:
    """A rerun over a recoverable journal is a resume: what finished is
    replayed from the journal and its store, never executed again."""

    def test_second_run_skips_everything(self, journaled):
        ctx = RheemContext()
        execution = build_two_atoms(ctx)
        first = journaled(ctx.executor, execution)
        second, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, execution)
        )
        assert second.single == first.single
        assert started == []
        assert second.metrics.resumes == 1
        assert second.metrics.atoms_restored == len(execution.atoms)

    def test_restore_charges_virtual_time(self, journaled):
        """A replayed run bills the original's virtual time entry for
        entry — the ``checkpoint.save`` charges included — and nothing
        on top: there is no separate restore tariff."""
        ctx = RheemContext()
        execution = build_two_atoms(ctx)
        first = journaled(ctx.executor, execution)
        second = journaled(ctx.executor, execution)
        assert first.metrics.by_label_prefix("checkpoint.save") > 0
        assert repr(second.metrics.virtual_ms) == repr(first.metrics.virtual_ms)
        assert ledger_sequence(second.metrics) == ledger_sequence(first.metrics)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_completed_run_reruns_identically_at_width_four(
        self, journaled, mode
    ):
        ctx = RheemContext(parallelism=4, execution_mode=mode)
        execution = build_join_loop_sort(ctx)
        first = journaled(ctx.executor, execution)
        second, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, execution)
        )
        assert started == []
        assert second.single == first.single
        assert repr(second.metrics.virtual_ms) == repr(first.metrics.virtual_ms)
        assert ledger_sequence(second.metrics) == ledger_sequence(first.metrics)
        assert second.metrics.atoms_restored == len(execution.atoms)

    def test_failure_then_resume(self, manager, journaled):
        """An execution that dies mid-plan resumes past the finished atoms."""
        ctx = RheemContext(platforms=[JavaPlatform(), SparkPlatform()])
        execution = build_two_atoms(ctx)

        # Fail the second atom unrecoverably on the first execution.
        with pytest.raises(ExecutionError):
            journaled(
                ctx.executor, execution,
                failure_injector=FailureInjector({1: 10}),
            )
        assert manager.saves == 1  # first atom was persisted

        resumed, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, execution)
        )
        assert resumed.metrics.atoms_restored == 1
        assert [e.details["atom"] for e in started] == [execution.atoms[1].id]
        reference_ctx = RheemContext(platforms=[JavaPlatform()])
        ref = (
            reference_ctx.collection(range(20)).map(lambda x: x + 1)
            .union(reference_ctx.collection(range(5)))
            .collect(platform="java")
        )
        assert sorted(resumed.single) == sorted(ref)

        # A rerun of the now-complete run replays the whole plan; the
        # count is this execution's, not a running total over resumes.
        again = journaled(ctx.executor, execution)
        assert again.metrics.atoms_restored == len(execution.atoms)
        assert again.metrics.resumes == 1

    def test_loop_atom_checkpointed_as_a_whole(self, journaled):
        ctx = RheemContext()
        calls = []
        dq = ctx.collection([0]).repeat(
            5, lambda s: s.map(lambda x: calls.append(x) or x + 1)
        )
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        execution = ctx.task_optimizer.optimize(physical, forced_platform="java")
        first = journaled(ctx.executor, execution)
        assert len(calls) == 5
        second, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, execution)
        )
        assert first.single == second.single == [5]
        # The loop replayed as one record: no body atom ran again.
        assert started == [] and len(calls) == 5
        assert second.metrics.loop_iterations == first.metrics.loop_iterations

    def test_no_checkpoint_manager_means_no_saves(self, catalog, tmp_path):
        """Neither an un-journaled run nor an audit journal (no store)
        writes payloads — and an audit journal never resumes."""
        ctx = RheemContext()
        execution = build_execution(ctx)
        ctx.executor.execute(execution, RuntimeContext())
        for _ in range(2):
            journal = RunJournal(str(tmp_path / "audit.journal"))
            result, started = started_atoms(
                ctx.executor,
                lambda: ctx.executor.execute(
                    execution, RuntimeContext(journal=journal)
                ),
            )
            journal.close()
            assert len(started) == len(execution.atoms)
            assert result.metrics.resumes == 0
        assert not [
            n for n in catalog.dataset_names if n.startswith("__ckpt__")
        ]


class TestPlanFingerprint:
    def test_identical_plans_match_across_rebuilds(self):
        """The fingerprint is structural: rebuilding the same plan (with
        fresh, process-global operator ids) yields the same digest."""
        ctx = RheemContext()
        first = plan_fingerprint(build_execution(ctx))
        second = plan_fingerprint(build_execution(ctx))
        assert first == second

    def test_different_plans_differ(self):
        ctx = RheemContext()
        base = plan_fingerprint(build_execution(ctx))

        dq = ctx.collection(range(50)).map(lambda x: x * 2)  # no filter
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        other = ctx.task_optimizer.optimize(physical, forced_platform="java")
        assert plan_fingerprint(other) != base

    def test_platform_assignment_included(self):
        ctx = RheemContext()
        dq = ctx.collection(range(50)).map(lambda x: x * 2)
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        java = ctx.task_optimizer.optimize(physical, forced_platform="java")
        spark = ctx.task_optimizer.optimize(physical, forced_platform="spark")
        assert plan_fingerprint(java) != plan_fingerprint(spark)

    def test_loop_structure_included(self):
        def looped(times):
            ctx = RheemContext()
            dq = ctx.collection([0]).repeat(
                times, lambda s: s.map(lambda x: x + 1)
            )
            dq.plan.add(CollectSink(), [dq.operator])
            physical = ctx.app_optimizer.optimize(dq.plan)
            return ctx.task_optimizer.optimize(
                physical, forced_platform="java"
            )

        assert plan_fingerprint(looped(3)) != plan_fingerprint(looped(4))


class TestStalenessGuard:
    """The journal header is the one staleness guard: it alone decides
    whether the store's positional payloads belong to the plan."""

    #: a payload no atom of the test plans would write
    STRAY = (7, 0)

    def _run_over_header(self, manager, tmp_path, **overrides):
        """Plant a stray payload and a journal whose header is the
        plan's own, edited by ``overrides`` (None drops the field);
        run; report whether the stray payload survived."""
        ctx = RheemContext()
        execution = build_execution(ctx)
        journal = RunJournal(str(tmp_path / "run.journal"), store=manager)
        header = journal.header(
            fingerprint=plan_fingerprint(execution),
            epoch=ctx.executor._config_epoch(),
        )
        for field, value in overrides.items():
            if value is None:
                del header[field]
            else:
                header[field] = value
        journal.begin(header)
        journal.close()
        manager.save(*self.STRAY, [1, 2])

        result = ctx.executor.execute(execution, RuntimeContext(journal=journal))
        journal.close()
        assert result.single == [x * 2 for x in range(50) if (x * 2) % 3 == 0]
        fresh_header, _records, _torn = journal.load()
        assert fresh_header["fingerprint"] == plan_fingerprint(execution)
        assert fresh_header["epoch"] == ctx.executor._config_epoch()
        return manager.load(*self.STRAY) is not None

    def test_matching_fingerprint_keeps_saves(self, manager, tmp_path):
        assert self._run_over_header(manager, tmp_path) is True
        # Headers written before the informational keys were dropped
        # carry them still; only fingerprint and epoch are compared.
        assert self._run_over_header(
            manager, tmp_path, parallelism=4, execution_mode="process",
            workload={"kind": "demo"},
        ) is True

    def test_mismatch_clears_stale_saves(self, manager, tmp_path):
        assert self._run_over_header(
            manager, tmp_path, fingerprint="old-plan-shape"
        ) is False

    def test_executor_clears_checkpoints_of_changed_plan(
        self, manager, journaled
    ):
        """Rerunning a *different* plan under the same journal and key
        must not restore the old plan's atoms positionally."""
        ctx = RheemContext()
        execution = build_execution(ctx)
        journaled(ctx.executor, execution)
        assert manager.saves >= 1

        dq = ctx.collection(range(50)).map(lambda x: x * 3).filter(
            lambda x: x % 2 == 0
        )
        dq.plan.add(CollectSink(), [dq.operator])
        physical = ctx.app_optimizer.optimize(dq.plan)
        changed = ctx.task_optimizer.optimize(
            physical, forced_platform="java"
        )
        result, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, changed)
        )
        assert manager.restores == 0
        assert result.metrics.resumes == 0
        assert len(started) == len(changed.atoms)
        assert result.single == [
            x * 3 for x in range(50) if (x * 3) % 2 == 0
        ]

    def test_executor_reuses_saves_for_same_plan_shape(
        self, manager, journaled
    ):
        ctx = RheemContext()
        execution = build_execution(ctx)
        journaled(ctx.executor, execution)
        saves = manager.saves
        rebuilt = build_execution(ctx)  # same shape, fresh operator ids
        second = journaled(ctx.executor, rebuilt)
        assert manager.saves == saves
        assert second.metrics.atoms_restored == len(rebuilt.atoms)

    def test_same_fingerprint_different_epoch_clears(self, manager, tmp_path):
        """A payload written under one execution config (say
        ``columnar=1``) must not be restored into a run with another —
        conversion charges and channel shapes would not line up."""
        assert self._run_over_header(
            manager, tmp_path, epoch="epoch-a"
        ) is False

    def test_epochless_record_stale_against_epoch_aware_check(
        self, manager, tmp_path
    ):
        # A pre-epoch header is unverifiable against a config epoch:
        # treated as stale rather than trusted.
        assert self._run_over_header(manager, tmp_path, epoch=None) is False

    def test_executor_clears_checkpoints_on_config_epoch_flip(
        self, manager, journaled, monkeypatch
    ):
        ctx = RheemContext()
        execution = build_execution(ctx)
        first = journaled(ctx.executor, execution)
        assert manager.saves >= 1

        monkeypatch.setattr(
            ctx.executor, "columnar", not ctx.executor.columnar
        )
        second, started = started_atoms(
            ctx.executor, lambda: journaled(ctx.executor, execution)
        )
        assert manager.restores == 0
        assert second.metrics.resumes == 0
        assert len(started) == len(execution.atoms)
        assert second.single == first.single


class TestCorruptionDetection:
    def test_crc_mismatch_detected_on_load(self, manager):
        manager.save(0, 0, [1, 2, 3])
        # Tamper with the stored payload while keeping the stale guard.
        name = manager._dataset(0, 0)
        stored, _ = manager.catalog.read_dataset_with_cost(name)
        tampered = [stored[0]] + [999]
        manager.catalog.drop_dataset(name)
        manager.catalog.write_dataset(name, tampered, "localfs")

        with pytest.warns(RuntimeWarning, match="failed CRC validation"):
            assert manager.load(0, 0) is None
        assert manager.corrupt_detected == 1
        assert manager.restores == 0

    def test_guardless_payload_rejected(self, manager):
        # A payload without the CRC guard element is unverifiable.
        name = manager._dataset(0, 1)
        manager.catalog.write_dataset(name, [1, 2, 3], "localfs")
        with pytest.warns(RuntimeWarning, match="failed CRC validation"):
            assert manager.load(0, 1) is None
        assert manager.corrupt_detected == 1

    def test_executor_recomputes_past_corrupt_checkpoint(
        self, manager, journaled
    ):
        """End-to-end: a corrupted payload ends the replayable prefix
        there and degrades to a recompute from that atom on — never a
        crash, never a wrong answer."""
        ctx = RheemContext()
        execution = build_two_atoms(ctx)
        first = journaled(ctx.executor, execution)
        name = manager._dataset(1, 0)
        stored, _ = manager.catalog.read_dataset_with_cost(name)
        manager.catalog.drop_dataset(name)
        manager.catalog.write_dataset(
            name, [stored[0], "bogus"], "localfs"
        )

        with pytest.warns(RuntimeWarning, match="failed CRC validation"):
            second, started = started_atoms(
                ctx.executor, lambda: journaled(ctx.executor, execution)
            )
        assert second.single == first.single
        assert manager.corrupt_detected == 1
        assert second.metrics.atoms_restored == 1  # the intact prefix
        assert [e.details["atom"] for e in started] == [execution.atoms[1].id]
        assert ledger_sequence(second.metrics) == ledger_sequence(first.metrics)

    def test_rediscovery_skips_unreadable_blob(self, catalog, tmp_path):
        """A blob that bit-rotted into unpicklability is ignored by
        rediscovery (fresh-process path) instead of aborting it."""
        manager = CheckpointManager(catalog, "localfs", plan_key="rot")
        manager.save(0, 0, [1, 2])
        store = catalog.store("localfs")
        path = manager._dataset(0, 0) + "/part-00000"
        blob, _ = store.get_blob(path)
        store.put_blob(path, b"\x80" + blob[:4])

        fresh_catalog = Catalog()
        fresh_catalog.register_store(LocalFsStore(root=str(tmp_path / "ckpt")))
        fresh = CheckpointManager(fresh_catalog, "localfs", plan_key="rot")
        assert fresh.load(0, 0) is None  # not adopted, not trusted
