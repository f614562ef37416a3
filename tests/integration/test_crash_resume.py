"""Crash → resume → byte-identical: the recovery invariant, end to end.

Every test follows the chaos recipe the journal exists for: run a plan
uninterrupted as the reference, re-run it with a seeded
:class:`CrashInjector` hard-aborting the process at a journal commit,
then resume from the surviving journal + checkpoints and require the
final outputs, ``virtual_ms``, the full ledger entry sequence and the
span shape to be byte-identical to the reference — at parallelism 1 and
4, for every crash point and durability mode (before / after / torn).
"""

import os

import pytest

from repro import (
    CheckpointManager,
    CrashInjector,
    RheemContext,
    RunJournal,
    RuntimeContext,
    SimulatedCrash,
)
from repro.core.listeners import ATOM_TIMED_OUT, RUN_RESUMED, RecordingListener
from repro.core.logical.operators import CollectSink
from repro.core.observability.spans import Tracer
from repro.core.resilience import FailureInjector
from repro.errors import AtomExhaustedError
from repro.storage import LocalFsStore
from repro.storage.catalog import Catalog

WORDS = (
    "the road to freedom in big data analytics "
    "the freedom to choose a platform the road goes on"
).split()


# ----------------------------------------------------------------------
# plan zoo
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
    # 1-d k-means flavoured loop: assign points to the nearest of two
    # evolving centroids, recompute them, three rounds.
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


PLANS = {
    "wordcount": build_wordcount,
    "join": build_join,
    "kmeans": build_kmeans,
    "pagerank": build_pagerank,
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def build_execution(ctx, build):
    handle = build(ctx)
    sink = CollectSink()
    handle.plan.add(sink, [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    return ctx.task_optimizer.optimize(physical)


def normalized_spans(tracer):
    """Span tree shape + virtual values, excluding wall clocks and the
    scheduler's nondeterministic worker/slot stamps."""
    index = {span.span_id: i for i, span in enumerate(tracer.spans)}
    out = []
    for span in tracer.spans:
        attrs = {
            k: v
            for k, v in span.attributes.items()
            if k not in ("worker", "slot", "wall_ms")
        }
        events = [
            (
                e.name,
                repr(e.virtual_ms),
                sorted(
                    (k, v) for k, v in e.attributes.items() if k != "wall_ms"
                ),
            )
            for e in span.events
        ]
        out.append(
            (
                span.name,
                span.kind,
                index.get(span.parent_id, -1),
                repr(span.v_start),
                repr(span.v_end),
                repr(span.v_self),
                sorted(attrs.items(), key=repr),
                events,
            )
        )
    return out


def ledger_sequence(metrics):
    return [
        (e.label, repr(e.ms), e.platform, e.atom_id)
        for e in metrics.ledger.entries
    ]


class Harness:
    """One plan, one directory layout, many crash/resume runs."""

    def __init__(self, tmp_path, build, parallelism=1, faults=None):
        self.tmp_path = tmp_path
        self.faults = faults
        self.ctx = RheemContext(parallelism=parallelism)
        self.execution = build_execution(self.ctx, build)
        self.runs = 0

    def run(self, rundir, crash_at=None, mode="after", listener=None):
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
                CrashInjector(crash_at, mode=mode)
                if crash_at is not None
                else None
            ),
            failure_injector=(
                FailureInjector(dict(self.faults)) if self.faults else None
            ),
        )
        if listener is not None:
            self.ctx.executor.listeners.append(listener)
        try:
            result = self.ctx.executor.execute(self.execution, runtime)
            return result, journal, tracer, checkpoint
        finally:
            if listener is not None:
                self.ctx.executor.listeners.remove(listener)
            journal.close()

    def reference(self):
        result, journal, tracer, _ = self.run(self.tmp_path / "reference")
        return {
            "output": result.single,
            "virtual": repr(result.metrics.virtual_ms),
            "ledger": ledger_sequence(result.metrics),
            "spans": normalized_spans(tracer),
            "records": journal.records_written,
            "retries": result.metrics.retries,
        }

    def crash_then_resume(self, crash_at, mode, listener=None):
        self.runs += 1
        rundir = self.tmp_path / f"crash-{self.runs}"
        with pytest.raises(SimulatedCrash):
            self.run(rundir, crash_at=crash_at, mode=mode)
        return self.run(rundir, listener=listener)

    def assert_identical(self, reference, result, tracer):
        assert result.single == reference["output"]
        assert repr(result.metrics.virtual_ms) == reference["virtual"]
        assert ledger_sequence(result.metrics) == reference["ledger"]
        assert normalized_spans(tracer) == reference["spans"]


# ----------------------------------------------------------------------
# the sweep: every plan x every crash point x every mode, p=1 and p=4
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_crash_resume_byte_identical(tmp_path, plan_name, parallelism):
    harness = Harness(tmp_path, PLANS[plan_name], parallelism=parallelism)
    reference = harness.reference()
    assert reference["records"] >= 1

    for crash_at in range(reference["records"]):
        for mode in CrashInjector.MODES:
            result, journal, tracer, _ = harness.crash_then_resume(
                crash_at, mode
            )
            harness.assert_identical(reference, result, tracer)
            if mode != "before":
                # the journaled prefix was actually replayed, not re-run
                assert result.metrics.resumes == 1
                assert result.metrics.atoms_restored == crash_at + 1
            # after the resumed run the journal holds the full history
            assert journal.records_written == reference["records"]


def test_resume_emits_run_resumed_and_counts_torn(tmp_path):
    harness = Harness(tmp_path, build_join)
    reference = harness.reference()
    listener = RecordingListener()
    result, _journal, tracer, _ = harness.crash_then_resume(
        0, "torn", listener=listener
    )
    harness.assert_identical(reference, result, tracer)
    resumed = [e for e in listener.events if e.kind == RUN_RESUMED]
    assert len(resumed) == 1
    assert resumed[0].details["atoms_restored"] == 1
    assert resumed[0].details["torn_records"] == 1
    torn_counter = result.metrics.registry.counter(
        "journal_torn_records", ""
    ).value()
    assert torn_counter == 1


def _crash_then_corrupt(harness, reference, rundir, corruptor):
    with pytest.raises(SimulatedCrash):
        harness.run(rundir, crash_at=reference["records"] - 1, mode="after")
    victim = next(
        path
        for path in sorted((rundir / "ckpt").iterdir())
        if "atom-0000" in path.name
    )
    corruptor(victim)


def test_bitrotted_checkpoint_degrades_to_recompute(tmp_path):
    # Raw bit rot: the blob no longer even unpickles.  The trusted
    # prefix ends there; the run recomputes and stays byte-identical.
    harness = Harness(tmp_path, build_join)
    reference = harness.reference()
    assert reference["records"] >= 2

    rundir = tmp_path / "bitrot"
    _crash_then_corrupt(
        harness,
        reference,
        rundir,
        lambda victim: victim.write_bytes(
            b"\x00rot\x00" + victim.read_bytes()[5:]
        ),
    )
    result, _journal, tracer, _ = harness.run(rundir)
    harness.assert_identical(reference, result, tracer)
    assert result.metrics.resumes == 0


def test_crc_mismatch_checkpoint_warns_and_recomputes(tmp_path):
    # Decodable-but-wrong payload: only the CRC guard can catch this.
    from repro.storage.formats import PickleFormat

    harness = Harness(tmp_path, build_join)
    reference = harness.reference()

    rundir = tmp_path / "crc-mismatch"
    _crash_then_corrupt(
        harness,
        reference,
        rundir,
        lambda victim: victim.write_bytes(
            PickleFormat().encode(None, [("__ckpt_crc__", 1), "bogus"])
        ),
    )
    with pytest.warns(RuntimeWarning, match="failed CRC validation"):
        result, _journal, tracer, checkpoint = harness.run(rundir)
    harness.assert_identical(reference, result, tracer)
    assert result.metrics.resumes == 0
    assert checkpoint.corrupt_detected >= 1


def test_resume_with_mismatched_epoch_starts_fresh(tmp_path, monkeypatch):
    harness = Harness(tmp_path, build_join)
    reference = harness.reference()
    rundir = tmp_path / "epoch-flip"
    with pytest.raises(SimulatedCrash):
        harness.run(rundir, crash_at=0, mode="after")
    # a columnar-transport change between crash and resume changes the
    # config epoch: the journal must not be replayed
    executor = harness.ctx.executor
    monkeypatch.setattr(executor, "columnar", not executor.columnar)
    result, _journal, _tracer, _ = harness.run(rundir)
    assert result.metrics.resumes == 0
    assert result.single == reference["output"]


def test_resumed_run_injects_remaining_faults(tmp_path):
    # Seeded fault at the *last* atom ordinal; crash before it fires.
    harness = Harness(tmp_path, build_join, faults={1: 1})
    reference = harness.reference()
    assert reference["retries"] >= 1

    result, _journal, tracer, _ = harness.crash_then_resume(0, "after")
    harness.assert_identical(reference, result, tracer)
    assert result.metrics.resumes == 1
    # the fault beyond the crash point fired exactly once on resume,
    # never double-injected: total retries match the reference
    assert result.metrics.retries == reference["retries"]


# ----------------------------------------------------------------------
# per-atom deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_overrun_is_charged_counted_and_escalated(self):
        import time

        ctx = RheemContext(deadline_ms=80.0, max_retries=0)
        listener = RecordingListener()
        ctx.executor.listeners.append(listener)
        with pytest.raises(AtomExhaustedError):
            ctx.collection(range(4)).map(
                lambda x: time.sleep(0.4) or x
            ).collect()
        timeouts = [e for e in listener.events if e.kind == ATOM_TIMED_OUT]
        assert timeouts and timeouts[0].details["deadline_ms"] == 80.0

    def test_fast_atoms_unaffected(self):
        ctx = RheemContext(deadline_ms=60_000.0)
        reference = RheemContext()
        data = list(range(30))
        build = lambda c: (  # noqa: E731
            c.collection(data).map(lambda x: x * 2).filter(lambda x: x % 3)
        )
        assert build(ctx).collect() == build(reference).collect()

    def test_deadline_kill_counted_in_registry(self):
        import time

        tracer = Tracer()
        ctx = RheemContext(deadline_ms=80.0, max_retries=0, tracer=tracer)
        execution = build_execution(
            ctx,
            lambda c: c.collection(range(4)).map(
                lambda x: time.sleep(0.4) or x
            ),
        )
        with pytest.raises(AtomExhaustedError):
            ctx.executor.execute(execution, RuntimeContext(tracer=tracer))
        # metrics share the tracer's registry, so the kill count
        # survives the failed run
        assert tracer.registry.counter("deadline_kills", "").value() >= 1
