"""The three batch workloads: ``etl_batch``, ``iter_apps``, ``plan_heavy``.

A workload is a fixed-order list of :class:`Query`; one *op* is one round
of them.  Each query has a system side (public ``repro`` API only, run as
a user gets it) and a reference side (``reference.py``) that is both the
oracle and the framework-tax denominator.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time
import tracemalloc
from contextlib import ExitStack, nullcontext
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from benchmarks.e2e import datagen, reference, stats

_NO_SPAN = nullcontext()


def no_span(name: str):
    """The untraced stand-in for :meth:`SpanLog.span`."""
    return _NO_SPAN


class Query(NamedTuple):
    name: str
    #: run(span) -> raw system result; ``span`` is SpanLog.span or no_span
    run: Callable[[Callable], Any]
    #: reference() -> expected answer, in the oracle's form
    reference: Callable[[], Any]
    #: canon(raw) -> the system result in the oracle's form (untimed)
    canon: Callable[[Any], Any]
    #: (context, build() -> DataQuanta) for queries written against the
    #: fluent API; None for the ``apps`` templates, which build inside
    plan: "tuple | None" = None


def direct(name, ctx, build, reference_fn, canon) -> Query:
    """A query written against the fluent API: build the chain, collect."""

    def run(span):
        with span("context.build"):
            handle = build()
        with span("context.collect"):
            return handle.collect()

    return Query(name, run, reference_fn, canon, (ctx, build))


class Workload(NamedTuple):
    name: str
    queries: list
    #: every RheemContext the queries execute through (for the proxies)
    contexts: list


# ----------------------------------------------------------------------
# etl_batch
# ----------------------------------------------------------------------
def _pair(word):
    return (word, 1)


def _add_counts(a, b):
    return (a[0], a[1] + b[1])


_KEY = itemgetter(0)


def _xplat_context(**ctx_kwargs):
    """ABL2's cost models: relational work cheap on postgres, UDF work
    cheap in-process, cheap movement — the optimizer mixes platforms."""
    from repro import RheemContext
    from repro.core.optimizer.cost import MovementCostModel
    from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform
    from repro.platforms.java.platform import JavaCostModel
    from repro.platforms.postgres.platform import PostgresCostModel

    return RheemContext(
        platforms=[
            JavaPlatform(cost_model=JavaCostModel(startup=5.0)),
            PostgresPlatform(cost_model=PostgresCostModel(
                startup=5.0, relational_unit_ms=0.00001, udf_unit_ms=0.05)),
            SparkPlatform(),
        ],
        movement=MovementCostModel(per_transfer_ms=0.5, per_quantum_ms=0.0005),
        **ctx_kwargs,
    )


def etl_batch(inputs: dict, **ctx_kwargs) -> Workload:
    from repro import CostHints, RheemContext
    from repro.core.physical.columnar import ColumnPredicate, ColumnwiseReduce
    from repro.core.types import Schema

    ctx = RheemContext(**ctx_kwargs)
    xctx = _xplat_context(**ctx_kwargs)
    lines, facts = inputs["lines"], inputs["facts"]
    dim1, dim2, dim3 = inputs["dim1"], inputs["dim2"], inputs["dim3"]
    scan_rows, threshold = inputs["scan_rows"], inputs["scan_threshold"]
    floor = inputs["pressure_floor"]
    records = inputs.get("records")
    if records is None:  # built once per input set, shared by the mode rows
        schema = Schema(["well", "depth", "pressure"])
        records = [schema.record(*row) for row in inputs["measurements"]]
        inputs["records"] = records

    def wordcount():
        return (
            ctx.collection(lines).flat_map(str.split).map(_pair)
            .reduce_by(key=_KEY, reducer=_add_counts)
        )

    def star_join():
        return (
            ctx.collection(facts)
            .join(ctx.collection(dim1), itemgetter(1), _KEY)
            .map(lambda p: (p[0][2], p[0][3], p[0][4], p[1][1]))
            .join(ctx.collection(dim2), _KEY, _KEY)
            .map(lambda p: (p[0][1], p[0][2], p[0][3], p[1][1]))
            .join(ctx.collection(dim3), _KEY, _KEY)
            .map(lambda p: ((p[0][2], p[0][3], p[1][1]), p[0][1]))
            .reduce_by(key=_KEY, reducer=_add_counts)
        )

    keep = ColumnPredicate(0, threshold.__gt__)

    def numeric_scan():
        return (
            ctx.collection(scan_rows).filter(keep).map(itemgetter(3, 2))
            .reduce_by(key=_KEY, reducer=ColumnwiseReduce(("key", "sum")))
        )

    def xplat_pipeline():
        return (
            xctx.collection(records)
            .filter(lambda r: r["pressure"] > floor,
                    hints=CostHints(selectivity=0.8))
            .group_by(lambda r: r["well"], hints=CostHints(key_fanout=0.001))
            .map(
                lambda kv: (kv[0], sum(r["pressure"] for r in kv[1]) / len(kv[1])),
                name="featurize", hints=CostHints(udf_load=2000.0),
            )
            .sort(_KEY)
        )

    queries = [
        direct("wordcount", ctx, wordcount,
               lambda: reference.wordcount(lines), dict),
        direct("star_join", ctx, star_join,
               lambda: reference.star_join(facts, dim1, dim2, dim3), dict),
        direct("numeric_scan", ctx, numeric_scan,
               lambda: reference.numeric_scan(scan_rows, threshold), dict),
        direct("xplat_pipeline", xctx, xplat_pipeline,
               lambda: reference.xplat_pipeline(inputs["measurements"], floor),
               list),
    ]
    return Workload("etl_batch", queries, [ctx, xctx])


# ----------------------------------------------------------------------
# iter_apps
# ----------------------------------------------------------------------
def _cells(violations) -> list:
    return sorted(
        tuple((cell.tid, cell.field, cell.value) for cell in violation.cells)
        for violation in violations
    )


def iter_apps(inputs: dict, **ctx_kwargs) -> Workload:
    from repro import RheemContext
    from repro.apps.cleaning import BigDansing, DCRule, FDRule, Predicate
    from repro.apps.graph.pagerank import PageRank
    from repro.apps.ml.svm import SVMClassifier
    from repro.core.types import Schema

    ctx = RheemContext(**ctx_kwargs)
    cleaner = BigDansing(ctx)
    schema = Schema(list(datagen.TAX_FIELDS))
    tax_records = [schema.record(*row) for row in inputs["tax_rows"]]
    fd = FDRule("fd-zip-city", lhs=["zipcode"], rhs=["city"])
    dc = DCRule("dc-salary-tax", [
        Predicate("state", "==", "state"),
        Predicate("salary", ">", "salary"),
        Predicate("tax", "<", "tax"),
    ])
    points, edges = inputs["points"], inputs["edges"]
    svm_iters, pr_iters = inputs["svm_iters"], inputs["pr_iters"]
    damping = inputs["damping"]

    def svm_fit(span):
        with span("apps.call"):
            model = SVMClassifier(iterations=svm_iters).fit(ctx, points)
        return (model.weights, model.bias)

    def detect(rule):
        def run(span):
            with span("apps.call"):
                return cleaner.detect(tax_records, rule)[0]
        return run

    def pagerank(span):
        with span("apps.call"):
            return PageRank(iterations=pr_iters, damping=damping).run(ctx, edges)

    queries = [
        Query("svm_fit", svm_fit,
              lambda: reference.svm_fit(points, svm_iters), tuple),
        Query("fd_detect", detect(fd),
              lambda: reference.fd_detect(inputs["tax_rows"]), _cells),
        Query("dc_detect", detect(dc),
              lambda: reference.dc_detect(inputs["tax_rows"]), _cells),
        Query("pagerank", pagerank,
              lambda: reference.pagerank(edges, pr_iters, damping), dict),
    ]
    return Workload("iter_apps", queries, [ctx])


# ----------------------------------------------------------------------
# plan_heavy
# ----------------------------------------------------------------------
def _chain_udf(kind: str, param: int):
    if kind == "map":
        return lambda x: x + param
    return lambda x: x % param != 0


def plan_heavy(inputs: dict, **ctx_kwargs) -> Workload:
    from repro import RheemContext
    from repro.core.serving.workloads import kmeans

    ctx = RheemContext(**ctx_kwargs)
    ints, sources, spec = inputs["ints"], inputs["sources"], inputs["kmeans"]

    def chain_query(length: int) -> Query:
        steps = inputs["chains"][length]
        udfs = [(kind, _chain_udf(kind, param)) for kind, param in steps]

        def build():
            handle = ctx.collection(ints)
            for kind, udf in udfs:
                handle = handle.map(udf) if kind == "map" else handle.filter(udf)
            return handle

        return direct(f"chain{length}", ctx, build,
                      lambda: sorted(reference.chain(ints, steps)), sorted)

    def join_tree():
        handle = ctx.collection(sources[0])
        for source in sources[1:]:
            handle = handle.join(ctx.collection(source), _KEY, _KEY).map(
                lambda p: (p[0][0], p[0][1] + p[1][1])
            )
        return (
            handle.map(lambda kv: (kv[0] % 5, kv[1]))
            .reduce_by(key=_KEY, reducer=_add_counts)
            .sort(_KEY)
        )

    queries = [chain_query(length) for length in sorted(inputs["chains"])]
    queries += [
        direct("join_tree", ctx, join_tree,
               lambda: reference.join_tree(sources), list),
        direct("kmeans_loop", ctx, lambda: kmeans(ctx, **spec),
               lambda: reference.serve_kmeans(**spec), list),
    ]
    return Workload("plan_heavy", queries, [ctx])


BUILDERS = {
    "etl_batch": (datagen.etl_inputs, etl_batch),
    "iter_apps": (datagen.iter_inputs, iter_apps),
    "plan_heavy": (datagen.plan_inputs, plan_heavy),
}


# ----------------------------------------------------------------------
# running rounds
# ----------------------------------------------------------------------
class Round(NamedTuple):
    wall_ms: float
    #: per-query wall, in query order
    query_ms: list
    #: raw system results, in query order (checked outside the timing)
    results: list


def run_round(workload: Workload, span=no_span) -> Round:
    """One op: every query once, in order; only query bodies are timed."""
    query_ms, results = [], []
    for query in workload.queries:
        with span(f"query.{query.name}"):
            started = time.perf_counter()
            results.append(query.run(span))
            query_ms.append((time.perf_counter() - started) * 1000.0)
    return Round(sum(query_ms), query_ms, results)


def run_reference(workload: Workload) -> Round:
    query_ms, results = [], []
    for query in workload.queries:
        started = time.perf_counter()
        results.append(query.reference())
        query_ms.append((time.perf_counter() - started) * 1000.0)
    return Round(sum(query_ms), query_ms, results)


def check(workload: Workload, system: Round, expected: list) -> bool:
    """Does every query of the round agree with the oracle?"""
    try:
        return all(
            reference.same(query.canon(raw), want)
            for query, raw, want in zip(workload.queries, system.results, expected)
        )
    except (TypeError, ValueError, KeyError, AttributeError):
        return False  # an answer of the wrong shape is a wrong answer


# ----------------------------------------------------------------------
# set-up and the two passes
# ----------------------------------------------------------------------
class Prepared(NamedTuple):
    workload: Workload
    inputs: dict
    #: oracle answers, in query order
    expected: list


def prepare(name: str, seed: int, smoke: bool) -> Prepared:
    """One set-up: inputs from the seed, contexts, reference answers and
    one untimed warm-up round."""
    generate, build = BUILDERS[name]
    inputs = generate(seed, datagen.sizes(name, smoke))
    workload = build(inputs)
    expected = run_reference(workload).results
    run_round(workload)
    return Prepared(workload, inputs, expected)


def _attempt(workload: Workload, span=no_span):
    """A round, or None when the system raised (a failed op)."""
    try:
        return run_round(workload, span)
    except Exception:  # noqa: BLE001 - any failure of the system is a failed op
        return None


def measure(prepared: Prepared, seconds: float) -> dict:
    """The untraced window: closed loop, one client, system and reference
    interleaved round by round so both see the same machine noise."""
    workload, expected = prepared.workload, prepared.expected
    start = time.perf_counter()
    end = start + seconds
    #: (stamp, wall ms or None when the op failed, busy ms, reference ms)
    rounds = []
    while time.perf_counter() < end or len(rounds) < 3:
        system_first = len(rounds) % 2 == 0
        if not system_first:
            ref_ms = run_reference(workload).wall_ms
        began = time.perf_counter()
        system = _attempt(workload)
        busy_ms = (time.perf_counter() - began) * 1000.0
        if system_first:
            ref_ms = run_reference(workload).wall_ms
        good = system is not None and check(workload, system, expected)
        rounds.append((time.perf_counter(), system.wall_ms if good else None,
                       busy_ms, ref_ms))
    end = max(end, time.perf_counter())

    def values(part: list) -> dict:
        good = [(wall, ref) for _, wall, _, ref in part if wall is not None]
        if not good:
            return {}
        return {
            "wall_ms_p50": stats.median([wall for wall, _ in good]),
            # correct ops per second the system was busy
            "throughput_ops_s": len(good) / (sum(r[2] for r in part) / 1000.0),
            # each round against the reference that ran right beside it
            "framework_tax_x": stats.median([wall / ref for wall, ref in good]),
        }

    metrics, segments = stats.summarise(values(rounds), [
        values(part)
        for part in stats.thirds([(r[0], r) for r in rounds], start, end)
    ])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return {
        "metrics": metrics, "attempted": len(rounds),
        "failed": sum(r[1] is None for r in rounds), "segments": segments,
    }


#: ``mode.<name>.wall_x`` rows: one etl_batch round under that one setting
#: over the default-config round.  The default path *is* the end-to-end
#: number; these say which fixed mode an optimizer-chosen data path has to
#: match and which modes lose everywhere.
MODES = {
    "columnar_native": {"columnar": True, "columnar_native": True},
    "columnar_packed": {"columnar": True, "columnar_native": False},
    "no_kernels": {},  # REPRO_NO_KERNELS=1, the only switch without a kwarg
    "thread_p2": {"parallelism": 2, "execution_mode": "thread"},
    "process_p2": {"parallelism": 2, "execution_mode": "process"},
}
#: a mode gets two rounds (the faster counts) unless its first already
#: took this long: process mode costs several default rounds per round
_MODE_SECOND_ROUND_UNDER_S = 2.0


def trace(prepared: Prepared, seconds: float, log, scratch_dir: str) -> dict:
    """The traced pass: per-layer numbers for one batch workload.

    Rounds cycle through three variants — plain, benchmark spans (timing
    proxies on the public context attributes), program ``Tracer`` attached
    — so the three see the same machine noise; the difference between
    plain and the other two is the tracing overhead.  ``etl_batch`` then
    spends the rest of the window on the mode, profiler and journal rows.
    """
    from repro import Tracer

    from benchmarks.e2e import layers

    workload, expected = prepared.workload, prepared.expected
    name = workload.name
    share = 0.3 if name == "etl_batch" else 1.0
    end = time.perf_counter() + seconds * share
    plain, spanned, traced, refs = [], [], [], []
    tracer_sums: dict[str, float] = {}
    attempted = failed = 0
    while time.perf_counter() < end or not traced:
        refs.append(run_reference(workload))
        for variant in ("plain", "spans", "tracer"):
            if variant == "plain":
                system = _attempt(workload)
                bucket = plain
            elif variant == "spans":
                log.op_id += 1
                with ExitStack() as stack:
                    for ctx in workload.contexts:
                        stack.enter_context(layers.timed_layers(ctx, log))
                    system = _attempt(workload, log.span)
                bucket = spanned
            else:
                tracer = Tracer()
                for ctx in workload.contexts:
                    ctx.attach_tracer(tracer)
                try:
                    system = _attempt(workload)
                finally:
                    for ctx in workload.contexts:
                        ctx.attach_tracer(None)
                for key, amount in layers.tracer_totals(tracer).items():
                    tracer_sums[key] = tracer_sums.get(key, 0.0) + amount
                bucket = traced
            attempted += 1
            if system is not None and check(workload, system, expected):
                bucket.append(system._replace(results=None))  # checked: drop
            else:
                failed += 1
    if not (plain and spanned and traced):
        raise RuntimeError(f"{name}: no correct round in the traced pass")

    out: dict[str, float] = {}
    # -- primary: the benchmark's own spans, mean ms per op ---------------
    n = len(spanned)
    totals = log.totals_ms()
    op_ms = stats.mean([r.wall_ms for r in spanned])
    primary = {
        "context.build_ms": totals.get("context.build", 0.0) / n,
        "app_optimizer.optimize_ms": totals.get("app_optimizer.optimize", 0.0) / n,
        "task_optimizer.optimize_ms": totals.get("task_optimizer.optimize", 0.0) / n,
        "executor.execute_ms": totals.get("executor.execute", 0.0) / n,
        "apps.overhead_ms": log.self_ms("apps.call") / n,
    }
    out.update(primary)
    out["layers.unaccounted_pct"] = (
        abs(op_ms - sum(primary.values())) / op_ms * 100.0
    )
    out["optimizer.share_pct"] = (
        primary["app_optimizer.optimize_ms"]
        + primary["task_optimizer.optimize_ms"]
    ) / op_ms * 100.0
    for (query, span_name), ms in log.query_totals_ms().items():
        if span_name == "task_optimizer.optimize" and query.startswith("chain"):
            out[f"task_optimizer.ms_per_operator.{query}"] = (
                ms / n / int(query[len("chain"):])
            )
    for index, query in enumerate(workload.queries):
        out[f"{name}.{query.name}.wall_ms"] = stats.median(
            [r.query_ms[index] for r in plain])
        out[f"{name}.{query.name}.ref_ms"] = stats.median(
            [r.query_ms[index] for r in refs])
    out[f"{name}.wall_ms_max"] = max(r.wall_ms for r in plain)

    # -- secondary: the program's own Tracer, mean per op -----------------
    m = len(traced)
    per_op = {key: amount / m for key, amount in tracer_sums.items()}
    get = per_op.get
    out["task_optimizer.enumerate_ms"] = get("enumerate_ms", 0.0)
    out["task_optimizer.cut_atoms_ms"] = get("cut_atoms_ms", 0.0)
    out["task_optimizer.candidates"] = get("candidates", 0.0)
    out["physical.operator_ms"] = get("operator_ms", 0.0)
    out["physical.rows_per_s"] = (
        get("operator_rows", 0.0) / (get("operator_ms", 0.0) / 1000.0)
        if get("operator_ms") else 0.0
    )
    out["executor.scheduling_ms"] = (
        get("execute_ms", 0.0) - get("operator_ms", 0.0) - get("movement_ms", 0.0)
    )
    out["channels.movement_ms"] = get("movement_ms", 0.0)
    out["channels.movement_count"] = get("movement_count", 0.0)
    out["channels.movement_rows"] = get("movement_rows", 0.0)
    out["executor.atoms"] = get("atoms", 0.0)
    out["executor.retries"] = get("retries", 0.0)
    for platform in ("java", "spark", "postgres"):
        out[f"platforms.atoms.{platform}"] = get(f"atoms.{platform}", 0.0)

    # -- the cost of looking -----------------------------------------------
    plain_p50 = stats.median([r.wall_ms for r in plain])
    out["observability.tracer_overhead_pct"] = (
        stats.median([r.wall_ms for r in traced]) / plain_p50 - 1.0) * 100.0
    out["observability.spans_overhead_pct"] = (
        stats.median([r.wall_ms for r in spanned]) / plain_p50 - 1.0) * 100.0

    if name == "etl_batch":
        extra, more_attempted, more_failed = _etl_extras(
            prepared, plain_p50, out[f"{name}.wordcount.wall_ms"], scratch_dir)
        out.update(extra)
        attempted += more_attempted
        failed += more_failed
    out["failed_ops_share"] = failed / attempted
    return {"metrics": out, "attempted": attempted, "failed": failed}


def _etl_extras(prepared: Prepared, default_ms: float, wordcount_ms: float,
                scratch_dir: str):
    """Mode, journal and profiler rows of ``etl_batch``."""
    from repro import RunJournal, RuntimeContext
    from repro.core.logical.operators import CollectSink

    out: dict[str, float] = {}
    attempted = failed = 0
    inputs, expected = prepared.inputs, prepared.expected

    def timed_rounds(workload: Workload) -> float:
        nonlocal attempted, failed
        walls = []
        for _ in range(2):
            system = _attempt(workload)
            attempted += 1
            if system is not None and check(workload, system, expected):
                walls.append(system.wall_ms)
            else:
                failed += 1
            if walls and walls[-1] > _MODE_SECOND_ROUND_UNDER_S * 1000.0:
                break
        return min(walls) if walls else 0.0

    for mode, kwargs in MODES.items():
        if mode == "no_kernels":
            os.environ["REPRO_NO_KERNELS"] = "1"
        try:
            wall = timed_rounds(etl_batch(inputs, **kwargs))
        finally:
            os.environ.pop("REPRO_NO_KERNELS", None)
        out[f"mode.{mode}.wall_x"] = wall / default_ms

    # one round through ctx.execute with and without a RunJournal
    def explicit_round(journal_dir):
        wall = size = 0.0
        for index, query in enumerate(prepared.workload.queries):
            ctx, build = query.plan
            handle = build()
            handle.plan.add(CollectSink(), [handle.operator])
            journal = None
            if journal_dir is not None:
                journal = RunJournal(os.path.join(journal_dir, f"q{index}.journal"))
            started = time.perf_counter()
            try:
                ctx.execute(handle.plan, runtime=RuntimeContext(journal=journal))
            finally:
                if journal is not None:
                    journal.close()
            wall += (time.perf_counter() - started) * 1000.0
            if journal is not None:
                size += os.path.getsize(journal.path)
        return wall, size

    bare, journaled = [], []
    for _ in range(2):  # alternate, keep the faster of each
        bare.append(explicit_round(None)[0])
        with tempfile.TemporaryDirectory(dir=scratch_dir) as journal_dir:
            journaled_ms, journal_bytes = explicit_round(journal_dir)
        journaled.append(journaled_ms)
    out["recovery.journal_overhead_ms"] = min(journaled) - min(bare)
    out["recovery.journal_bytes"] = journal_bytes

    # last, because the profiler turns tracemalloc on for the process
    profiled = etl_batch(inputs, profile=True)
    wordcount = profiled.queries[0]
    wordcount.run(no_span)
    started = time.perf_counter()
    wordcount.run(no_span)
    profiled_ms = (time.perf_counter() - started) * 1000.0
    out["observability.profile_overhead_x"] = profiled_ms / wordcount_ms
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    return out, attempted, failed
