"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — the platform roster, operator pool and profiles;
* ``demo`` — a one-minute platform-independence demonstration;
* ``sql`` — run a SQL query against CSV files registered as tables::

      python -m repro sql \\
          --table employees=people.csv \\
          "SELECT dept, COUNT(*) AS n FROM employees GROUP BY dept"

* ``explain`` — the enumerator's decision trace for a query or the demo:
  alternatives considered with estimated costs, the winner and why, and
  the chosen execution plan::

      python -m repro explain demo
      python -m repro explain --table employees=people.csv \\
          "SELECT dept, COUNT(*) AS n FROM employees GROUP BY dept"

* ``serve`` — the multi-tenant serving daemon: ``POST /submit`` runs a
  seeded workload spec for the tenant named by the ``X-Repro-Tenant``
  header (per-tenant sessions, per-tenant metric labels);
  ``GET /status/<id>`` / ``GET /result/<id>`` fetch outcomes;
  ``GET /metrics`` is the Prometheus exposition (tenant-labelled series
  plus a ``repro_run_info`` gauge naming the git sha and config epoch,
  and, under ``REPRO_PROFILE=1``, the per-atom resource histograms);
  repeat queries hit an LRU plan cache (fingerprint × calibration
  epoch × config epoch) and skip enumeration entirely, while a
  process-wide slot pool shares each platform's concurrency budget
  across queries::

      python -m repro serve --port 9465 --cache-size 64

* ``calibration`` — inspect (``show``) or drop (``reset``) the
  cross-run cardinality calibration store written by ``--calibrate``::

      python -m repro calibration show
      python -m repro calibration reset

``sql`` and ``demo`` accept ``--trace-out FILE`` (Chrome trace-event
JSON, or JSONL span log when the file ends in ``.jsonl``) and
``--flame`` (virtual-time flamegraph on stderr); executing commands
accept ``--parallelism N`` (run independent task atoms concurrently —
results and virtual time are identical at any setting),
``--execution-mode {thread,process}`` (which backend runs concurrent
atoms: pool threads, or forked worker processes — same results and
virtual time either way) and
``--calibrate [STORE.json]`` (load cross-run cardinality priors before
the run and fold the run's observations back in afterwards; the store
defaults to ``$REPRO_CALIBRATION_STORE`` or ``.repro-calibration.json``).

``demo`` additionally accepts the fault-tolerance flags: ``--journal
DIR`` (durable write-ahead journal + atom output payloads under DIR),
``--run-id ID``, ``--deadline-ms MS`` (per-atom wall budget; an overrun
is charged to the ledger and escalated like a platform failure), and the
chaos switches ``--crash-at N`` / ``--crash-mode {before,after,torn}``
(hard-abort the process around journal commit N; exit code 3).  Running
again with the same DIR and run id resumes a crashed run — finished
atoms are replayed from the journal, only the missing suffix runs, and
the BENCH line is byte-identical to an uninterrupted one — or replays a
completed run::

      python -m repro demo --journal runs/ --run-id r1 --crash-at 2
      python -m repro demo --journal runs/ --run-id r1
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro import RheemContext, Tracer, __version__

#: default JSON snapshot path for the cross-run calibration store
DEFAULT_CALIBRATION_STORE = ".repro-calibration.json"


def _add_trace_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write an end-to-end trace: Chrome trace-event JSON "
            "(chrome://tracing / Perfetto), or a JSONL span log when "
            "FILE ends in .jsonl"
        ),
    )
    subparser.add_argument(
        "--flame",
        action="store_true",
        help="print a virtual-time flamegraph of the run to stderr",
    )


def _add_parallelism_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run up to N independent task atoms concurrently "
            "(default: $REPRO_PARALLELISM or 1; results and virtual "
            "time are identical at any setting)"
        ),
    )


def _add_execution_mode_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--execution-mode",
        choices=("thread", "process"),
        default=None,
        help=(
            "concurrent scheduler backend: 'thread' or 'process' "
            "(forked workers; default: $REPRO_EXECUTION_MODE or thread; "
            "results and virtual time are identical either way)"
        ),
    )


def _add_profile_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--profile",
        action="store_true",
        default=None,
        help=(
            "attach per-atom resource attribution (CPU vs wall, peak "
            "allocation, GC pauses, queue wait, channel bytes) to every "
            "atom span and the metrics registry (default: $REPRO_PROFILE "
            "or off; results and virtual time are unchanged)"
        ),
    )


def _add_calibrate_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--calibrate",
        nargs="?",
        const="",
        default=None,
        metavar="STORE.json",
        help=(
            "enable cross-run cardinality calibration: load learned "
            "priors from STORE.json (default: $REPRO_CALIBRATION_STORE "
            f"or {DEFAULT_CALIBRATION_STORE}) before the run and fold "
            "this run's observations back in afterwards"
        ),
    )


def _add_journal_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "record a durable write-ahead run journal and atom output "
            "payloads under DIR; a run over the same DIR and run id "
            "resumes it"
        ),
    )
    subparser.add_argument(
        "--run-id",
        default="demo",
        metavar="ID",
        help="name of the journaled run under --journal (default: demo)",
    )
    subparser.add_argument(
        "--crash-at",
        type=int,
        default=None,
        metavar="N",
        help=(
            "chaos switch: hard-abort the process around journal "
            "commit N (requires --journal); exits with code 3"
        ),
    )
    subparser.add_argument(
        "--crash-mode",
        choices=("before", "after", "torn"),
        default="after",
        help=(
            "where the simulated crash lands relative to commit N: "
            "before the record is written, after it is durable, or "
            "mid-write leaving a torn tail (default: after)"
        ),
    )
    subparser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "per-atom wall-clock budget (default: none); an overrun is "
            "charged to the ledger and escalated like a platform failure"
        ),
    )


def _calibration_store_path(explicit: str | None = None) -> str:
    """Resolve the calibration snapshot path (flag > env > default)."""
    if explicit:
        return explicit
    return (
        os.environ.get("REPRO_CALIBRATION_STORE", "").strip()
        or DEFAULT_CALIBRATION_STORE
    )


def _open_calibration_store(path: str):
    """Load the store snapshot at ``path``, or start a fresh one; either
    way the store records ``path`` (its journal epoch digests it)."""
    from repro.core.optimizer.calibration import CalibrationStore

    if os.path.exists(path):
        try:
            store = CalibrationStore.load_json(path)
        except (OSError, ValueError, KeyError) as error:
            raise SystemExit(
                f"calibration store {path}: cannot load ({error})"
            ) from error
    else:
        store = CalibrationStore()
    store.path = path
    return store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "RHEEM reproduction: cross-platform data analytics on "
            "simulated processing platforms."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="platform roster and operator pool")
    demo = commands.add_parser(
        "demo", help="platform-independence demonstration"
    )
    _add_trace_flags(demo)
    _add_parallelism_flag(demo)
    _add_execution_mode_flag(demo)
    _add_profile_flag(demo)
    _add_calibrate_flag(demo)
    _add_journal_flags(demo)

    sql = commands.add_parser("sql", help="run a SQL query over CSV tables")
    sql.add_argument("query", help="the SELECT statement")
    sql.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=CSVFILE",
        help="register a CSV file as a table (repeatable)",
    )
    sql.add_argument(
        "--platform",
        default=None,
        help="pin a platform (default: cost-based choice)",
    )
    sql.add_argument(
        "--explain", action="store_true", help="print the plan, do not run"
    )
    _add_trace_flags(sql)
    _add_parallelism_flag(sql)
    _add_execution_mode_flag(sql)
    _add_profile_flag(sql)
    _add_calibrate_flag(sql)

    explain = commands.add_parser(
        "explain",
        help="enumerator decision trace for a SQL query (or 'demo')",
    )
    explain.add_argument(
        "target", help="a SELECT statement, or the literal 'demo'"
    )
    explain.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=CSVFILE",
        help="register a CSV file as a table (repeatable)",
    )
    _add_trace_flags(explain)
    _add_calibrate_flag(explain)

    calibration = commands.add_parser(
        "calibration",
        help="inspect or reset the cross-run cardinality calibration store",
    )
    calibration_sub = calibration.add_subparsers(
        dest="calibration_command", required=True
    )
    for name, blurb in (
        ("show", "print the learned per-kind/per-platform priors"),
        ("reset", "delete the store snapshot (forget all priors)"),
    ):
        sub = calibration_sub.add_parser(name, help=blurb)
        sub.add_argument(
            "--store",
            default=None,
            metavar="FILE",
            help=(
                "store snapshot path (default: $REPRO_CALIBRATION_STORE "
                f"or {DEFAULT_CALIBRATION_STORE})"
            ),
        )

    serve_daemon = commands.add_parser(
        "serve",
        help="multi-tenant serving daemon: POST /submit workload specs "
        "(tenant via the X-Repro-Tenant header), GET /status/<id>, "
        "/result/<id>, /healthz and per-tenant /metrics; repeat "
        "queries hit an LRU plan cache and skip enumeration",
    )
    serve_daemon.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_daemon.add_argument(
        "--port", type=int, default=9465,
        help="bind port (default: 9465; 0 picks a free port)",
    )
    serve_daemon.add_argument(
        "--cache-size", type=int, default=64, metavar="N",
        help="plan-cache capacity in entries, LRU-evicted (default: 64)",
    )
    _add_parallelism_flag(serve_daemon)
    _add_execution_mode_flag(serve_daemon)

    return parser


# ----------------------------------------------------------------------
# tracing plumbing shared by the commands
# ----------------------------------------------------------------------
def _make_tracer(args) -> Tracer | None:
    """A tracer when any trace output was requested, else None.

    Returning None keeps the no-op fast path: untraced runs never
    allocate a span.
    """
    if getattr(args, "trace_out", None) or getattr(args, "flame", False):
        return Tracer()
    return None


def _finish_trace(tracer: Tracer | None, args) -> None:
    """Write the requested trace artifacts after a traced run."""
    if tracer is None:
        return
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.core.observability import write_chrome_trace, write_jsonl

        if trace_out.endswith(".jsonl"):
            write_jsonl(tracer, trace_out)
            flavour = "JSONL span log"
        else:
            write_chrome_trace(tracer, trace_out)
            flavour = "Chrome trace"
        print(
            f"[trace] {flavour}: {len(tracer.spans)} spans, "
            f"{tracer.total_virtual_ms():.1f} virtual ms -> {trace_out}",
            file=sys.stderr,
        )
    if getattr(args, "flame", False):
        from repro.core.observability import render_flamegraph

        print(render_flamegraph(tracer), file=sys.stderr)


# ----------------------------------------------------------------------
def command_info(ctx: RheemContext) -> int:
    print(f"repro {__version__} — RHEEM reproduction")
    print("\nplatforms:")
    for platform in ctx.platforms:
        kinds = sorted(platform.kinds)
        print(
            f"  {platform.name:<10} profiles={sorted(platform.profiles)} "
            f"startup={platform.cost_model.startup_ms():.0f}ms "
            f"operators={len(kinds)}"
        )
    first = ctx.platforms[0]
    print("\nphysical operator kinds (first platform):")
    print("  " + ", ".join(sorted(first.kinds)))
    return 0


def _demo_handle(ctx: RheemContext):
    """The demo word-count pipeline as a reusable plan handle."""
    lines = [
        "freedom is the recognition of necessity",
        "the road to freedom is long",
        "freedom necessity freedom",
    ]
    return (
        ctx.collection(lines)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .reduce_by(lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1]))
        .sort(lambda kv: (-kv[1], kv[0]))
    )


def _adaptive_demo_plan(ctx: RheemContext):
    """A deliberately mis-hinted pipeline for the calibration demo.

    The filter is hinted four orders of magnitude too selective, so the
    iterative tail is initially placed off a wildly wrong cardinality —
    the progressive executor replans it mid-run.  With learned priors
    the estimate is corrected up front and the replan disappears.
    """
    from repro import CostHints
    from repro.core.logical.operators import CollectSink

    dq = (
        ctx.collection(range(20_000))
        .filter(lambda x: True, hints=CostHints(selectivity=0.0001))
        .repeat(
            15,
            lambda s: s.map(lambda x: x + 1, hints=CostHints(udf_load=10.0)),
        )
    )
    dq.plan.add(CollectSink(), [dq.operator])
    return dq.plan


def command_demo(ctx: RheemContext, args=None) -> int:
    if args is not None and getattr(args, "journal", None):
        return _journaled_demo(ctx, args)
    if args is not None and getattr(args, "crash_at", None) is not None:
        raise SystemExit("--crash-at requires --journal")
    tracer = _make_tracer(args) if args is not None else None
    if tracer is not None:
        ctx.attach_tracer(tracer)
    handle = _demo_handle(ctx)
    print("word counts (optimizer's platform choice):")
    counts, metrics = handle.collect_with_metrics()
    for word, count in counts[:5]:
        print(f"  {word:<12} {count}")
    print("metrics:", metrics.summary())
    for platform in ("java", "spark"):
        pinned, pinned_metrics = handle.collect_with_metrics(platform=platform)
        marker = "identical" if pinned == counts else "DIFFERENT!"
        print(
            f"pinned to {platform:<6}: {marker}, "
            f"virtual={pinned_metrics.virtual_ms:.1f}ms"
        )
    if getattr(ctx, "calibration", None) is not None:
        # Adaptive pass: a mis-hinted pipeline whose replans shrink as
        # the store's priors sharpen run over run (the two-pass aha).
        result, replans = ctx.execute_adaptive(_adaptive_demo_plan(ctx))
        store = ctx.calibration
        print(
            "calibration: "
            f"replans={replans} "
            f"adaptive_virtual={result.metrics.virtual_ms:.1f}ms "
            f"samples={store.sample_count()} "
            f"priors_applied={store.priors_applied}"
        )
    if args is not None:
        _finish_trace(tracer, args)
    return 0


# ----------------------------------------------------------------------
# journaled execution: demo --journal (a rerun resumes)
# ----------------------------------------------------------------------
def _demo_execution(ctx: RheemContext):
    """The journaled variant of the demo: word-count with a decay tail.

    The iterative tail (halving each count twice, then re-sorting)
    splits the plan into three atoms — head, loop, final sort — so the
    chaos switches have several journal commit points to aim at.
    """
    from repro.core.logical.operators import CollectSink

    handle = (
        _demo_handle(ctx)
        .repeat(2, lambda s: s.map(lambda kv: (kv[0], kv[1] / 2)))
        .sort(lambda kv: (-kv[1], kv[0]))
    )
    handle.plan.add(CollectSink(), [handle.operator])
    physical = ctx.app_optimizer.optimize(handle.plan)
    return ctx.task_optimizer.optimize(physical)


def _print_bench(result) -> None:
    """One grep-able line fully determined by the (virtual) execution.

    ``digest`` fingerprints the result payload, ``virtual`` is the exact
    virtual-time repr, ``atoms`` counts the whole plan however it was
    satisfied — a resumed run must print the same line as an
    uninterrupted one.  Journal replay restores the metric counters of
    the replayed prefix, so ``atoms_executed`` ends up at the full-plan
    value either way.
    """
    import hashlib

    metrics = result.metrics
    digest = hashlib.sha256(
        repr(result.single).encode("utf-8")
    ).hexdigest()[:16]
    print(
        f"BENCH digest={digest} virtual={metrics.virtual_ms!r} "
        f"atoms={int(metrics.atoms_executed)}"
    )


def _journaled_demo(ctx: RheemContext, args) -> int:
    """The demo under a durable journal; a rerun over it resumes.

    The write-ahead journal goes to ``DIR/<run-id>.journal``, its
    payload store to a LocalFsStore at ``DIR/ckpt`` (namespaced by the
    run id).
    """
    from repro.core.checkpoint import CheckpointManager
    from repro.core.recovery import CrashInjector, RunJournal, SimulatedCrash
    from repro.core.runtime import RuntimeContext
    from repro.storage import Catalog, LocalFsStore

    execution = _demo_execution(ctx)
    os.makedirs(args.journal, exist_ok=True)
    catalog = Catalog()
    catalog.register_store(
        LocalFsStore(root=os.path.join(args.journal, "ckpt"))
    )
    journal = RunJournal(
        os.path.join(args.journal, f"{args.run_id}.journal"),
        run_id=args.run_id,
        store=CheckpointManager(catalog, "localfs", plan_key=args.run_id),
    )
    runtime = RuntimeContext(
        journal=journal,
        crash_injector=(
            CrashInjector(args.crash_at, mode=args.crash_mode)
            if args.crash_at is not None
            else None
        ),
    )
    try:
        result = ctx.executor.execute(execution, runtime)
    except SimulatedCrash:
        print(
            f"simulated crash around journal commit {args.crash_at} "
            f"(mode={args.crash_mode}); continue with: "
            f"repro demo --journal {args.journal} --run-id {args.run_id}",
            file=sys.stderr,
        )
        return 3
    finally:
        journal.close()
    metrics = result.metrics
    if metrics.resumes:
        torn = journal.torn_truncations
        torn_note = f", {torn} torn record(s) discarded" if torn else ""
        print(
            f"[resume] {int(metrics.atoms_restored)} atom(s) replayed "
            f"from the journal{torn_note}",
            file=sys.stderr,
        )
    _print_bench(result)
    return 0


def _load_csv_table(session, spec: str) -> None:
    from repro.apps.sql import SqlTranslationError
    from repro.core.types import Record, Schema

    if "=" not in spec:
        raise SystemExit(f"--table expects NAME=CSVFILE, got {spec!r}")
    name, path = spec.split("=", 1)
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty CSV")
    fields = [field.strip() for field in lines[0].split(",")]
    schema = Schema(fields)
    rows = []
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        rows.append(Record(schema, tuple(_coerce(cell) for cell in cells)))
    try:
        session.register_table(name, rows, schema)
    except SqlTranslationError as error:
        raise SystemExit(str(error)) from error


def _coerce(cell: str):
    for converter in (int, float):
        try:
            return converter(cell)
        except ValueError:
            continue
    if cell.upper() in ("TRUE", "FALSE"):
        return cell.upper() == "TRUE"
    return cell


def command_sql(ctx: RheemContext, args) -> int:
    from repro.apps.sql import SqlSession

    tracer = _make_tracer(args)
    if tracer is not None:
        ctx.attach_tracer(tracer)
    session = SqlSession(ctx)
    for spec in args.table:
        _load_csv_table(session, spec)
    if args.explain:
        print(session.explain(args.query))
        return 0
    rows, metrics = session.execute_with_metrics(
        args.query, platform=args.platform
    )
    if rows:
        header = rows[0].schema.fields
        widths = [
            max(len(str(field)), *(len(str(r[field])) for r in rows))
            for field in header
        ]
        print("  ".join(f.ljust(w) for f, w in zip(header, widths)))
        print("  ".join("-" * w for w in widths))
        for row in rows:
            print(
                "  ".join(str(row[f]).ljust(w) for f, w in zip(header, widths))
            )
    print(f"({len(rows)} rows, {metrics.summary()})")
    _finish_trace(tracer, args)
    return 0


# ----------------------------------------------------------------------
# explain: the enumerator's decision trace
# ----------------------------------------------------------------------
def _optimize_only(ctx: RheemContext, handle, tracer: Tracer):
    """Run both optimizer layers on ``handle``'s plan without executing.

    Mirrors ``DataQuanta.collect_with_metrics``: a collect sink is
    appended for optimization and removed afterwards so the handle stays
    reusable.
    """
    from repro.core.logical.operators import CollectSink

    sink = CollectSink()
    handle._builder.plan.add(sink, [handle._op])
    try:
        physical = ctx.app_optimizer.optimize(handle._builder.plan,
                                              tracer=tracer)
        return ctx.task_optimizer.optimize(physical, tracer=tracer)
    finally:
        handle._builder.plan.graph.remove_unary(sink)


#: physical operator kinds with a batch fast path, and the kernel that
#: serves them when the compiled data path is enabled (see
#: ``repro.core.physical.compiled`` / ``kernels``)
_BATCH_KERNELS = {
    "map": "map.batch",
    "filter": "filter.batch",
    "flatmap": "flatmap.batch",
    "groupby.hash": "groupby.hash.batch",
    "reduceby.hash": "reduceby.hash.batch",
    "reduce.global": "reduce.global.batch",
    "join.hash": "join.hash.batch",
    "join.broadcast": "join.hash.batch",
    "cross": "cross.batch",
    "distinct.hash": "distinct.hash.batch",
}


def _render_datapath_report(execution) -> list[str]:
    """Which kernel serves each operator of the chosen plan, and why.

    Fused pipelines report their stage shape and summed UDF load (the
    quantity the ``fused.narrow`` work-unit model charges per quantum);
    standalone operators report the batch kernel that will run them.
    """
    from repro.core.execution.plan import LoopAtom

    lines = [
        "data path: compiled (single-pass fused closures + batch kernels)"
    ]

    def walk(plan, indent: str) -> None:
        for atom in plan.atoms:
            if isinstance(atom, LoopAtom):
                lines.append(
                    f"{indent}loop#{atom.id}@{atom.platform.name}:"
                )
                walk(atom.body_plan, indent + "  ")
                continue
            for op in atom.fragment.topological_order():
                if op.kind == "fused.narrow":
                    head = (
                        "streams source, " if op.source_stage is not None
                        else ""
                    )
                    lines.append(
                        f"{indent}atom#{atom.id}@{atom.platform.name}: "
                        f"fused[{op.shape}] -> one compiled pass ({head}"
                        f"{len(op.narrow_stages)} stage(s), "
                        f"udf_load={op.hints.udf_load:g})"
                    )
                elif op.kind in _BATCH_KERNELS:
                    lines.append(
                        f"{indent}atom#{atom.id}@{atom.platform.name}: "
                        f"{op.describe()} -> {_BATCH_KERNELS[op.kind]}"
                    )

    walk(execution, "  ")
    if len(lines) == 1:
        lines.append("  (no fusable or batch-kernel operators in this plan)")
    return lines


def _render_calibration_report(ctx: RheemContext, execution) -> list[str]:
    """The calibration section of ``repro explain``.

    Shows which estimates the learned priors moved for *this* plan, and
    the store's prior table (kind/platform, sample counts, corrections,
    p50/p90 residual factors).  Empty when no store is attached.
    """
    store = getattr(ctx, "calibration", None)
    if store is None:
        return []
    lines = ["calibration:"]
    corrections = getattr(execution, "estimate_corrections", {})
    kinds = getattr(execution, "estimate_kinds", {})
    if corrections:
        lines.append("  corrections applied to this plan:")
        for op_id in sorted(corrections):
            lines.append(
                f"    op#{op_id} {kinds.get(op_id, '?')}: "
                f"estimate x{corrections[op_id]:.3g}"
            )
    else:
        lines.append(
            "  no corrections applied to this plan "
            "(cold store or converged priors)"
        )
    lines.extend("  " + line for line in store.report().splitlines())
    return lines


def _render_decision_trace(
    tracer: Tracer, execution, ctx: RheemContext | None = None
) -> str:
    """Human-readable enumerator decision trace from the recorded spans."""
    lines: list[str] = []
    for app_span in tracer.find("optimize.application"):
        lines.append(
            "application optimizer: "
            f"{app_span.attributes.get('logical_operators', '?')} logical "
            f"-> {app_span.attributes.get('physical_operators', '?')} "
            "physical operators"
        )
    for enum_span in tracer.find("optimize.enumerate"):
        attrs = enum_span.attributes
        lines.append(
            f"enumerator: {attrs.get('operators', '?')} operators, "
            f"{attrs.get('candidates', '?')} platform-subset "
            "candidate(s) considered:"
        )
        for candidate in tracer.children(enum_span):
            if candidate.name != "candidate":
                continue
            cattrs = candidate.attributes
            platforms = "+".join(cattrs.get("platforms", ()))
            if cattrs.get("feasible"):
                verdict = f"est={cattrs.get('estimated_cost_ms', 0.0):.3f}ms"
            else:
                verdict = f"infeasible ({cattrs.get('why', 'unknown')})"
            lines.append(f"  - {{{platforms}}}: {verdict}")
        winner = attrs.get("winner")
        if winner is not None:
            lines.append(
                f"  winner: {{{'+'.join(winner)}}} "
                f"est={attrs.get('winner_cost', 0.0):.3f}ms"
            )
        lines.append(f"  reason: {attrs.get('reason', 'n/a')}")
        assignment = attrs.get("assignment")
        if assignment:
            lines.append("operator assignment:")
            lines.extend(f"  {entry}" for entry in assignment)
    lines.append("execution plan (task atoms):")
    lines.extend(f"  {line}" for line in execution.explain().splitlines())
    lines.extend(_render_datapath_report(execution))
    if ctx is not None:
        lines.extend(_render_calibration_report(ctx, execution))
    return "\n".join(lines)


def command_explain(ctx: RheemContext, args) -> int:
    tracer = Tracer()
    ctx.attach_tracer(tracer)
    if args.target == "demo":
        handle = _demo_handle(ctx)
    else:
        from repro.apps.sql import SqlSession

        session = SqlSession(ctx)
        for spec in args.table:
            _load_csv_table(session, spec)
        try:
            handle = session.plan(args.target)
        except Exception as error:
            raise SystemExit(str(error)) from error
    execution = _optimize_only(ctx, handle, tracer)
    print(_render_decision_trace(tracer, execution, ctx=ctx))
    _finish_trace(tracer, args)
    return 0


def command_calibration(args) -> int:
    """``repro calibration show|reset`` over the JSON store snapshot."""
    path = _calibration_store_path(args.store)
    if args.calibration_command == "reset":
        if os.path.exists(path):
            os.remove(path)
            print(f"calibration store {path}: removed")
        else:
            print(f"calibration store {path}: nothing to reset")
        return 0
    # show
    if not os.path.exists(path):
        print(f"calibration store {path}: empty (no snapshot yet)")
        return 0
    store = _open_calibration_store(path)
    print(f"calibration store {path}:")
    print(store.report())
    return 0


def command_serve(args) -> int:
    """``repro serve``: the multi-tenant serving daemon."""
    import signal
    import time

    from repro.core.serving import ServingDaemon

    daemon = ServingDaemon(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        parallelism=args.parallelism,
        execution_mode=args.execution_mode,
    )

    def _shutdown(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    # SIGTERM (and SIGINT, which shells set to SIG_IGN for background
    # jobs) both become the same graceful-shutdown path as Ctrl-C.
    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    with daemon:
        print(
            f"serving queries on {daemon.url} "
            f"(POST /submit, tenant header {'X-Repro-Tenant'}; "
            "Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "calibration":
        return command_calibration(args)
    if args.command == "serve":
        return command_serve(args)

    store = None
    store_path = None
    if getattr(args, "calibrate", None) is not None:
        store_path = _calibration_store_path(args.calibrate or None)
        store = _open_calibration_store(store_path)
    ctx = RheemContext(
        parallelism=getattr(args, "parallelism", None),
        execution_mode=getattr(args, "execution_mode", None),
        calibrate=store,
        deadline_ms=getattr(args, "deadline_ms", None),
        profile=getattr(args, "profile", None),
    )
    if args.command == "info":
        return command_info(ctx)
    if args.command == "demo":
        code = command_demo(ctx, args)
    elif args.command == "sql":
        code = command_sql(ctx, args)
    elif args.command == "explain":
        code = command_explain(ctx, args)
    else:  # pragma: no cover
        raise SystemExit(f"unknown command {args.command!r}")
    if store is not None and store_path is not None and code == 0:
        store.save_json(store_path)
        print(
            f"[calibration] {store.sample_count()} samples "
            f"-> {store_path}",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
