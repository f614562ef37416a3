"""ABL13 — process-pool execution (escaping the GIL).

ABL10 showed worker *threads* overlap latency-bound atoms; this ablation
pins down what threads fundamentally cannot do: overlap CPU-bound
Python UDFs, which serialize on the GIL no matter the pool width.
``Executor(execution_mode="process")`` runs the same scheduler over
forked worker processes — each with its own interpreter and GIL — while
the coordinator replays every stateful effect in plan order, so the
wall clock drops and *nothing else moves*:

* **identical results** — outputs byte-identical across modes and
  parallelisms;
* **identical bill** — ``virtual_ms`` and the full ledger entry
  sequence match the sequential run exactly (same atom ids: one shared
  execution object serves every run);
* **real wall-clock speedup** — parallelism-4 processes beat
  parallelism-4 threads by ≥1.3x on a CPU-bound arithmetic chain
  (threads bring ~no speedup here: the GIL admits one runner at a
  time).

The speedup floor is hardware-gated: escaping the GIL can only show up
on a host with ≥2 cores (CI runners qualify).  On a single-core host
the same grid still runs and the byte-identity assertions still bind,
but the wall contest degrades to an overhead bound — processes must
stay within ~1.4x of threads (fork + queue + pickle cost) — and the
payload records ``cores`` plus the floor actually
enforced, so the perf observatory gates each run against its own
recorded floor.
"""

from __future__ import annotations

import os
import time

from benchmarks.harness import (
    maybe_resources,
    ms,
    pick,
    ratio,
    record_bench,
    record_table,
)
from repro.core.executor import Executor
from repro.core.logical.operators import CollectionSource, CollectSink, Map
from repro.core.logical.plan import LogicalPlan
from repro.core.optimizer.application import ApplicationOptimizer
from repro.core.optimizer.enumerator import MultiPlatformOptimizer
from repro.platforms import JavaPlatform

#: independent source→map→sink pipelines (each becomes its own atom)
PIPELINES = 4
#: rows per pipeline
ROWS = pick(60, 24)
#: LCG iterations per row — pure Python arithmetic, fully GIL-bound
SPINS = pick(40_000, 15_000)

#: (parallelism, execution_mode) grid; the contest is the last two rows
CONFIGS = ((1, "thread"), (4, "thread"), (4, "process"))

#: cores visible to this host — the GIL escape needs at least 2 to
#: manifest as wall time; below that only the overhead bound is gated
CORES = os.cpu_count() or 1
SPEEDUP_FLOOR = 1.3 if CORES >= 2 else 0.7


def _udf(offset):
    def work(x):
        acc = x + offset
        for _ in range(SPINS):
            acc = (acc * 1664525 + 1013904223) % 2147483647
        return acc

    return work


def branching_plan() -> LogicalPlan:
    """PIPELINES independent CPU-bound pipelines in one multi-sink plan."""
    plan = LogicalPlan()
    for p in range(PIPELINES):
        src = plan.add(CollectionSource(list(range(p * ROWS, (p + 1) * ROWS))))
        mapped = plan.add(Map(_udf(p)), [src])
        plan.add(CollectSink(), [mapped])
    return plan


def _ledger_sequence(metrics):
    return [
        (e.label, repr(e.ms), e.platform, e.atom_id)
        for e in metrics.ledger.entries
    ]


def test_abl13_process_pool():
    physical = ApplicationOptimizer().optimize(branching_plan())
    # one execution object for every run: atom ids stay stable, so the
    # ledger sequences below compare entry-for-entry including ids
    execution = MultiPlatformOptimizer([JavaPlatform()]).optimize(physical)

    table = record_table(
        "ABL13",
        f"process-pool execution — {PIPELINES} CPU-bound pipelines x "
        f"{ROWS} rows x {SPINS} LCG spins (pure Python, GIL-bound)",
        ["parallelism", "mode", "wall", "speedup vs seq", "virtual time",
         "identical"],
    )

    runs = {}
    for parallelism, mode in CONFIGS:
        executor = Executor(parallelism=parallelism, execution_mode=mode)
        started = time.perf_counter()
        result = executor.execute(execution)
        runs[parallelism, mode] = (result, time.perf_counter() - started)

    base_result, base_wall = runs[CONFIGS[0]]
    base_ledger = _ledger_sequence(base_result.metrics)
    for parallelism, mode in CONFIGS:
        result, wall_s = runs[parallelism, mode]
        metrics = result.metrics
        identical = (
            result.outputs == base_result.outputs
            and metrics.virtual_ms == base_result.metrics.virtual_ms
            and _ledger_sequence(metrics) == base_ledger
        )
        table.rows.append([
            parallelism,
            mode,
            ms(wall_s * 1000.0),
            ratio(base_wall, wall_s),
            ms(metrics.virtual_ms),
            "yes" if identical else "NO!",
        ])
        # determinism contract: same answers, same bill, any backend
        assert result.outputs == base_result.outputs, (parallelism, mode)
        assert metrics.virtual_ms == base_result.metrics.virtual_ms
        assert _ledger_sequence(metrics) == base_ledger, (parallelism, mode)

    _, thread_wall = runs[4, "thread"]
    process_result, process_wall = runs[4, "process"]
    speedup = thread_wall / process_wall
    if CORES >= 2:
        table.notes.append(
            f"parallelism-4 processes vs parallelism-4 threads: "
            f"{speedup:.1f}x on {CORES} cores — the UDFs are pure Python "
            "arithmetic, so threads serialize on the GIL while processes "
            "genuinely overlap (accounting byte-identical either way)"
        )
    else:
        table.notes.append(
            f"single-core host: the GIL escape cannot show up as wall "
            f"time (processes measured {speedup:.2f}x vs threads); "
            "gating the overhead bound only — run on >=2 cores for the "
            "real contest"
        )
    record_bench(
        "ABL13",
        pipelines=PIPELINES,
        rows=ROWS,
        spins=SPINS,
        cores=CORES,
        wall_ms={
            f"{mode}@{parallelism}": wall_s * 1000.0
            for (parallelism, mode), (_, wall_s) in runs.items()
        },
        virtual_ms=base_result.metrics.virtual_ms,
        speedup=speedup,
        speedup_floor=SPEEDUP_FLOOR,
        deterministic=True,
        **maybe_resources(process_result.metrics),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >={SPEEDUP_FLOOR}x (cores={CORES}) for processes vs "
        f"threads at parallelism 4, got {speedup:.2f}x"
    )
