"""FIG3 — Figure 3 of the paper: "RHEEM execution times for violations
detection" (the BigDansing case study, run on the simulated Spark).

Left subfigure: a single monolithic ``Detect`` UDF versus the BigDansing
operator pipeline (Scope/Block/Iterate/Detect) for an FD rule.  The
operator decomposition enables blocking-based pruning and fine execution
granularity, so it scales; the monolithic UDF is quadratic in one task.

Right subfigure: BigDansing extended with the ``IEJoin`` physical
operator versus cross-product baselines for an inequality denial
constraint.  The paper reports orders of magnitude and baselines it "had
to stop after 22 hours"; we mirror that with extrapolated ``>cap`` rows
once a baseline's predicted time exceeds the cap (see harness docstring).
"""

from __future__ import annotations

import pytest

from benchmarks.harness import (
    VIRTUAL_CAP_MS,
    ms,
    pick,
    ratio,
    record_bench,
    record_table,
)
from repro.apps.cleaning import (
    BigDansing,
    DCRule,
    FDRule,
    Predicate,
    generate_tax_records,
)

LEFT_SIZES = pick([1_000, 3_000, 10_000, 30_000], [500, 1_500, 4_000])
RIGHT_SIZES = pick([1_000, 3_000, 10_000, 30_000], [500, 1_500, 4_000])
#: predicted virtual time per cell beyond which we extrapolate instead of
#: running.  A function of the plan alone, so a loaded machine measures
#: the same cells as an idle one: the 3 000-row quadratic cells (predicted
#: 34-39 s) run, the next sizes (predicted 44 s and up) are extrapolated.
VIRTUAL_GUARD_MS = 40_000.0

FD = FDRule("fd-zip-city", lhs=["zipcode"], rhs=["city"])
DC = DCRule(
    "dc-salary-tax",
    [
        Predicate("state", "==", "state"),
        Predicate("salary", ">", "salary"),
        Predicate("tax", "<", "tax"),
    ],
)


@pytest.fixture(scope="module")
def bigdansing():
    return BigDansing()


class _MethodRunner:
    """Runs one detection method across sizes with cap extrapolation.

    A quadratic-cost method is not re-run once its predicted virtual
    time exceeds the guard (or the cap) — mirroring how the paper stopped
    its baselines after 22 hours.  The predicted virtual time is still
    reported (as ``>`` when above cap).
    """

    def __init__(self, bigdansing, rule, method, quadratic):
        self.bigdansing = bigdansing
        self.rule = rule
        self.method = method
        self.quadratic = quadratic
        #: (n, virtual ms, virtual ms excluding platform startup)
        self.last: tuple[int, float, float] | None = None
        self.violations: set | None = None

    def measure(self, rows) -> str:
        n = len(rows)
        if self.last is not None:
            last_n, last_virtual, _ = self.last
            factor = (n / last_n) ** 2 if self.quadratic else n / last_n
            predicted_virtual = last_virtual * factor
            if predicted_virtual > VIRTUAL_CAP_MS:
                return f">{ms(VIRTUAL_CAP_MS)} (cap, est {ms(predicted_virtual)})"
            if predicted_virtual > VIRTUAL_GUARD_MS:
                return f"~{ms(predicted_virtual)} (extrapolated)"
        violations, metrics = self.bigdansing.detect(
            rows, self.rule, platform="spark", method=self.method
        )
        detect_only = metrics.virtual_ms - metrics.by_label_prefix("startup")
        self.last = (n, metrics.virtual_ms, detect_only)
        self.violations = set(violations)
        return ms(metrics.virtual_ms)


def test_fig3_left_single_udf_vs_operators(benchmark, bigdansing):
    table = record_table(
        "FIG3L",
        "Violation detection (FD rule) on Spark — single Detect UDF vs "
        "BigDansing operators",
        ["rows", "operators", "single Detect UDF", "speed-up",
         "speed-up excl. job startup"],
    )
    operators = _MethodRunner(bigdansing, FD, "operators", quadratic=False)
    monolithic = _MethodRunner(bigdansing, FD, "single-udf", quadratic=True)
    measured_ratio = None
    for size in LEFT_SIZES:
        rows = generate_tax_records(size, seed=71, fd_error_rate=0.02,
                                    dc_error_rate=0.0)
        ops_cell = operators.measure(rows)
        mono_cell = monolithic.measure(rows)
        speedup = detect_speedup = "-"
        if operators.last and monolithic.last and monolithic.last[0] == size:
            assert operators.violations == monolithic.violations
            speedup = ratio(monolithic.last[1], operators.last[1])
            detect_speedup = ratio(monolithic.last[2], operators.last[2])
            measured_ratio = monolithic.last[2] / operators.last[2]
        table.rows.append([size, ops_cell, mono_cell, speedup, detect_speedup])
    table.notes.append(
        "paper (Fig. 3 left): the operator abstraction 'enables finer "
        "granularity for the distributed execution'; gap grows with size"
    )
    record_bench(
        "FIG3L",
        sizes=list(LEFT_SIZES),
        operators_last_virtual_ms=operators.last[1],
        single_udf_last_virtual_ms=monolithic.last[1],
        detect_speedup=measured_ratio,
        detect_speedup_floor=2.0,
        violations_match=operators.violations == monolithic.violations,
    )
    assert measured_ratio is not None and measured_ratio > 2.0

    small = generate_tax_records(800, seed=71, fd_error_rate=0.02,
                                 dc_error_rate=0.0)
    benchmark.pedantic(
        lambda: bigdansing.detect(small, FD, platform="spark",
                                  method="operators"),
        rounds=3, iterations=1,
    )


def test_fig3_right_iejoin_vs_baselines(benchmark, bigdansing):
    table = record_table(
        "FIG3R",
        "Violation detection (inequality DC rule) on Spark — "
        "BigDansing+IEJoin vs baselines",
        ["rows", "BigDansing+IEJoin", "block nested-loop", "cross product",
         "NL/IEJoin excl. startup"],
    )
    iejoin = _MethodRunner(bigdansing, DC, "iejoin", quadratic=False)
    blocked = _MethodRunner(bigdansing, DC, "operators", quadratic=True)
    cross = _MethodRunner(bigdansing, DC, "cross", quadratic=True)
    gap = None
    for size in RIGHT_SIZES:
        rows = generate_tax_records(size, seed=73, fd_error_rate=0.0,
                                    dc_error_rate=0.01)
        ie_cell = iejoin.measure(rows)
        nl_cell = blocked.measure(rows)
        cr_cell = cross.measure(rows)
        factor = "-"
        if (
            iejoin.last and blocked.last
            and iejoin.last[0] == blocked.last[0] == size
        ):
            assert iejoin.violations == blocked.violations
            factor = ratio(blocked.last[2], iejoin.last[2])
            gap = blocked.last[2] / iejoin.last[2]
        table.rows.append([size, ie_cell, nl_cell, cr_cell, factor])
    table.notes.append(
        "paper (Fig. 3 right): IEJoin extension gives orders of magnitude "
        "over baselines, which were stopped after 22h (here: cap rows)"
    )
    record_bench(
        "FIG3R",
        sizes=list(RIGHT_SIZES),
        iejoin_last_virtual_ms=iejoin.last[1],
        nested_loop_last_virtual_ms=blocked.last[1],
        cross_last_virtual_ms=cross.last[1] if cross.last else None,
        nl_over_iejoin=gap,
        gap_floor=1.0,
        virtual_cap_ms=VIRTUAL_CAP_MS,
    )
    assert gap is not None and gap > 1.0

    small = generate_tax_records(800, seed=73, fd_error_rate=0.0,
                                 dc_error_rate=0.01)
    benchmark.pedantic(
        lambda: bigdansing.detect(small, DC, platform="spark",
                                  method="iejoin"),
        rounds=3, iterations=1,
    )
