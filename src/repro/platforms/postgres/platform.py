"""The relational platform and its calibrated cost model.

Only relational kinds are supported — scans, filters, projections,
joins, grouping, aggregation, sorting, deduplication.  The absence of
flat-maps, sampling and loops is deliberate: it is what makes the
multi-platform optimizer route non-relational work elsewhere, the
behaviour the paper's Oil & Gas pipeline motivates.
"""

from __future__ import annotations

from typing import Any

from repro.core.metrics import CostLedger
from repro.core.optimizer.cost import OperatorCostInput, PlatformCostModel
from repro.core.optimizer.workunits import work_units
from repro.core.physical.operators import PhysicalOperator
from repro.core.runtime import RuntimeContext
from repro.platforms.base import Platform
from repro.platforms.postgres.engine import Database

#: Kinds executed by the compiled relational engine (fast path).
RELATIONAL_KINDS = frozenset(
    {
        "source.collection",
        "source.table",
        "filter",
        "groupby.hash",
        "groupby.sort",
        "reduceby.hash",
        "reduce.global",
        "join.hash",
        "join.broadcast",
        "join.sortmerge",
        "cross",
        "union",
        "sort",
        "distinct.hash",
        "distinct.sort",
        "count",
        "limit",
        "sink.collect",
    }
)


class PostgresCostModel(PlatformCostModel):
    """Virtual-time model of a single-node relational engine.

    Relational operators run in compiled engine code (very low per-unit
    cost); arbitrary UDFs (``map`` and UDF-heavy filters / theta-joins)
    run through the procedural-language escape hatch and pay a heavy
    per-unit penalty — the familiar PL/Python slowdown.  This asymmetry is
    what lets the multi-platform optimizer route aggregation to the
    relational platform and ML to the others (the paper's §1 example).
    """

    platform_name = "postgres"

    def __init__(
        self,
        startup: float = 60.0,
        relational_unit_ms: float = 0.0004,
        udf_unit_ms: float = 0.004,
        per_operator_ms: float = 0.05,
    ):
        self.startup = startup
        self.relational_unit_ms = relational_unit_ms
        self.udf_unit_ms = udf_unit_ms
        self.per_operator_ms = per_operator_ms

    def startup_ms(self) -> float:
        return self.startup

    def operator_ms(self, cost_input: OperatorCostInput) -> float:
        units = work_units(cost_input)
        if cost_input.kind in RELATIONAL_KINDS and cost_input.udf_load <= 1.0:
            return self.per_operator_ms + self.relational_unit_ms * units
        return self.per_operator_ms + self.udf_unit_ms * units

    def udf_work_ms(self, total_units: float, peak_task_units: float) -> float:
        # UDF work runs through the procedural-language path.
        return self.udf_unit_ms * total_units

    def ingest_ms(self, card: float) -> float:
        # COPY FROM: parse + insert per row.
        return 0.003 * card + 2.0

    def egest_ms(self, card: float) -> float:
        # Cursor fetch to the client.
        return 0.001 * card + 1.0


class PostgresPlatform(Platform):
    """Single-node relational engine over record lists.

    Holds its own :class:`Database`; plans using
    :class:`~repro.core.logical.operators.TableSource` read tables stored
    here natively (no movement), which the movement-aware optimizer
    exploits.
    """

    name = "postgres"
    profiles = frozenset({"batch", "relational"})

    def __init__(
        self,
        database: Database | None = None,
        cost_model: PostgresCostModel | None = None,
    ):
        super().__init__(cost_model or PostgresCostModel())
        self.database = database or Database()
        # relational kinds plus UDF projections and theta-joins, which the
        # cost model prices on the procedural-language path
        self.kinds = {"map", "join.nestedloop", *RELATIONAL_KINDS}

    def apply(
        self,
        operator: PhysicalOperator,
        inputs: list[Any],
        runtime: RuntimeContext,
        ledger: CostLedger,
    ) -> list[Any]:
        # a table scan reads the platform's own database before the catalog
        if operator.kind == "source.table" and operator.dataset in self.database:
            return list(self.database.table(operator.dataset).scan())
        return super().apply(operator, inputs, runtime, ledger)

    def ingest(self, data: list[Any]) -> list[Any]:
        return list(data)

    def egest(self, native: Any) -> list[Any]:
        return list(native)

    def native_card(self, native: Any) -> int:
        return len(native)
