"""The in-process platform and its calibrated cost model.

Stands in for the paper's "plain Java program" baseline (Figure 2): an
eager, single-threaded engine with near-zero fixed overhead.  It wins on
small inputs precisely because it pays neither job start-up nor task
scheduling, and loses on large ones because it cannot parallelise —
exactly the trade-off Figure 2 illustrates.
"""

from __future__ import annotations

from typing import Any

from repro.core.optimizer.cost import OperatorCostInput, PlatformCostModel
from repro.core.optimizer.workunits import work_units
from repro.platforms.base import Platform


class JavaCostModel(PlatformCostModel):
    """Virtual-time model of a warm, single-threaded in-process engine.

    Calibration (virtual): ~0.8 µs per abstract work unit — a reasonable
    JVM throughput for per-tuple UDF work — plus a small one-off warm-up.
    """

    platform_name = "java"

    def __init__(
        self,
        startup: float = 120.0,
        per_unit_ms: float = 0.0008,
        per_operator_ms: float = 0.004,
        loop_overhead_ms: float = 0.02,
    ):
        self.startup = startup
        self.per_unit_ms = per_unit_ms
        self.per_operator_ms = per_operator_ms
        self.loop_overhead_ms = loop_overhead_ms

    def startup_ms(self) -> float:
        return self.startup

    def operator_ms(self, cost_input: OperatorCostInput) -> float:
        return self.per_operator_ms + self.per_unit_ms * work_units(cost_input)

    def udf_work_ms(self, total_units: float, peak_task_units: float) -> float:
        # Single-threaded: the sum is the latency.
        return self.per_unit_ms * total_units

    def loop_iteration_ms(self) -> float:
        return self.loop_overhead_ms

    def ingest_ms(self, card: float) -> float:
        # Already in-process: ingest is a reference copy.
        return 0.0001 * card

    def egest_ms(self, card: float) -> float:
        return 0.0001 * card


class JavaPlatform(Platform):
    """Eager single-process engine over plain Python lists.

    Applies every kernel of the operator table as it is, exactly like a
    single-threaded Java program looping over collections.
    """

    name = "java"
    profiles = frozenset({"batch", "iterative"})
    #: in-process engine: each atom is just a thread's worth of work
    max_concurrent_atoms = 8
    #: kernels consume ColumnarBatch hand-offs in place
    columnar_native = True
    #: in-process engine streams file lines straight into fused chains
    fuse_sources = True

    def __init__(self, cost_model: JavaCostModel | None = None,
                 fuse_narrow: bool = True):
        super().__init__(cost_model or JavaCostModel())
        self.fuse_narrow = fuse_narrow

    def ingest(self, data: list[Any]) -> Any:
        # Columnar batches stay columnar across the process-local
        # boundary — ingest of an elided hand-off is a reference copy.
        if getattr(data, "is_columnar_batch", False):
            return data
        return list(data)

    def egest(self, native: Any) -> Any:
        if getattr(native, "is_columnar_batch", False):
            return native
        return list(native)

    def native_card(self, native: Any) -> int:
        return len(native)
