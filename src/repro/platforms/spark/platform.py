"""The simulated Spark platform and its calibrated cost model."""

from __future__ import annotations

from typing import Any

from repro.core.optimizer.cost import OperatorCostInput, PlatformCostModel
from repro.core.optimizer.workunits import work_units
from repro.platforms.base import Platform
from repro.platforms.spark import operators
from repro.platforms.spark.cluster import ClusterConfig
from repro.platforms.spark.rdd import SimRDD

#: Physical-operator kinds that trigger a shuffle / new stage.
WIDE_KINDS = frozenset(
    {
        "groupby.hash",
        "groupby.sort",
        "reduceby.hash",
        "reduce.global",
        "join.hash",
        "join.sortmerge",
        "join.nestedloop",
        "join.iejoin",
        "cross",
        "sort",
        "distinct.hash",
        "distinct.sort",
        "zipwithid",
        "sample",
        "count",
    }
)


class SparkCostModel(PlatformCostModel):
    """Virtual-time model of the simulated cluster.

    The structure mirrors what dominates real Spark latency:

    * a large one-off **job start-up** (Figure 2's fixed cost),
    * per-**stage** scheduling plus per-**task** launch for wide operators,
    * per-quantum **shuffle** cost on wide operators' inputs,
    * data-dependent compute divided by the **effective parallelism**,
    * a driver round-trip per loop iteration for iterative jobs.
    """

    platform_name = "spark"

    def __init__(
        self,
        cluster: ClusterConfig,
        per_unit_ms: float = 0.0012,
        narrow_overhead_ms: float = 0.6,
    ):
        self.cluster = cluster
        self.per_unit_ms = per_unit_ms
        self.narrow_overhead_ms = narrow_overhead_ms

    def startup_ms(self) -> float:
        return self.cluster.job_startup_ms

    def operator_ms(self, cost_input: OperatorCostInput) -> float:
        compute = (
            self.per_unit_ms
            * work_units(cost_input)
            / self.cluster.effective_parallelism
        )
        if cost_input.kind == "join.broadcast":
            # No shuffle of the (big) left side; the right side is
            # collected and shipped to every worker instead.
            right = cost_input.input_cards[1] if len(cost_input.input_cards) > 1 else 0.0
            broadcast = (
                0.004 * right * min(self.cluster.workers, 8)
                + self.cluster.stage_overhead_ms
            )
            return broadcast + compute
        if cost_input.kind in WIDE_KINDS:
            scheduling = (
                self.cluster.stage_overhead_ms
                + self.cluster.task_launch_ms * self.cluster.default_parallelism
            )
            shuffle = self.cluster.shuffle_ms_per_quantum * sum(
                cost_input.input_cards
            )
            return scheduling + shuffle + compute
        return self.narrow_overhead_ms + compute

    def udf_work_ms(self, total_units: float, peak_task_units: float) -> float:
        # A stage finishes when its slowest task does: latency is bounded
        # below by the straggler, above by perfect parallel speed-up.
        ideal = total_units / self.cluster.effective_parallelism
        return self.per_unit_ms * max(peak_task_units, ideal)

    def loop_iteration_ms(self) -> float:
        return self.cluster.loop_sync_ms

    def cached_read_ms(self, card: float) -> float:
        # Cached RDD blocks are read in parallel from executor memory.
        return 0.00005 * card / self.cluster.effective_parallelism + 0.2

    def ingest_ms(self, card: float) -> float:
        # Parallelising a driver collection serialises every quantum.
        return 0.002 * card + 1.0

    def egest_ms(self, card: float) -> float:
        # collect() funnels all quanta through the driver.
        return 0.002 * card + 1.0


class SparkPlatform(Platform):
    """Partitioned, stage-structured engine over :class:`SimRDD` datasets."""

    name = "spark"
    profiles = frozenset({"batch", "iterative"})
    #: a Spark cluster happily runs several jobs concurrently
    max_concurrent_atoms = 4

    def __init__(
        self,
        cluster: ClusterConfig | None = None,
        cost_model: SparkCostModel | None = None,
        fuse_narrow: bool = True,
    ):
        self.cluster = cluster or ClusterConfig()
        super().__init__(cost_model or SparkCostModel(self.cluster))
        #: narrow chains pipeline into one stage pass, the simulation of
        #: Spark's own operator pipelining
        self.fuse_narrow = fuse_narrow
        operators.register_all(self)

    def ingest(self, data: list[Any]) -> SimRDD:
        return SimRDD.from_collection(data, self.cluster.default_parallelism)

    def egest(self, native: Any) -> list[Any]:
        return native.collect()

    def native_card(self, native: Any) -> int:
        return native.count()
