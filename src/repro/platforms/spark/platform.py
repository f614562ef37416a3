"""The simulated Spark platform and its calibrated cost model.

Narrow kinds run the operator table's kernels per partition; wide kinds
shuffle first (really moving quanta between partitions) and then run
the kernels per partition — the paper's example mapping of
``Initialize`` / ``Process`` onto ``MapPartitions`` / ``ReduceByKey``
(Example 3) is exactly this structure.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core import workmeter
from repro.core.metrics import CostLedger
from repro.core.optimizer.cost import OperatorCostInput, PlatformCostModel
from repro.core.optimizer.workunits import work_units
from repro.core.physical.operators import PhysicalOperator
from repro.core.runtime import RuntimeContext
from repro.platforms.base import Platform
from repro.platforms.spark.cluster import ClusterConfig
from repro.platforms.spark.rdd import SimRDD
from repro.util.iterators import split_evenly

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
#: per-quantum kinds, applied per partition with per-task UDF metering
NARROW_KINDS = frozenset({"map", "flatmap", "filter", "fused.narrow"})
#: kinds that shuffle their input by key, then run per partition
KEYED_KINDS = frozenset(
    {"groupby.hash", "groupby.sort", "distinct.hash", "distinct.sort"}
)
#: joins that co-partition both sides by key hash
CO_SHUFFLED_KINDS = frozenset({"join.hash", "join.sortmerge"})
#: kinds that collect the right side to the driver and ship it to every
#: left partition — the left side is never shuffled
BROADCAST_KINDS = frozenset({"join.broadcast", "join.nestedloop", "cross"})
#: sources parallelise the kernel's collection into partitions
SOURCE_KINDS = frozenset({"source.collection", "source.textfile", "source.table"})


def _identity(quantum: Any) -> Any:
    return quantum


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

    def apply(
        self,
        operator: PhysicalOperator,
        inputs: list[Any],
        runtime: RuntimeContext,
        ledger: CostLedger,
    ) -> SimRDD:
        kind = operator.kind
        kernel = self._kernel(operator)
        width = self.cluster.default_parallelism

        def run(*parts: list[Any]) -> list[Any]:
            return kernel(operator, runtime, list(parts))

        if kind in NARROW_KINDS:
            return self.map_partitions_measured(inputs[0], run, ledger)
        if kind in KEYED_KINDS:
            key = operator.key if kind.startswith("groupby") else _identity
            return inputs[0].shuffle_by_key(key, width).map_partitions(run)
        if kind in CO_SHUFFLED_KINDS:
            left = inputs[0].shuffle_by_key(operator.left_key, width)
            right = inputs[1].shuffle_by_key(operator.right_key, width)
            return SimRDD(list(map(run, left.partitions, right.partitions)))
        if kind in BROADCAST_KINDS:
            broadcast = inputs[1].collect()
            return inputs[0].map_partitions(lambda part: run(part, broadcast))
        if kind == "reduceby.hash":
            # map-side combine, shuffle the combined pairs, final reduce
            combined = inputs[0].map_partitions(run)
            return combined.shuffle_by_key(operator.key, width).map_partitions(run)
        if kind == "reduce.global":
            # per-partition fold, then a driver-side final fold
            partials = [value for part in inputs[0].partitions for value in run(part)]
            return SimRDD([run(partials)])
        if kind in SOURCE_KINDS:
            return SimRDD.from_collection(run(), width)
        if kind == "zipwithid":
            return _zip_with_id(inputs[0])
        if kind == "limit":
            return _take(inputs[0], operator.n)
        if kind == "count":
            return SimRDD([[inputs[0].count()]])
        if kind == "union":
            return inputs[0].union(inputs[1])
        if kind == "sink.collect":
            return inputs[0]
        # everything else (sort, sample, extension kinds): gather to the
        # driver, run the kernel, range-split the result (for sort, a
        # simplified TeraSort)
        gathered = kernel(operator, runtime, [rdd.collect() for rdd in inputs])
        return SimRDD(split_evenly(gathered, width))

    def map_partitions_measured(
        self,
        rdd: SimRDD,
        fn: Callable[[list[Any]], Any],
        ledger: CostLedger,
    ) -> SimRDD:
        """Apply ``fn`` per partition, metering reported UDF work per task.

        The stage's virtual latency is charged straggler-aware: a UDF that
        concentrates its (reported) work in one partition is priced as a
        single slow task, not as perfectly parallel work — this is what
        makes the monolithic detection baselines pay for their skew.
        """
        workmeter.drain_work()
        outputs: list[list[Any]] = []
        per_task: list[float] = []
        for partition in rdd.partitions:
            outputs.append(list(fn(partition)))
            per_task.append(workmeter.drain_work())
        total = sum(per_task)
        if total:
            ledger.charge(
                "op.udf_work",
                self.cost_model.udf_work_ms(total, max(per_task)),
                self.name,
                ledger.atom_id,
            )
        return SimRDD(outputs)

    def ingest(self, data: list[Any]) -> SimRDD:
        return SimRDD.from_collection(data, self.cluster.default_parallelism)

    def egest(self, native: Any) -> list[Any]:
        return native.collect()

    def native_card(self, native: Any) -> int:
        return native.count()


def _zip_with_id(rdd: SimRDD) -> SimRDD:
    """Two-pass global id assignment, like Spark's ``zipWithIndex``."""
    offsets: list[int] = []
    total = 0
    for partition in rdd.partitions:
        offsets.append(total)
        total += len(partition)
    return SimRDD(
        [
            [(offset + i, quantum) for i, quantum in enumerate(partition)]
            for offset, partition in zip(offsets, rdd.partitions)
        ]
    )


def _take(rdd: SimRDD, n: int) -> SimRDD:
    """The first n quanta in partition order (Spark's ``take()``)."""
    taken: list[Any] = []
    for partition in rdd.partitions:
        if len(taken) >= n:
            break
        taken.extend(partition[: n - len(taken)])
    return SimRDD([taken])
