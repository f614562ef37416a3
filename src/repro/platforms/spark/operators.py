"""Execution operators of the simulated Spark platform.

Narrow operators run per partition; wide operators shuffle first (really
moving quanta between partitions) and then run the shared algorithm
kernels per partition — the paper's example mapping of ``Initialize`` /
``Process`` onto ``MapPartitions`` / ``ReduceByKey`` (Example 3) is
exactly this structure.
"""

from __future__ import annotations

from typing import Any

from repro.core import workmeter
from repro.core.metrics import CostLedger
from repro.core.physical import kernels
from repro.core.physical.compiled import (
    batch_filter,
    batch_flatmap,
    batch_map,
)
from repro.core.physical.fusion import compose_stages, iter_source
from repro.core.physical.operators import (
    PCollectionSource,
    PSample,
    PSort,
    PTableSource,
)
from repro.core.runtime import RuntimeContext
from repro.errors import ExecutionError
from repro.platforms.base import ExecutionOperator
from repro.platforms.spark.rdd import SimRDD
from repro.util.iterators import split_evenly


class SparkExecutionOperator(ExecutionOperator):
    """Base for Spark execution operators; exposes the cluster config."""

    @property
    def cluster(self):
        return self.platform.cluster

    def parallelize(self, data: list[Any]) -> SimRDD:
        return SimRDD.from_collection(data, self.cluster.default_parallelism)

    def map_partitions_measured(
        self, rdd: SimRDD, fn, ledger: CostLedger
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
                self.platform.cost_model.udf_work_ms(total, max(per_task)),
                self.platform.name,
            )
        return SimRDD(outputs)


class SCollectionSource(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op: PCollectionSource = self.physical
        return self.parallelize(list(op.data))


class STextFileSource(SparkExecutionOperator):
    """Text-file scan into partitions.

    Stays a standalone operator on purpose (no source fusion): the
    partitioned representation is what the per-task workmeter pricing of
    downstream narrow stages is keyed on.
    """

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        return self.parallelize(list(iter_source(self.physical)))


class STableSource(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op: PTableSource = self.physical
        if runtime.catalog is None:
            raise ExecutionError(
                f"TableSource({op.dataset!r}) requires a storage catalog"
            )
        return self.parallelize(runtime.catalog.read_dataset(op.dataset))


class SMap(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        udf = self.physical.udf
        return self.map_partitions_measured(
            inputs[0], lambda part: batch_map(udf, part), ledger
        )


class SFlatMap(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        udf = self.physical.udf
        return self.map_partitions_measured(
            inputs[0], lambda part: batch_flatmap(udf, part), ledger
        )


class SFilter(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        predicate = self.physical.predicate
        return self.map_partitions_measured(
            inputs[0], lambda part: batch_filter(predicate, part), ledger
        )


class SZipWithId(SparkExecutionOperator):
    """Two-pass global id assignment, like Spark's ``zipWithIndex``."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        rdd: SimRDD = inputs[0]
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


class SHashGroupBy(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        key = self.physical.key
        shuffled = inputs[0].shuffle_by_key(key, self.cluster.default_parallelism)
        return shuffled.map_partitions(lambda part: kernels.hash_group_by(part, key))


class SSortGroupBy(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        key = self.physical.key
        shuffled = inputs[0].shuffle_by_key(key, self.cluster.default_parallelism)
        return shuffled.map_partitions(lambda part: kernels.sort_group_by(part, key))


class SReduceBy(SparkExecutionOperator):
    """Map-side combine, shuffle the combined pairs, final reduce."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op = self.physical
        combined = inputs[0].map_partitions(
            lambda part: kernels.hash_reduce_by(part, op.key, op.reducer)
        )
        shuffled = combined.shuffle_by_key(op.key, self.cluster.default_parallelism)
        return shuffled.map_partitions(
            lambda part: kernels.hash_reduce_by(part, op.key, op.reducer)
        )


class SGlobalReduce(SparkExecutionOperator):
    """Per-partition fold then a driver-side final fold."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        reducer = self.physical.reducer
        partials = [
            kernels.global_reduce(partition, reducer)
            for partition in inputs[0].partitions
        ]
        flat = [value for partial in partials for value in partial]
        return SimRDD([kernels.global_reduce(flat, reducer)])


class SHashJoin(SparkExecutionOperator):
    """Co-partition both sides by key hash, then join per partition."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op = self.physical
        parallelism = self.cluster.default_parallelism
        left = inputs[0].shuffle_by_key(op.left_key, parallelism)
        right = inputs[1].shuffle_by_key(op.right_key, parallelism)
        joined = [
            list(kernels.hash_join(lp, rp, op.left_key, op.right_key))
            for lp, rp in zip(left.partitions, right.partitions)
        ]
        return SimRDD(joined)


class SBroadcastJoin(SparkExecutionOperator):
    """Map-side join: collect the right side to the driver, hash it, and
    probe per left partition — the left side is never shuffled."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op = self.physical
        broadcast = inputs[1].collect()
        return inputs[0].map_partitions(
            lambda part: list(
                kernels.hash_join(part, broadcast, op.left_key, op.right_key)
            )
        )


class SSortMergeJoin(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op = self.physical
        parallelism = self.cluster.default_parallelism
        left = inputs[0].shuffle_by_key(op.left_key, parallelism)
        right = inputs[1].shuffle_by_key(op.right_key, parallelism)
        joined = [
            list(kernels.sort_merge_join(lp, rp, op.left_key, op.right_key))
            for lp, rp in zip(left.partitions, right.partitions)
        ]
        return SimRDD(joined)


class SNestedLoopJoin(SparkExecutionOperator):
    """Broadcast the (whole) right side and theta-join per left partition."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op = self.physical
        broadcast_right = inputs[1].collect()
        return inputs[0].map_partitions(
            lambda part: list(
                kernels.nested_loop_join(part, broadcast_right, op.pair_predicate)
            )
        )


class SCrossProduct(SparkExecutionOperator):
    """Broadcast the right side; emit pairs per left partition."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        broadcast_right = inputs[1].collect()
        return inputs[0].map_partitions(
            lambda part: list(kernels.cross_product(part, broadcast_right))
        )


class SUnion(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        return inputs[0].union(inputs[1])


class SSort(SparkExecutionOperator):
    """Global sort: gather, sort, range-split (a simplified TeraSort)."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op: PSort = self.physical
        ordered = sorted(inputs[0].collect(), key=op.key, reverse=op.reverse)
        return SimRDD(split_evenly(ordered, self.cluster.default_parallelism))


class SHashDistinct(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        shuffled = inputs[0].shuffle_by_key(
            lambda q: q, self.cluster.default_parallelism
        )
        return shuffled.map_partitions(kernels.hash_distinct)


class SSortDistinct(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        shuffled = inputs[0].shuffle_by_key(
            lambda q: q, self.cluster.default_parallelism
        )
        return shuffled.map_partitions(kernels.sort_distinct)


class SSample(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        op: PSample = self.physical
        sampled = kernels.uniform_sample(inputs[0].collect(), op.size, op.seed)
        return self.parallelize(sampled)


class SLimit(SparkExecutionOperator):
    """Take the first n quanta in partition order (Spark's take())."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        n = self.physical.n
        taken: list[Any] = []
        for partition in inputs[0].partitions:
            if len(taken) >= n:
                break
            taken.extend(partition[: n - len(taken)])
        return SimRDD([taken])


class SCount(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        return SimRDD([[inputs[0].count()]])


class SFusedPipeline(SparkExecutionOperator):
    """Fused narrow chain applied per partition in a single pass — the
    simulation of Spark's own stage pipelining (compiled to one
    iterator stack per partition, no per-stage intermediates)."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        fn = compose_stages(self.physical.narrow_stages)
        return self.map_partitions_measured(inputs[0], fn, ledger)


class SCollectSink(SparkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> SimRDD:
        return inputs[0]


def register_all(platform) -> None:
    """Register the full execution-operator mapping for the platform."""
    table = {
        "source.collection": SCollectionSource,
        "source.textfile": STextFileSource,
        "source.table": STableSource,
        "map": SMap,
        "flatmap": SFlatMap,
        "filter": SFilter,
        "zipwithid": SZipWithId,
        "groupby.hash": SHashGroupBy,
        "groupby.sort": SSortGroupBy,
        "reduceby.hash": SReduceBy,
        "reduce.global": SGlobalReduce,
        "join.hash": SHashJoin,
        "join.broadcast": SBroadcastJoin,
        "join.sortmerge": SSortMergeJoin,
        "join.nestedloop": SNestedLoopJoin,
        "cross": SCrossProduct,
        "union": SUnion,
        "sort": SSort,
        "distinct.hash": SHashDistinct,
        "distinct.sort": SSortDistinct,
        "sample": SSample,
        "count": SCount,
        "limit": SLimit,
        "fused.narrow": SFusedPipeline,
        "sink.collect": SCollectSink,
    }
    for kind, klass in table.items():
        platform.register_execution_operator(kind, klass)
