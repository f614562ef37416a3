"""Execution operators of the pipelined ("flink") platform.

Narrow operators chain lazily on :class:`DataStream`; wide operators
force the stream and run the shared kernels.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.core.metrics import CostLedger
from repro.core.physical import kernels
from repro.core.physical.fusion import compose_stream, iter_source
from repro.core.physical.operators import (
    PCollectionSource,
    PSample,
    PSort,
    PTableSource,
)
from repro.core.runtime import RuntimeContext
from repro.errors import ExecutionError
from repro.platforms.base import ExecutionOperator, Platform
from repro.platforms.flink.stream import DataStream


class FlinkExecutionOperator(ExecutionOperator):
    """Base class; the native dataset is a :class:`DataStream`."""


class FCollectionSource(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op: PCollectionSource = self.physical
        return DataStream.from_list(op.data)


class FTextFileSource(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return DataStream.from_list(list(iter_source(self.physical)))


class FTableSource(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op: PTableSource = self.physical
        if runtime.catalog is None:
            raise ExecutionError(
                f"TableSource({op.dataset!r}) requires a storage catalog"
            )
        return DataStream.from_list(runtime.catalog.read_dataset(op.dataset))


class FMap(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        udf = self.physical.udf
        return inputs[0].transform(lambda it: map(udf, it))


class FFlatMap(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        udf = self.physical.udf
        return inputs[0].transform(
            lambda it: itertools.chain.from_iterable(map(udf, it))
        )


class FFilter(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        predicate = self.physical.predicate
        return inputs[0].transform(lambda it: filter(predicate, it))


class FZipWithId(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return inputs[0].transform(lambda it: iter(enumerate(list(it))))


class FHashGroupBy(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        key = self.physical.key
        return DataStream.from_list(
            kernels.hash_group_by(inputs[0].materialize(), key)
        )


class FSortGroupBy(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        key = self.physical.key
        return DataStream.from_list(
            kernels.sort_group_by(inputs[0].materialize(), key)
        )


class FReduceBy(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op = self.physical
        return DataStream.from_list(
            kernels.hash_reduce_by(inputs[0].materialize(), op.key, op.reducer)
        )


class FGlobalReduce(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return DataStream.from_list(
            kernels.global_reduce(inputs[0].materialize(), self.physical.reducer)
        )


class FHashJoin(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op = self.physical
        return DataStream.from_list(
            kernels.hash_join(
                inputs[0].materialize(), inputs[1].materialize(),
                op.left_key, op.right_key,
            )
        )


class FSortMergeJoin(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op = self.physical
        return DataStream.from_list(
            kernels.sort_merge_join(
                inputs[0].materialize(), inputs[1].materialize(),
                op.left_key, op.right_key,
            )
        )


class FNestedLoopJoin(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op = self.physical
        return DataStream.from_list(
            kernels.nested_loop_join(
                inputs[0].materialize(), inputs[1].materialize(),
                op.pair_predicate,
            )
        )


class FCrossProduct(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        left, right = inputs[0], inputs[1].materialize()
        return left.transform(
            lambda it: ((l, r) for l in it for r in right)
        )


class FUnion(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        first, second = inputs
        return DataStream(
            lambda: itertools.chain(first.iterate(), second.iterate())
        )


class FSort(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op: PSort = self.physical
        return DataStream.from_list(
            sorted(inputs[0].materialize(), key=op.key, reverse=op.reverse)
        )


class FHashDistinct(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return DataStream.from_list(kernels.hash_distinct(inputs[0].materialize()))


class FSortDistinct(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return DataStream.from_list(kernels.sort_distinct(inputs[0].materialize()))


class FSample(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op: PSample = self.physical
        return DataStream.from_list(
            kernels.uniform_sample(inputs[0].materialize(), op.size, op.seed)
        )


class FLimit(FlinkExecutionOperator):
    """Pipelined early-out: stops pulling upstream after n quanta."""

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        n = self.physical.n
        return inputs[0].transform(lambda it: itertools.islice(it, n))


class FCount(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return DataStream.from_list([len(inputs[0].materialize())])


class FFusedPipeline(FlinkExecutionOperator):
    """Fused narrow chain as one iterator pipeline (operator chaining).

    Compiled mode stacks ``map``/``filter``/``chain.from_iterable``
    lazily — one pass, zero intermediate materialisation; a fused source
    head streams file lines straight into the chain.
    """

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        op = self.physical
        stream = compose_stream(op.narrow_stages)
        source = op.source_stage
        if source is not None:
            return DataStream(lambda: stream(iter_source(source)))
        return inputs[0].transform(stream)


class FCollectSink(FlinkExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> DataStream:
        return inputs[0]


def register_all(platform: Platform) -> None:
    """Register the full execution-operator mapping for the platform."""
    table = {
        "source.collection": FCollectionSource,
        "source.textfile": FTextFileSource,
        "source.table": FTableSource,
        "map": FMap,
        "flatmap": FFlatMap,
        "filter": FFilter,
        "zipwithid": FZipWithId,
        "groupby.hash": FHashGroupBy,
        "groupby.sort": FSortGroupBy,
        "reduceby.hash": FReduceBy,
        "reduce.global": FGlobalReduce,
        "join.hash": FHashJoin,
        "join.broadcast": FHashJoin,
        "join.sortmerge": FSortMergeJoin,
        "join.nestedloop": FNestedLoopJoin,
        "cross": FCrossProduct,
        "union": FUnion,
        "sort": FSort,
        "distinct.hash": FHashDistinct,
        "distinct.sort": FSortDistinct,
        "sample": FSample,
        "count": FCount,
        "limit": FLimit,
        "fused.narrow": FFusedPipeline,
        "sink.collect": FCollectSink,
    }
    for kind, klass in table.items():
        platform.register_execution_operator(kind, klass)
