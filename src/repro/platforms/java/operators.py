"""Execution operators of the in-process ("Java") platform.

The native dataset representation is a plain Python list; operators apply
the shared algorithm kernels eagerly, exactly like a single-threaded Java
program looping over collections.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.core.metrics import CostLedger
from repro.core.physical import kernels
from repro.core.physical.columnar import run_fused
from repro.core.physical.compiled import (
    batch_filter,
    batch_flatmap,
    batch_map,
)
from repro.core.physical.fusion import (
    compose_stream,
    iter_source,
    pipeline_runner,
)
from repro.core.physical.operators import (
    PCollectionSource,
    PGlobalReduce,
    PHashGroupBy,
    PHashJoin,
    PNestedLoopJoin,
    PReduceBy,
    PSample,
    PSort,
    PSortGroupBy,
    PSortMergeJoin,
    PTableSource,
)
from repro.core.runtime import RuntimeContext
from repro.errors import ExecutionError
from repro.platforms.base import ExecutionOperator, Platform


class JavaExecutionOperator(ExecutionOperator):
    """Convenience base binding the physical operator with a precise type."""


class JCollectionSource(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PCollectionSource = self.physical
        return list(op.data)


class JTextFileSource(JavaExecutionOperator):
    """Standalone text-file scan.

    Only a source that survives fusion un-fused (e.g. it feeds a wide
    operator directly) runs standalone; a source feeding a narrow chain
    is normally fused into a :class:`JFusedPipeline` head instead and
    *streams* its lines into the first stage.
    """

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(iter_source(self.physical))


class JTableSource(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PTableSource = self.physical
        if runtime.catalog is None:
            raise ExecutionError(
                f"TableSource({op.dataset!r}) requires a storage catalog"
            )
        return runtime.catalog.read_dataset(op.dataset)


class JMap(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return batch_map(self.physical.udf, inputs[0])


class JFlatMap(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return batch_flatmap(self.physical.udf, inputs[0])


class JFilter(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return batch_filter(self.physical.predicate, inputs[0])


class JZipWithId(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(enumerate(inputs[0]))


class JHashGroupBy(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PHashGroupBy = self.physical
        return kernels.hash_group_by(inputs[0], op.key)


class JSortGroupBy(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PSortGroupBy = self.physical
        return kernels.sort_group_by(inputs[0], op.key)


class JReduceBy(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PReduceBy = self.physical
        return kernels.hash_reduce_by(inputs[0], op.key, op.reducer)


class JGlobalReduce(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PGlobalReduce = self.physical
        return kernels.global_reduce(inputs[0], op.reducer)


class JHashJoin(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PHashJoin = self.physical
        return list(kernels.hash_join(inputs[0], inputs[1], op.left_key, op.right_key))


class JSortMergeJoin(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PSortMergeJoin = self.physical
        return list(
            kernels.sort_merge_join(inputs[0], inputs[1], op.left_key, op.right_key)
        )


class JNestedLoopJoin(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PNestedLoopJoin = self.physical
        return list(
            kernels.nested_loop_join(inputs[0], inputs[1], op.pair_predicate)
        )


class JCrossProduct(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(kernels.cross_product(inputs[0], inputs[1]))


class JUnion(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(itertools.chain(inputs[0], inputs[1]))


class JSort(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PSort = self.physical
        return sorted(inputs[0], key=op.key, reverse=op.reverse)


class JHashDistinct(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return kernels.hash_distinct(inputs[0])


class JSortDistinct(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return kernels.sort_distinct(inputs[0])


class JSample(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op: PSample = self.physical
        return kernels.uniform_sample(inputs[0], op.size, op.seed)


class JLimit(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(inputs[0][: self.physical.n])


class JCount(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return [len(inputs[0])]


class JFusedPipeline(JavaExecutionOperator):
    """One-pass execution of a fused narrow chain (platform-layer opt).

    Compiled once per pipeline into a single-pass closure — one loop
    over the input, no per-stage intermediate lists.  A fused source
    head streams its quanta (file lines) straight into the first stage.
    A columnar batch input runs its leading projection/filter stages
    directly on the column buffers (:func:`repro.core.physical.columnar.
    run_fused`), materialising rows only when a stage is ineligible.
    """

    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        op = self.physical
        source = op.source_stage
        if source is not None:
            return list(compose_stream(op.narrow_stages)(iter_source(source)))
        data = inputs[0]
        if getattr(data, "is_columnar_batch", False):
            return run_fused(op, data)
        return pipeline_runner(op)(data)


class JCollectSink(JavaExecutionOperator):
    def apply_op(self, runtime: RuntimeContext, inputs: list[Any],
                 ledger: CostLedger) -> list[Any]:
        return list(inputs[0])


def register_all(platform: Platform) -> None:
    """Register the full execution-operator mapping for the platform."""
    table = {
        "source.collection": JCollectionSource,
        "source.textfile": JTextFileSource,
        "source.table": JTableSource,
        "map": JMap,
        "flatmap": JFlatMap,
        "filter": JFilter,
        "zipwithid": JZipWithId,
        "groupby.hash": JHashGroupBy,
        "groupby.sort": JSortGroupBy,
        "reduceby.hash": JReduceBy,
        "reduce.global": JGlobalReduce,
        "join.hash": JHashJoin,
        "join.broadcast": JHashJoin,
        "join.sortmerge": JSortMergeJoin,
        "join.nestedloop": JNestedLoopJoin,
        "cross": JCrossProduct,
        "union": JUnion,
        "sort": JSort,
        "distinct.hash": JHashDistinct,
        "distinct.sort": JSortDistinct,
        "sample": JSample,
        "count": JCount,
        "limit": JLimit,
        "fused.narrow": JFusedPipeline,
        "sink.collect": JCollectSink,
    }
    for kind, klass in table.items():
        platform.register_execution_operator(kind, klass)
