"""The operator table: one kernel per physical operator kind.

Paper §3 defines an execution operator as a thin wrapper around a
platform-native operation.  Here the native operation is the same on
every platform, so it lives once, in :data:`KERNELS`:
``kind -> fn(physical, runtime, inputs) -> list``, where ``inputs`` holds
one plain list (or a :class:`~repro.core.physical.columnar.ColumnarBatch`
hand-off) per input slot.  A platform supplies only its way of applying
an entry to its native datasets (:meth:`repro.platforms.base.Platform.
apply`): the in-process engine calls it directly, the simulated Spark
per partition around its shuffles, the pipelined engine lazily for
narrow kinds.

Extensions add an entry plus the kind on the platforms they plug into
(see :func:`repro.apps.cleaning.iejoin.register_iejoin`).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Callable

from repro.core.physical import kernels
from repro.core.physical.columnar import run_fused
from repro.core.physical.compiled import batch_filter, batch_flatmap, batch_map
from repro.core.physical.fusion import compose_stream, iter_source, pipeline_runner
from repro.core.physical.operators import PhysicalOperator
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import RuntimeContext

#: signature of a table entry
Kernel = Callable[[PhysicalOperator, "RuntimeContext", list[Any]], Any]


def _table_source(op, runtime, inputs):
    if runtime.catalog is None:
        raise ExecutionError(
            f"TableSource({op.dataset!r}) requires a storage catalog"
        )
    return runtime.catalog.read_dataset(op.dataset)


def _hash_join(op, runtime, inputs):
    return list(kernels.hash_join(inputs[0], inputs[1], op.left_key, op.right_key))


def _fused_narrow(op, runtime, inputs):
    """One pass over a fused narrow chain, compiled once per pipeline.

    A fused source head streams its quanta (file lines) straight into the
    first stage.  A columnar batch input runs its leading projection /
    filter stages on the column buffers (:func:`repro.core.physical.
    columnar.run_fused`), materialising rows only when a stage is
    ineligible.
    """
    source = op.source_stage
    if source is not None:
        return list(compose_stream(op.narrow_stages)(iter_source(source)))
    data = inputs[0]
    if getattr(data, "is_columnar_batch", False):
        return run_fused(op, data)
    return pipeline_runner(op)(data)


KERNELS: dict[str, Kernel] = {
    "source.collection": lambda op, runtime, inputs: list(op.data),
    "source.textfile": lambda op, runtime, inputs: list(iter_source(op)),
    "source.table": _table_source,
    "map": lambda op, runtime, inputs: batch_map(op.udf, inputs[0]),
    "flatmap": lambda op, runtime, inputs: batch_flatmap(op.udf, inputs[0]),
    "filter": lambda op, runtime, inputs: batch_filter(op.predicate, inputs[0]),
    "zipwithid": lambda op, runtime, inputs: list(enumerate(inputs[0])),
    "groupby.hash": lambda op, runtime, inputs: kernels.hash_group_by(
        inputs[0], op.key),
    "groupby.sort": lambda op, runtime, inputs: kernels.sort_group_by(
        inputs[0], op.key),
    "reduceby.hash": lambda op, runtime, inputs: kernels.hash_reduce_by(
        inputs[0], op.key, op.reducer),
    "reduce.global": lambda op, runtime, inputs: kernels.global_reduce(
        inputs[0], op.reducer),
    "join.hash": _hash_join,
    "join.broadcast": _hash_join,
    "join.sortmerge": lambda op, runtime, inputs: list(kernels.sort_merge_join(
        inputs[0], inputs[1], op.left_key, op.right_key)),
    "join.nestedloop": lambda op, runtime, inputs: list(kernels.nested_loop_join(
        inputs[0], inputs[1], op.pair_predicate)),
    "cross": lambda op, runtime, inputs: list(kernels.cross_product(
        inputs[0], inputs[1])),
    "union": lambda op, runtime, inputs: list(chain(inputs[0], inputs[1])),
    "sort": lambda op, runtime, inputs: sorted(
        inputs[0], key=op.key, reverse=op.reverse),
    "distinct.hash": lambda op, runtime, inputs: kernels.hash_distinct(inputs[0]),
    "distinct.sort": lambda op, runtime, inputs: kernels.sort_distinct(inputs[0]),
    "sample": lambda op, runtime, inputs: kernels.uniform_sample(
        inputs[0], op.size, op.seed),
    "count": lambda op, runtime, inputs: [len(inputs[0])],
    "limit": lambda op, runtime, inputs: list(inputs[0][: op.n]),
    "fused.narrow": _fused_narrow,
    "sink.collect": lambda op, runtime, inputs: list(inputs[0]),
}

#: the kinds every platform starts from (extensions add theirs per
#: platform instance)
BUILTIN_KINDS = frozenset(KERNELS)
