"""IEJoin: the inequality-join operator from Khayyat et al. [20].

The paper's §5 uses this operator as its extensibility showcase: "we
extended the set of physical RHEEM operators with a new join operator
(called IEJoin) to boost performance".  This module does exactly that:

* :func:`ie_join_pairs` — the algorithm itself: both relations are sorted
  on the first join attribute, the second attribute is reduced to rank
  positions, and a **bit array over rank positions** marks which left
  tuples are "active" while the right relation is swept in first-
  attribute order; eligible partners are read off contiguous bit-array
  slices.  This is the sorted-arrays + permutation + bit-array structure
  of the PVLDB'15 algorithm, with complexity
  ``O(n log n + m log m + scan + output)`` — versus the quadratic
  cross-product baseline.
* :class:`InequalityJoin` — a *new logical operator* an application can
  use in plans;
* :class:`PIEJoin` — the new physical operator (with a nested-loop
  variant as alternate), registered through the standard mapping registry
  plus one operator-table kernel, and executed on every platform via
  :func:`register_iejoin` — no core changes required.
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.logical.operators import CostHints, LogicalOperator
from repro.core.mappings import OperatorMappings
from repro.core.optimizer.cost import OperatorCostInput
from repro.core.optimizer.workunits import register_work_units
from repro.core.physical.operators import PhysicalOperator, PNestedLoopJoin
from repro.core.physical.table import KERNELS
from repro.core.runtime import RuntimeContext
from repro.core.types import KeyUdf
from repro.core.workmeter import report_work
from repro.errors import RuleError
from repro.platforms.base import Platform

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def ie_join_pairs(
    left: Sequence[Any],
    right: Sequence[Any],
    left_key1: KeyUdf,
    op1: str,
    right_key1: KeyUdf,
    left_key2: KeyUdf,
    op2: str,
    right_key2: KeyUdf,
) -> Iterator[tuple[Any, Any]]:
    """All pairs (l, r) with ``k1(l) op1 k1(r)`` and ``k2(l) op2 k2(r)``.

    Yields pairs in right-sweep order.  Both operators must be inequality
    comparators (``<``, ``<=``, ``>``, ``>=``).
    """
    for op in (op1, op2):
        if op not in _COMPARATORS:
            raise RuleError(
                f"IEJoin handles inequality operators only, got {op!r}"
            )
    if not left or not right:
        return

    # Meter the real algorithmic work: two sorts, the bitmap sweep, and
    # one unit per emitted pair (drained by the platform atom interpreter).
    n, m = len(left), len(right)
    report_work(
        0.25 * (n * float(np.log2(max(n, 2))) + m * float(np.log2(max(m, 2))))
        + (n + m) / 16.0
    )

    compare1 = _COMPARATORS[op1]
    descending1 = op1 in (">", ">=")

    # Sort both relations on the first attribute, in the sweep direction:
    # when scanning right tuples in this order, the set of left tuples
    # satisfying predicate 1 only ever grows.
    left_order = sorted(
        range(len(left)), key=lambda i: left_key1(left[i]), reverse=descending1
    )
    right_order = sorted(
        range(len(right)), key=lambda j: right_key1(right[j]), reverse=descending1
    )

    # Rank positions of left tuples on the second attribute (always
    # ascending), plus the sorted key list for offset lookups — the
    # "permutation array" of the PVLDB algorithm.
    y_order = sorted(range(len(left)), key=lambda i: left_key2(left[i]))
    y_keys = [left_key2(left[i]) for i in y_order]
    rank_of_left = {index: rank for rank, index in enumerate(y_order)}
    y_order_array = np.asarray(y_order)

    # The bit array: active[rank] == True once the left tuple at that
    # second-attribute rank satisfies predicate 1 for the current right.
    active = np.zeros(len(left), dtype=bool)

    pointer = 0
    for j in right_order:
        right_tuple = right[j]
        rx = right_key1(right_tuple)
        while pointer < len(left_order) and compare1(
            left_key1(left[left_order[pointer]]), rx
        ):
            active[rank_of_left[left_order[pointer]]] = True
            pointer += 1
        ry = right_key2(right_tuple)
        # Offset into the rank dimension for predicate 2.
        if op2 == ">":
            low, high = bisect.bisect_right(y_keys, ry), len(y_keys)
        elif op2 == ">=":
            low, high = bisect.bisect_left(y_keys, ry), len(y_keys)
        elif op2 == "<":
            low, high = 0, bisect.bisect_left(y_keys, ry)
        else:  # "<="
            low, high = 0, bisect.bisect_right(y_keys, ry)
        if low >= high:
            continue
        hits = np.nonzero(active[low:high])[0]
        report_work(float(len(hits)))
        for rank in hits:
            yield (left[y_order_array[low + rank]], right_tuple)


# ----------------------------------------------------------------------
# operator integration (the §5.2 extensibility path)
# ----------------------------------------------------------------------
class InequalityJoin(LogicalOperator):
    """Logical operator: join two inputs on two inequality conditions."""

    num_inputs = 2

    def __init__(
        self,
        left_key1: KeyUdf,
        op1: str,
        right_key1: KeyUdf,
        left_key2: KeyUdf,
        op2: str,
        right_key2: KeyUdf,
        name: str | None = None,
        hints: CostHints | None = None,
    ):
        super().__init__(name or "InequalityJoin", hints)
        for op in (op1, op2):
            if op not in _COMPARATORS:
                raise RuleError(f"unsupported inequality operator {op!r}")
        self.left_key1 = left_key1
        self.op1 = op1
        self.right_key1 = right_key1
        self.left_key2 = left_key2
        self.op2 = op2
        self.right_key2 = right_key2

    def pair_predicate(self, left: Any, right: Any) -> bool:
        """The equivalent theta-join predicate (for fallback variants)."""
        return _COMPARATORS[self.op1](
            self.left_key1(left), self.right_key1(right)
        ) and _COMPARATORS[self.op2](self.left_key2(left), self.right_key2(right))


class PIEJoin(PhysicalOperator):
    """Physical IEJoin operator (kind ``join.iejoin``)."""

    kind = "join.iejoin"
    num_inputs = 2

    def __init__(self, logical: InequalityJoin):
        super().__init__(logical, "PIEJoin")
        self.join = logical


def _iejoin_kernel(
    op: PIEJoin, runtime: RuntimeContext, inputs: list[Any]
) -> list[Any]:
    join = op.join
    return list(
        ie_join_pairs(
            list(inputs[0]),
            list(inputs[1]),
            join.left_key1, join.op1, join.right_key1,
            join.left_key2, join.op2, join.right_key2,
        )
    )


def _iejoin_work_units(cost_input: OperatorCostInput) -> float:
    left, right = cost_input.input_cards
    sort_part = 0.25 * (
        left * float(np.log2(max(left, 2.0)))
        + right * float(np.log2(max(right, 2.0)))
    )
    # Bitmap scans are vectorised: ~1/16th of a per-tuple operation each.
    scan_part = (left + right) / 16.0
    return sort_part + scan_part + cost_input.output_card


def _nested_loop_variant(logical: InequalityJoin) -> PNestedLoopJoin:
    return PNestedLoopJoin(logical, logical.pair_predicate)


def register_iejoin(
    mappings: OperatorMappings, platforms: Sequence[Platform]
) -> None:
    """Plug IEJoin into a mapping registry and a set of platforms.

    This is the extensibility path of §5.2: a new physical operator with
    a nested-loop alternate, one operator-table kernel that every
    platform applies its own way (the simulated Spark gathers, joins and
    re-partitions; the relational and in-process engines run it as is),
    and a work unit estimate — all registered declaratively.  Idempotent.
    """
    if not mappings.has_mapping(InequalityJoin):
        mappings.register(InequalityJoin, PIEJoin, prepend=True)
        mappings.register(InequalityJoin, _nested_loop_variant)
    register_work_units(PIEJoin.kind, _iejoin_work_units)
    KERNELS[PIEJoin.kind] = _iejoin_kernel
    for platform in platforms:
        platform.kinds.add(PIEJoin.kind)
