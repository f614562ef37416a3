"""Algorithm kernels backing the physical operators.

A physical operator "represents an algorithmic decision for executing an
analytic task" (paper §3.1) — hash- versus sort-based grouping, hash
versus sort-merge joins, and so on.  The decisions live here as pure
functions over Python sequences so that every processing platform reuses
the *same algorithm* while layering its own orchestration (partitioning,
shuffles, relational storage) around it.  That separation is exactly the
physical/execution split the paper advocates.
"""

from __future__ import annotations

import random
from functools import reduce as _reduce
from itertools import product as _product
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.physical import columnar
from repro.core.physical.compiled import note_kernel
from repro.core.types import KeyUdf


def _rows(items: Iterable[Any]) -> list[Any]:
    """Materialise once so key columns and rows can be zipped safely."""
    if getattr(items, "is_columnar_batch", False):
        return items.rows()
    return items if isinstance(items, list) else list(items)


def _key_build(side: Any, key: KeyUdf) -> tuple[Any, list[Any], bool]:
    """``(keys, rows, columnar)`` — the key build for a hash table.

    For a :class:`~repro.core.physical.columnar.ColumnarBatch` with a
    single-column key, the key stream is the packed column buffer itself
    (no per-row ``key(row)`` calls); otherwise one ``map(key, rows)``
    C pass over the materialised rows.
    """
    native = columnar.native_keys(side, key)
    if native is not None:
        return native[0], native[1], True
    rows = _rows(side)
    return map(key, rows), rows, False


def hash_group_by(items: Iterable[Any], key: KeyUdf) -> list[tuple[Any, list[Any]]]:
    """Group ``items`` by ``key`` using a hash table.

    Output order follows first appearance of each key, which keeps results
    deterministic for tests.

    The batch kernel prebuilds the key column with ``map(key, rows)`` —
    one C-level pass that never re-enters the interpreter when ``key``
    is an ``operator.itemgetter``/``attrgetter`` — and zips it with the
    rows while filling the hash table.
    """
    keys, rows, native = _key_build(items, key)
    note_kernel("groupby.hash.columnar" if native else "groupby.hash.batch")
    groups: dict[Any, list[Any]] = {}
    setdefault = groups.setdefault
    for item_key, item in zip(keys, rows):
        setdefault(item_key, []).append(item)
    return list(groups.items())


def sort_group_by(items: Iterable[Any], key: KeyUdf) -> list[tuple[Any, list[Any]]]:
    """Group ``items`` by ``key`` by sorting then scanning adjacent runs.

    Requires keys to be orderable; produces groups in ascending key order.
    """
    ordered = sorted(items, key=key)
    groups: list[tuple[Any, list[Any]]] = []
    current_key: Any = None
    current_group: list[Any] | None = None
    for item in ordered:
        item_key = key(item)
        if current_group is None or item_key != current_key:
            current_group = [item]
            current_key = item_key
            groups.append((item_key, current_group))
        else:
            current_group.append(item)
    return groups


def hash_reduce_by(
    items: Iterable[Any], key: KeyUdf, reducer: Callable[[Any, Any], Any]
) -> list[Any]:
    """Incrementally reduce ``items`` sharing a key (hash-based combine).

    Returns one combined quantum per distinct key, in first-appearance
    order.  The reducer must preserve the key of its operands (the usual
    ``reduceByKey`` contract), which is what allows distributed engines to
    re-derive the key from partially combined quanta.
    """
    if getattr(items, "is_columnar_batch", False):
        swept = columnar.native_reduce_by(items, key, reducer)
        if swept is not None:
            return swept
    keys, rows, native = _key_build(items, key)
    note_kernel("reduceby.hash.columnar" if native else "reduceby.hash.batch")
    accumulators: dict[Any, Any] = {}
    for item_key, item in zip(keys, rows):
        if item_key in accumulators:
            accumulators[item_key] = reducer(accumulators[item_key], item)
        else:
            accumulators[item_key] = item
    return list(accumulators.values())


def global_reduce(items: Iterable[Any], reducer: Callable[[Any, Any], Any]) -> list[Any]:
    """Fold all items into at most one quantum (empty input → empty output)."""
    iterator = iter(items)
    try:
        accumulator = next(iterator)
    except StopIteration:
        return []
    if getattr(items, "is_columnar_batch", False) and items.scalar:
        # iter(batch) on a scalar layout walks the packed buffer
        # directly — the fold never touches a row list
        note_kernel("reduce.global.columnar")
    else:
        note_kernel("reduce.global.batch")
    return [_reduce(reducer, iterator, accumulator)]


def hash_join(
    left: Sequence[Any], right: Sequence[Any], left_key: KeyUdf, right_key: KeyUdf
) -> Iterator[tuple[Any, Any]]:
    """Classic build/probe hash equi-join; builds on the smaller side.

    Both key columns are prebuilt with ``map(key, side)`` (one C pass
    per side — free for itemgetter keys) and zipped with the rows
    through build and probe.
    """
    empty: tuple[Any, ...] = ()
    left_keys, left_rows, left_native = _key_build(left, left_key)
    right_keys, right_rows, right_native = _key_build(right, right_key)
    note_kernel(
        "join.hash.columnar" if left_native or right_native
        else "join.hash.batch"
    )
    if len(left_rows) <= len(right_rows):
        table: dict[Any, list[Any]] = {}
        setdefault = table.setdefault
        for item_key, item in zip(left_keys, left_rows):
            setdefault(item_key, []).append(item)
        get = table.get
        for item_key, right_item in zip(right_keys, right_rows):
            for left_item in get(item_key, empty):
                yield (left_item, right_item)
    else:
        table = {}
        setdefault = table.setdefault
        for item_key, item in zip(right_keys, right_rows):
            setdefault(item_key, []).append(item)
        get = table.get
        for item_key, left_item in zip(left_keys, left_rows):
            for right_item in get(item_key, empty):
                yield (left_item, right_item)


def sort_merge_join(
    left: Sequence[Any], right: Sequence[Any], left_key: KeyUdf, right_key: KeyUdf
) -> Iterator[tuple[Any, Any]]:
    """Sort-merge equi-join; requires orderable keys."""
    left_sorted = sorted(left, key=left_key)
    right_sorted = sorted(right, key=right_key)
    i = j = 0
    while i < len(left_sorted) and j < len(right_sorted):
        lk = left_key(left_sorted[i])
        rk = right_key(right_sorted[j])
        if lk < rk:
            i += 1
        elif lk > rk:
            j += 1
        else:
            # Gather the full run of equal keys on both sides.
            i_end = i
            while i_end < len(left_sorted) and left_key(left_sorted[i_end]) == lk:
                i_end += 1
            j_end = j
            while j_end < len(right_sorted) and right_key(right_sorted[j_end]) == rk:
                j_end += 1
            for left_item in left_sorted[i:i_end]:
                for right_item in right_sorted[j:j_end]:
                    yield (left_item, right_item)
            i, j = i_end, j_end


def nested_loop_join(
    left: Sequence[Any],
    right: Sequence[Any],
    predicate: Callable[[Any, Any], bool],
) -> Iterator[tuple[Any, Any]]:
    """Theta-join by exhaustive pairing; the fallback for arbitrary predicates."""
    for left_item in left:
        for right_item in right:
            if predicate(left_item, right_item):
                yield (left_item, right_item)


def cross_product(left: Sequence[Any], right: Sequence[Any]) -> Iterator[tuple[Any, Any]]:
    """Cartesian product of two sequences."""
    note_kernel("cross.batch")
    return _product(left, right)


def hash_distinct(items: Iterable[Any]) -> list[Any]:
    """Deduplicate hashable items, preserving first-appearance order."""
    note_kernel("distinct.hash.batch")
    # dict preserves insertion order; dict.fromkeys dedupes in one
    # C pass over hashable quanta
    return list(dict.fromkeys(items))


def sort_distinct(items: Iterable[Any]) -> list[Any]:
    """Deduplicate by sorting; output in ascending order."""
    ordered = sorted(items)
    result: list[Any] = []
    for item in ordered:
        if not result or item != result[-1]:
            result.append(item)
    return result


def uniform_sample(items: Sequence[Any], size: int, seed: int) -> list[Any]:
    """Sample ``size`` items uniformly without replacement (deterministic)."""
    if size >= len(items):
        return list(items)
    rng = random.Random(seed)
    return rng.sample(list(items), size)
