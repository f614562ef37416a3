"""Batch execution helpers for the per-quantum operator shapes.

Each helper runs one operator over a whole batch through the CPython C
loop — ``map()`` / ``filter()`` / ``itertools.chain.from_iterable`` —
so there is no per-element frame setup, and UDFs that are themselves C
callables (``operator.itemgetter``, ``operator.methodcaller``, builtins)
never enter the interpreter at all.

**Determinism contract.**  Batch kernels decide *wall time only*: outputs,
virtual-time charges and the ledger entry sequence are functions of the
plan, never of which kernel ran.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Callable, Iterable

#: thread-local scratch slot recording which batch kernel last engaged
#: (drained onto the enclosing operator span by the atom interpreter)
_note = threading.local()


def note_kernel(name: str) -> None:
    """Record that batch kernel ``name`` ran (span attribution only)."""
    _note.value = name


def drain_kernel_note() -> str | None:
    """Read-and-clear the last batch-kernel note for this thread."""
    value = getattr(_note, "value", None)
    _note.value = None
    return value


#: lazily bound columnar module (imported on first batch sighting; the
#: columnar module imports this one, so a top-level import would cycle)
_columnar = None


def _columnar_mod():
    global _columnar
    if _columnar is None:
        from repro.core.physical import columnar

        _columnar = columnar
    return _columnar


# ----------------------------------------------------------------------
# per-quantum operator shapes, batch-at-a-time
# ----------------------------------------------------------------------
def batch_map(udf: Callable[[Any], Any], data: Iterable[Any]) -> Any:
    """``[udf(q) for q in data]`` through the C loop.

    A :class:`~repro.core.physical.columnar.ColumnarBatch` input with an
    itemgetter projection stays columnar — buffers are selected, not
    iterated — and the columnar result flows onward.  Ineligible UDFs
    materialise the batch's row view and take the ordinary path.
    """
    if getattr(data, "is_columnar_batch", False):
        native = _columnar_mod().native_map(udf, data)
        if native is not None:
            return native
        data = data.rows()
    note_kernel("map.batch")
    return list(map(udf, data))


def batch_filter(
    predicate: Callable[[Any], Any], data: Iterable[Any]
) -> Any:
    """``[q for q in data if predicate(q)]`` through the C loop.

    Single-column predicates over a columnar batch run as one mask pass
    over the predicate column; ineligible predicates fall back to rows.
    """
    if getattr(data, "is_columnar_batch", False):
        native = _columnar_mod().native_filter(predicate, data)
        if native is not None:
            return native
        data = data.rows()
    note_kernel("filter.batch")
    return list(filter(predicate, data))


def batch_flatmap(
    udf: Callable[[Any], Iterable[Any]], data: Iterable[Any]
) -> list[Any]:
    """``[out for q in data for out in udf(q)]`` through the C loop.

    Flat-map outputs are inherently ragged, so a columnar batch input
    always materialises its row view first.
    """
    if getattr(data, "is_columnar_batch", False):
        data = data.rows()
    note_kernel("flatmap.batch")
    return list(chain.from_iterable(map(udf, data)))
