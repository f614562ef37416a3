"""Columnar-native batch kernels: compute directly on column buffers.

PR 4's :class:`~repro.core.channels.ColumnarChannel` made the *transport*
columnar — numeric hand-offs travel as struct-of-arrays ``array``
buffers — but every consumer still paid ``columnar.egest`` to
materialise row tuples before computing.  This module makes the column
format a *compute substrate* (the Shark playbook: a columnar memory
store the engine operates on in place):

* :class:`ColumnarBatch` — the native dataset form of a columnar
  hand-off *inside* an atom: the same ``'q'``/``'d'`` buffers, plus just
  enough sequence protocol (iteration, ``len``, slicing) that any
  operator without a native kernel transparently falls back to rows.
* eligibility introspection — ``operator.itemgetter`` projections,
  single-column predicates (:class:`ColumnPredicate` or a bare
  ``itemgetter(i)`` truthiness test), single-column keys, and declared
  columnwise reducers (:class:`ColumnwiseReduce`) are recognised
  statically, which is what the executor's elide gate
  (:func:`can_elide`, :func:`loop_state_consumers`) consults.
* native kernels — projection (zero-copy buffer selection), filtering
  (one mask pass + ``itertools.compress`` per column), columnwise
  reduce-by sweeps, and hash-join/group-by/reduce-by *key builds* that
  read the key column buffer instead of calling ``key(row)`` per row.

**Determinism contract.**  Exactly like the PR 4 batch kernels, the
columnar-native path changes *wall time only*: outputs are
byte-identical, virtual charges identical, and the ledger sequence
differs from the egest-per-consumer path only by the zero-cost
``columnar.elide`` entries the executor appends at elided boundaries
(the boundary's virtual ``columnar.egest`` price is still charged —
virtual time prices the hand-off, the *real* row materialisation is
what gets skipped).
"""

from __future__ import annotations

import array
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from repro.core.physical.compiled import note_kernel

__all__ = [
    "ColumnarBatch",
    "ColumnPredicate",
    "ColumnwiseReduce",
    "can_elide",
    "column_predicate",
    "key_column",
    "native_filter",
    "native_map",
    "native_reduce_by",
    "predicate_spec",
    "projection_indices",
    "run_fused",
]


class ColumnarBatch:
    """A struct-of-arrays dataset flowing between operators in an atom.

    Holds the same ``array('q')``/``array('d')`` buffers a
    :class:`~repro.core.channels.ColumnarChannel` holds; ``scalar``
    batches carry bare numbers in a single column, tuple batches one
    buffer per tuple position.  Immutable by convention: native kernels
    share buffers zero-copy (projection) or build fresh ones (filter),
    never mutate in place.

    The sequence protocol below is the universal fallback: any operator
    without a columnar kernel can iterate, ``len()``, index or slice a
    batch and observe exactly the rows the egested channel would have
    produced — which is what makes mid-chain ineligibility (an operator
    kind without a native kernel, a projection that widens past the
    layout) safe rather than wrong.
    """

    #: duck-type marker checked by the compiled helpers (avoids an
    #: import cycle with :mod:`repro.core.physical.compiled`)
    is_columnar_batch = True

    __slots__ = ("columns", "scalar", "_card", "_rows")

    def __init__(
        self, columns: list[array.array], scalar: bool, card: int
    ):
        self.columns = columns
        self.scalar = scalar
        self._card = card
        self._rows: list[Any] | None = None

    @property
    def width(self) -> int:
        """Number of columns (1 for scalar layouts)."""
        return len(self.columns)

    def column(self, index: int) -> array.array:
        """One packed column buffer."""
        return self.columns[index]

    def rows(self) -> list[Any]:
        """Materialise (and cache) the row view — the egest fallback."""
        if self._rows is None:
            if self.scalar:
                self._rows = list(self.columns[0])
            else:
                self._rows = list(zip(*self.columns))
        return self._rows

    def __len__(self) -> int:
        return self._card

    def __iter__(self) -> Iterator[Any]:
        if self.scalar:
            # Scalar sweeps read the buffer directly — no row list.
            return iter(self.columns[0])
        return iter(self.rows())

    def __getitem__(self, item: Any) -> Any:
        return self.rows()[item]

    def __repr__(self) -> str:
        layout = "scalar" if self.scalar else f"width={self.width}"
        return f"ColumnarBatch(n={self._card}, {layout})"


# ----------------------------------------------------------------------
# declared columnar-eligible UDF shapes
# ----------------------------------------------------------------------
class ColumnPredicate:
    """A declared single-column filter predicate.

    Row mode applies ``fn(row[index])`` per quantum; columnar mode maps
    ``fn`` over the column buffer in one pass.  ``fn`` should be cheap
    and side-effect free (a bound C method like ``(0).__lt__`` keeps the
    whole mask pass in C).
    """

    __slots__ = ("index", "fn")

    def __init__(self, index: int, fn: Callable[[Any], Any]):
        self.index = index
        self.fn = fn

    def __call__(self, row: Any) -> Any:
        return self.fn(row[self.index])

    def __repr__(self) -> str:
        return f"ColumnPredicate(col={self.index}, fn={self.fn!r})"


def column_predicate(index: int, fn: Callable[[Any], Any]) -> ColumnPredicate:
    """Declare a single-column predicate (columnar-eligible filter)."""
    return ColumnPredicate(index, fn)


#: each rule's term in a ColumnwiseReduce's generated pairwise combine
#: (``{j}`` is the column)
_TERMS = {"key": "a[{j}]", "sum": "a[{j}] + b[{j}]",
          "min": "min(a[{j}], b[{j}])", "max": "max(a[{j}], b[{j}])"}


class ColumnwiseReduce:
    """A declared columnwise reducer: one combine rule per column.

    ``spec`` names, per tuple position, either ``"key"`` (kept from the
    first quantum of the group — the usual reduce-by-key contract) or a
    combine from ``sum``/``min``/``max``.  The pairwise combine is
    generated once, in ``__init__``: spec ``("key", "sum")`` compiles to
    ``lambda a, b: (a[0], a[1] + b[1])``.  The reduce kernels fold
    tuples through it; the columnar sweep in :func:`native_reduce_by`
    runs the same fold over the buffers' values zipped into rows —
    byte-identical results.
    """

    __slots__ = ("spec", "combine")

    def __init__(self, spec: Sequence[str]):
        for entry in spec:
            if entry not in _TERMS:
                raise ValueError(
                    f"unknown columnwise combine {entry!r}; "
                    f"expected 'key' or one of {sorted(_TERMS.keys() - {'key'})}"
                )
        self.spec = tuple(spec)
        terms = [_TERMS[rule].format(j=j) for j, rule in enumerate(self.spec)]
        body = ", ".join(terms) + ("," if len(terms) == 1 else "")
        namespace: dict[str, Any] = {}
        exec(compile(f"combine = lambda a, b: ({body})", repr(self), "exec"),
             namespace)
        self.combine = namespace.pop("combine")

    def __call__(self, a: Any, b: Any) -> Any:
        return self.combine(a, b)

    def __reduce__(self) -> tuple:
        return (ColumnwiseReduce, (self.spec,))

    def __repr__(self) -> str:
        return f"ColumnwiseReduce({self.spec!r})"


# ----------------------------------------------------------------------
# eligibility introspection
# ----------------------------------------------------------------------
def projection_indices(udf: Any) -> tuple[int, ...] | None:
    """Column indices of an ``operator.itemgetter`` projection, or None.

    ``itemgetter.__reduce__()`` exposes the captured indices without
    calling the getter; only all-``int`` index sets qualify (slices and
    string keys have no column meaning).
    """
    if type(udf) is not itemgetter:
        return None
    _, indices = udf.__reduce__()
    if all(type(i) is int for i in indices):
        return tuple(indices)
    return None


def predicate_spec(predicate: Any) -> tuple[int, Callable | None] | None:
    """``(column, fn-or-None)`` for a single-column predicate, or None.

    ``None`` for ``fn`` means plain truthiness of the column value (a
    bare ``itemgetter(i)`` used as a predicate).
    """
    if isinstance(predicate, ColumnPredicate):
        return (predicate.index, predicate.fn)
    indices = projection_indices(predicate)
    if indices is not None and len(indices) == 1:
        return (indices[0], None)
    return None


def key_column(key: Any) -> int | None:
    """The single column index a key UDF reads, or None."""
    indices = projection_indices(key)
    if indices is not None and len(indices) == 1:
        return indices[0]
    return None


def _in_range(indices: Sequence[int], width: int) -> bool:
    return all(-width <= i < width for i in indices)


def can_elide(op: Any, slot: int, width: int, scalar: bool) -> bool:
    """Whether ``op`` (input ``slot``) consumes this layout natively.

    The executor's elide gate: called per consuming hop with the
    channel's actual layout, so the decision is deterministic
    (elision changes wall time only).
    """
    kind = op.kind
    if kind == "map":
        indices = projection_indices(op.udf)
        return (
            indices is not None and not scalar and _in_range(indices, width)
        )
    if kind == "filter":
        spec = predicate_spec(op.predicate)
        return spec is not None and not scalar and _in_range((spec[0],), width)
    if kind == "fused.narrow":
        if op.source_stage is not None:
            return False
        stages = op.narrow_stages
        return bool(stages) and can_elide(stages[0], 0, width, scalar)
    if kind in ("reduceby.hash", "groupby.hash"):
        index = key_column(op.key)
        return index is not None and not scalar and _in_range((index,), width)
    if kind == "reduce.global":
        return scalar
    if kind in ("join.hash", "join.broadcast"):
        key = op.left_key if slot == 0 else op.right_key
        index = key_column(key)
        return index is not None and not scalar and _in_range((index,), width)
    return False


# ----------------------------------------------------------------------
# native kernels
# ----------------------------------------------------------------------
def native_map(udf: Any, batch: ColumnarBatch) -> ColumnarBatch | None:
    """Apply an itemgetter projection by selecting buffers; None if
    ineligible for this batch's layout (caller falls back to rows).

    The selected buffers are shared zero-copy — a projection over 400k
    rows is a handful of pointer copies.
    """
    indices = projection_indices(udf)
    if indices is None or batch.scalar or not _in_range(indices, batch.width):
        return None
    card = len(batch)
    note_kernel("map.columnar")
    if len(indices) == 1:
        return ColumnarBatch([batch.columns[indices[0]]], True, card)
    return ColumnarBatch([batch.columns[i] for i in indices], False, card)


def native_filter(
    predicate: Any, batch: ColumnarBatch
) -> ColumnarBatch | None:
    """Filter via one mask pass over the predicate column; None if
    ineligible for this layout.

    The mask is built with ``map(fn, column)`` (or is the column itself
    for truthiness) and every buffer is compressed with
    ``itertools.compress`` — no row tuples anywhere.
    """
    spec = predicate_spec(predicate)
    if spec is None or batch.scalar or not _in_range((spec[0],), batch.width):
        return None
    index, fn = spec
    column = batch.columns[index]
    note_kernel("filter.columnar")
    flags: Sequence[Any] = column if fn is None else list(map(fn, column))
    out = [array.array(c.typecode, compress(c, flags)) for c in batch.columns]
    return ColumnarBatch(out, False, len(out[0]))


def native_reduce_by(
    batch: ColumnarBatch, key: Any, reducer: Any
) -> list[Any] | ColumnarBatch | None:
    """Columnwise reduce-by sweep over the buffers; None if ineligible.

    Requires a single-column key and a :class:`ColumnwiseReduce`
    reducer.  The row path's fold runs over the buffers' values (plain
    Python numbers, so int64 overflow behaves exactly like row mode —
    unbounded Python ints) in row order.  The output
    (one quantum per distinct key, first-appearance order) is assembled
    as a batch when it still fits the int64/double layout, rows
    otherwise — mirroring ``ColumnarChannel.from_rows`` rejection.
    """
    index = key_column(key)
    if (
        index is None
        or batch.scalar
        or not _in_range((index,), batch.width)
        or not isinstance(reducer, ColumnwiseReduce)
        or len(reducer.spec) != batch.width
    ):
        return None
    from repro.core.physical.kernels import fold_by_key  # kernels imports us

    note_kernel("reduceby.hash.columnar")
    columns = batch.columns
    grouped = fold_by_key(zip(columns[index], zip(*columns)), reducer)
    if not grouped:
        return []
    try:
        out = [
            array.array(column.typecode, values)
            for column, values in zip(columns, zip(*grouped))
        ]
    except (OverflowError, TypeError):
        # Combined values escaped the int64/double layout: fall back to
        # rows, exactly like from_rows would reject them at a boundary.
        return grouped
    return ColumnarBatch(out, False, len(grouped))


def native_keys(side: Any, key: Any) -> tuple[Any, Sequence[Any]] | None:
    """``(key_column, rows)`` for a batch with a single-column key.

    The *key build* of hash join / group-by / reduce-by: instead of one
    ``map(key, rows)`` pass constructing and probing row tuples, the key
    stream is the packed column buffer itself.  None when the side is
    not a batch or the key reads more than one column.
    """
    if not getattr(side, "is_columnar_batch", False):
        return None
    index = key_column(key)
    if index is None or side.scalar or not _in_range((index,), side.width):
        return None
    return side.columns[index], side.rows()


# ----------------------------------------------------------------------
# fused pipelines over batches
# ----------------------------------------------------------------------
def run_fused(pipeline: Any, batch: ColumnarBatch) -> Any:
    """Run a fused narrow chain starting from a columnar batch.

    Executes the leading run of projection/filter stages natively
    (layout re-checked per stage — projections change the width), then
    materialises rows once and hands the remainder to the ordinary
    fused runner.  Returns a batch when every stage ran natively, rows
    otherwise.  Outputs are byte-identical to the row path.
    """
    from repro.core.physical.fusion import compose_stages

    stages = pipeline.narrow_stages
    current: Any = batch
    native_stages = 0
    for position, stage in enumerate(stages):
        out = None
        if stage.kind == "map":
            out = native_map(stage.udf, current)
        elif stage.kind == "filter":
            out = native_filter(stage.predicate, current)
        if out is None:
            rows = current.rows()
            result = compose_stages(stages[position:])(rows)
            if native_stages:
                note_kernel("fused.columnar")
            return result
        current = out
        native_stages += 1
    note_kernel("fused.columnar")
    return current


def loop_state_consumers(atom: Any) -> list[tuple[Any, int]] | None:
    """The ``(operator, slot)`` pairs consuming a loop's bound state.

    None when the state must stay in rows (a loop condition reads it,
    or a nested loop makes the consumer set unanalysable) — the
    executor then pulls rows every iteration.
    """
    if atom.repeat.condition is not None:
        return None
    body_input_id = atom.repeat.body_input.id
    consumers: list[tuple[Any, int]] = []
    for body_atom in atom.body_plan.atoms:
        fragment = getattr(body_atom, "fragment", None)
        if fragment is None:
            return None
        for op in fragment.operators:
            if op.kind == "source.loopinput" and op.id == body_input_id:
                for consumer in fragment.consumers_of(op):
                    for slot, producer in enumerate(
                        fragment.inputs_of(consumer)
                    ):
                        if producer is op:
                            consumers.append((consumer, slot))
    return consumers
