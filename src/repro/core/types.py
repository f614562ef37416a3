"""Data-quanta model.

The paper defines a *data quantum* as "the smallest unit of data elements
from the input datasets" — a tuple of a dataset, a row of a matrix, a line
of text.  RHEEM operators are defined over single quanta, which is what
lets the core parallelise them freely.

In this reproduction a data quantum is any Python object.  For structured
workloads we provide :class:`Schema` and :class:`Record`, a lightweight
named-tuple-like row that keeps field access readable in UDFs while staying
cheap to hash and compare (both are required by shuffles and joins).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ValidationError

#: A UDF over a single data quantum.
Udf = Callable[[Any], Any]

#: A predicate UDF over a single data quantum.
Predicate = Callable[[Any], bool]

#: A key-extraction UDF.
KeyUdf = Callable[[Any], Any]


class Schema:
    """An ordered set of named fields describing structured data quanta.

    Schemas are immutable; equality is field-wise, which allows storage
    formats and relational operators to check compatibility cheaply.
    """

    __slots__ = ("_fields", "_index", "_projections")

    def __init__(self, fields: Sequence[str]):
        if len(set(fields)) != len(fields):
            raise ValidationError(f"duplicate field names in schema: {fields!r}")
        if not fields:
            raise ValidationError("a schema needs at least one field")
        self._fields: tuple[str, ...] = tuple(fields)
        self._index: dict[str, int] = {name: i for i, name in enumerate(self._fields)}
        #: project() memo per field tuple; derived, so never pickled
        self._projections: dict[tuple, tuple["Schema", tuple[int, ...]]] = {}

    def __getstate__(self) -> tuple:
        # the slot state earlier versions wrote, so pickles stay byte-identical
        return (None, {"_fields": self._fields, "_index": self._index})

    def __setstate__(self, state: tuple) -> None:
        self._fields, self._index = state[1]["_fields"], state[1]["_index"]
        self._projections = {}

    @property
    def fields(self) -> tuple[str, ...]:
        """The field names, in order."""
        return self._fields

    def index_of(self, field: str) -> int:
        """Return the positional index of ``field``.

        Raises :class:`ValidationError` for unknown fields so schema bugs
        surface as library errors rather than ``KeyError`` noise.
        """
        try:
            return self._index[field]
        except KeyError:
            raise ValidationError(
                f"unknown field {field!r}; schema has {self._fields!r}"
            ) from None

    def project(self, fields: Sequence[str]) -> "Schema":
        """Return the schema restricted to ``fields`` (kept in given order)."""
        return self._projection(fields)[0]

    def _projection(self, fields: Sequence[str]) -> tuple["Schema", tuple[int, ...]]:
        """``(projected schema, source positions)``, built once per field tuple."""
        key = tuple(fields)
        hit = self._projections.get(key)
        if hit is None:
            positions = tuple(map(self.index_of, key))
            hit = self._projections[key] = (Schema(key), positions)
        return hit

    def record(self, *values: Any) -> "Record":
        """Build a :class:`Record` of this schema from positional values."""
        if len(values) != len(self._fields):
            raise ValidationError(
                f"expected {len(self._fields)} values for schema "
                f"{self._fields!r}, got {len(values)}"
            )
        return Record(self, tuple(values))

    def from_mapping(self, mapping: dict[str, Any]) -> "Record":
        """Build a :class:`Record` from a field→value mapping."""
        try:
            values = tuple(mapping[name] for name in self._fields)
        except KeyError as exc:
            raise ValidationError(f"mapping is missing field {exc}") from None
        return Record(self, values)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, field: str) -> bool:
        return field in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        return f"Schema({list(self._fields)!r})"


class Record:
    """A structured data quantum: a tuple of values plus a shared schema.

    Records hash and compare by value (schema included), so they can flow
    through shuffles, ``Distinct`` and join keys unchanged.  Records are
    immutable; :meth:`with_value` returns an updated copy, which keeps
    repair algorithms side-effect free.
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: Schema, values: tuple[Any, ...]):
        self.schema = schema
        self.values = values

    def __getitem__(self, field: str | int) -> Any:
        if type(field) is int:
            return self.values[field]
        if type(field) is str:
            try:  # a name: one dict lookup
                return self.values[self.schema._index[field]]
            except KeyError:  # unknown: index_of raises
                pass
        elif isinstance(field, int):  # bool: a position, as before
            return self.values[field]
        return self.values[self.schema.index_of(field)]

    def get(self, field: str, default: Any = None) -> Any:
        """Return the value of ``field``, or ``default`` if absent."""
        if field in self.schema:
            return self.values[self.schema.index_of(field)]
        return default

    def with_value(self, field: str, value: Any) -> "Record":
        """Return a copy of this record with ``field`` replaced by ``value``."""
        index = self.schema.index_of(field)
        values = self.values[:index] + (value,) + self.values[index + 1 :]
        return Record(self.schema, values)

    def project(self, fields: Sequence[str]) -> "Record":
        """Return a record holding only ``fields`` (with a projected schema)."""
        schema, positions = self.schema._projection(fields)
        return Record(schema, tuple(map(self.values.__getitem__, positions)))

    def as_dict(self) -> dict[str, Any]:
        """Return the record as a plain ``dict`` (field → value)."""
        return dict(zip(self.schema.fields, self.values))

    def as_tuple(self) -> tuple[Any, ...]:
        """Return the raw value tuple."""
        return self.values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self.schema == other.schema
            and self.values == other.values
        )

    def __lt__(self, other: "Record") -> bool:
        # Tuple-like ordering so sort-based operator variants (SortDistinct,
        # SortGroupBy) work on record datasets.
        if not isinstance(other, Record):
            return NotImplemented
        return (self.schema.fields, self.values) < (
            other.schema.fields,
            other.values,
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.schema.fields, self.values))
        return f"Record({pairs})"


def records_from_dicts(schema: Schema, rows: Iterable[dict[str, Any]]) -> list[Record]:
    """Convenience constructor: turn dict rows into :class:`Record` quanta."""
    return [schema.from_mapping(row) for row in rows]
