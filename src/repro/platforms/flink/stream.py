"""The pipelined native dataset: a restartable, lazily transformed stream.

A :class:`DataStream` wraps a zero-argument producer returning a fresh
iterator, so chained narrow transformations compose into one generator
pipeline that is only walked when something downstream needs the data —
the execution model of Nephele/Flink operator chains.  Materialisation
is memoised: once a consumer (a wide operator, the cardinality counter,
egest) forces the stream, everyone shares the same list.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator


class DataStream:
    """A restartable stream of data quanta with lazy transformations."""

    __slots__ = ("_producer", "_materialized")

    def __init__(self, producer: Callable[[], Iterator[Any]]):
        self._producer = producer
        self._materialized: list[Any] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_list(cls, data: Iterable[Any]) -> "DataStream":
        """A stream over an in-memory collection."""
        snapshot = list(data)
        stream = cls(lambda: iter(snapshot))
        stream._materialized = snapshot
        return stream

    # ------------------------------------------------------------------
    def iterate(self) -> Iterator[Any]:
        """A fresh iterator over the stream's quanta."""
        if self._materialized is not None:
            return iter(self._materialized)
        return self._producer()

    def materialize(self) -> list[Any]:
        """Force the pipeline once; further calls reuse the result."""
        if self._materialized is None:
            self._materialized = list(self._producer())
        return self._materialized

    def transform(
        self, fn: Callable[[Iterator[Any]], Iterator[Any]]
    ) -> "DataStream":
        """Chain a lazy per-element transformation (no pass happens yet)."""
        return DataStream(lambda: fn(self.iterate()))

    def __len__(self) -> int:
        return len(self.materialize())

    def __repr__(self) -> str:
        state = (
            f"materialized n={len(self._materialized)}"
            if self._materialized is not None
            else "lazy"
        )
        return f"DataStream({state})"
