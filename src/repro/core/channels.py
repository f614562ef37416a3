"""Channels: the data hand-off points between task atoms.

When two adjacent task atoms run on different platforms, the producer's
output is *egested* into a platform-neutral :class:`CollectionChannel` and
*ingested* by the consumer's platform; the movement cost model prices the
hop.  Within an atom, data stays in the platform's native representation
and never passes through a channel.

Numeric quanta may additionally travel in a :class:`ColumnarChannel` — a
struct-of-arrays layout over stdlib ``array`` buffers.  Conversion in
and out is explicit work, charged to the cost ledger like any movement
(``columnar.ingest`` / ``columnar.egest``).

Process-mode transport
----------------------

Under ``Executor(execution_mode="process")`` the scheduler's workers are
separate processes, and every channel — row or columnar — crosses the
boundary the same way: inside the one pickle the sender makes of its
task or result message (:mod:`repro.core.scheduler`).  A columnar
channel pickles as its column buffers only (:meth:`ColumnarChannel.
__getstate__`); the row view is rebuilt on the other side on demand.
"""

from __future__ import annotations

import array
import sys
from typing import Any, Sequence

from repro.core.physical.columnar import ColumnarBatch
from repro.errors import ExecutionError


class CollectionChannel:
    """A materialised, platform-neutral dataset (a Python list).

    ``producer_platform`` records where the data was produced so the
    executor can charge the correct movement cost when a different
    platform consumes it.

    ``owned=True`` is the zero-copy fast path: when the producer hands
    over a list it already owns (``Platform.egest`` builds a fresh list
    per atom output), the channel adopts it without the defensive
    ``list(...)`` copy — measurable on large egest/ingest hops.  The
    default (``owned=False``) keeps copy semantics for arbitrary
    sequences and for callers that go on mutating their data.

    :meth:`release` drops the payload while remembering the cardinality,
    so the concurrent scheduler's channel refcounting can bound peak
    memory once the last consumer of a hand-off has finished (movement
    pricing and failover bookkeeping only need ``len``).
    """

    __slots__ = ("data", "producer_platform", "_released_card")

    def __init__(
        self,
        data: Sequence[Any],
        producer_platform: str,
        *,
        owned: bool = False,
    ):
        if owned and type(data) is list:
            self.data = data
        else:
            self.data = list(data)
        self.producer_platform = producer_platform
        self._released_card: int | None = None

    @property
    def cardinality(self) -> int:
        """Number of quanta in the channel."""
        return len(self)

    @property
    def released(self) -> bool:
        """Whether the payload has been dropped by refcounting."""
        return self._released_card is not None

    def release(self) -> None:
        """Drop the payload, keeping only the cardinality.

        Idempotent.  Called by the scheduler's channel refcounter when
        the last consumer of this hand-off has finished.
        """
        if self._released_card is None:
            card = len(self)
            self._drop_payload()
            self._released_card = card

    def _drop_payload(self) -> None:
        """Subclass hook: forget the payload (cardinality is kept by
        :meth:`release`, which is the single entry point for dropping)."""
        self.data = None  # type: ignore[assignment]

    def require_data(self) -> list[Any]:
        """The payload, or a loud error if it was already released."""
        if self._released_card is not None:
            raise ExecutionError(
                "channel payload was released by refcounting but is still "
                f"being consumed (producer={self.producer_platform!r}); "
                "this is a consumer-count bug"
            )
        return self.data

    #: rows sampled when estimating payload bytes (profiling only)
    _SIZE_SAMPLE = 64

    def payload_bytes(self) -> int:
        """Approximate in-memory payload size in bytes.

        Row channels are heterogeneous, so the estimate samples a prefix
        of rows (``sys.getsizeof`` of the row plus, for tuples, its
        elements) and scales by the cardinality, adding the list's own
        overhead.  Released channels report 0.  Only the resource
        profiler calls this — never the execution hot path.
        """
        if self._released_card is not None:
            return 0
        data = self.data
        n = len(data)
        if n == 0:
            return sys.getsizeof(data)
        sample = data[: self._SIZE_SAMPLE]
        total = 0
        for row in sample:
            total += sys.getsizeof(row)
            if type(row) is tuple:
                for value in row:
                    total += sys.getsizeof(value)
        per_row = total / len(sample)
        return int(sys.getsizeof(data) + per_row * n)

    def __len__(self) -> int:
        if self._released_card is not None:
            return self._released_card
        return len(self.data)

    def __iter__(self):
        return iter(self.require_data())

    def __repr__(self) -> str:
        state = " (released)" if self.released else ""
        return (
            f"CollectionChannel(n={len(self)}, "
            f"from={self.producer_platform!r}{state})"
        )


#: array typecodes: int64 for exact ints, IEEE double for floats — both
#: round-trip Python ``int``/``float`` values without loss
_INT_CODE = "q"
_FLOAT_CODE = "d"


class ColumnarChannel(CollectionChannel):
    """A struct-of-arrays channel for uniformly-typed numeric quanta.

    Rows of exact-typed ``int``/``float`` tuples (or bare scalars) are
    packed into one stdlib ``array.array`` per column: ~10x denser than
    a list of tuples of boxed numbers, which is what lets iterative
    numeric apps (PageRank ranks, ML model state) bound the memory of
    their per-iteration hand-offs.

    The contract mirrors Shark's columnar in-memory store scaled down to
    this runtime:

    * **opt-in** — the Executor only tries the conversion when its
      ``columnar`` flag is set; ineligible data (mixed types, bools,
      non-tuples, int64 overflow) falls back to a plain
      :class:`CollectionChannel` (:meth:`from_rows` returns ``None``);
    * **explicit conversion costs** — the executor charges
      ``columnar.ingest`` when packing and ``columnar.egest`` when a
      consumer unpacks, exactly like a movement hop;
    * **byte-identical round trip** — eligibility requires exact
      ``type(v) is int/float`` per column (``bool`` is an ``int``
      subclass and is deliberately ineligible), so materialised rows
      compare equal to the originals;
    * **refcounting** — :meth:`release` drops the column buffers like
      the base class drops its list, keeping the cardinality.
    """

    __slots__ = ("_columns", "_scalar", "_card")

    def __init__(
        self,
        columns: list[array.array],
        scalar: bool,
        card: int,
        producer_platform: str,
    ):
        # deliberately does not call CollectionChannel.__init__: the
        # payload lives in the column buffers until first materialisation
        self._columns = columns
        self._scalar = scalar
        self._card = card
        self.data = None  # lazily materialised row view
        self.producer_platform = producer_platform
        self._released_card = None

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, data: Sequence[Any], producer_platform: str
    ) -> "ColumnarChannel | None":
        """Pack ``data`` into columns, or ``None`` when ineligible.

        Eligible data is a non-empty sequence of uniform-width tuples
        whose columns are uniformly exact ``int`` or exact ``float``,
        or a sequence of uniform bare ``int``/``float`` scalars.
        """
        if not data:
            return None
        first = data[0]
        if type(first) is tuple:
            width = len(first)
            if width == 0:
                return None
            codes = []
            for value in first:
                if type(value) is int:
                    codes.append(_INT_CODE)
                elif type(value) is float:
                    codes.append(_FLOAT_CODE)
                else:
                    return None
            for row in data:
                if type(row) is not tuple or len(row) != width:
                    return None
            columns = []
            for values, code in zip(zip(*data), codes):
                kind = int if code is _INT_CODE else float
                if any(type(v) is not kind for v in values):
                    return None
                try:
                    columns.append(array.array(code, values))
                except OverflowError:  # ints beyond int64
                    return None
            return cls(columns, False, len(data), producer_platform)
        if type(first) is int or type(first) is float:
            kind = type(first)
            if any(type(v) is not kind for v in data):
                return None
            code = _INT_CODE if kind is int else _FLOAT_CODE
            try:
                column = array.array(code, data)
            except OverflowError:
                return None
            return cls([column], True, len(data), producer_platform)
        return None

    @classmethod
    def from_batch(
        cls, batch: ColumnarBatch, producer_platform: str
    ) -> "ColumnarChannel | None":
        """Adopt a columnar-native batch's buffers without repacking.

        The columnar-to-columnar hand-off path: when an atom's output is
        already a :class:`~repro.core.physical.columnar.ColumnarBatch`,
        the channel shares its column buffers zero-copy — no row
        materialisation, no per-value type audit (native kernels only
        emit layouts that round-trip).  Returns ``None`` for empty
        batches so the caller falls back to a plain channel exactly
        where :meth:`from_rows` would (keeping the ledger sequence
        identical between the native and egest-per-consumer modes).
        """
        if len(batch) == 0:
            return None
        return cls(
            list(batch.columns), batch.scalar, len(batch), producer_platform
        )

    # ------------------------------------------------------------------
    @property
    def scalar(self) -> bool:
        """Whether the layout is a single column of bare values."""
        return self._scalar

    @property
    def columns(self) -> list[array.array]:
        """The packed column buffers (empty once released)."""
        return self._columns

    @property
    def width(self) -> int:
        """Number of columns (1 for scalar layouts)."""
        return len(self._columns)

    def column(self, index: int) -> array.array:
        """One packed column buffer."""
        return self._columns[index]

    def require_data(self) -> list[Any]:
        """Materialise (and cache) the row view of the columns."""
        if self._released_card is not None:
            raise ExecutionError(
                "channel payload was released by refcounting but is still "
                f"being consumed (producer={self.producer_platform!r}); "
                "this is a consumer-count bug"
            )
        if self.data is None:
            if self._scalar:
                self.data = list(self._columns[0])
            else:
                self.data = list(zip(*self._columns))
        return self.data

    def batch(self) -> ColumnarBatch:
        """A columnar-native view sharing this channel's buffers.

        The elided hand-off: instead of :meth:`require_data`'s row
        materialisation, an eligible consumer receives the buffers
        themselves.  The view holds its own references, so releasing the
        channel (refcounting) does not pull buffers out from under a
        batch still being consumed.
        """
        if self._released_card is not None:
            raise ExecutionError(
                "channel payload was released by refcounting but is still "
                f"being consumed (producer={self.producer_platform!r}); "
                "this is a consumer-count bug"
            )
        return ColumnarBatch(list(self._columns), self._scalar, self._card)

    def payload_bytes(self) -> int:
        """Exact byte size of the packed column buffers.

        ``array.buffer_info()`` gives the element count actually stored,
        so this is the true buffer payload (excluding the small per-array
        object header), not an estimate.  Released channels report 0.
        """
        if self._released_card is not None:
            return 0
        return sum(
            col.buffer_info()[1] * col.itemsize for col in self._columns
        )

    def _drop_payload(self) -> None:
        self._columns = []
        self.data = None

    def __getstate__(self) -> tuple:
        """Pickle the buffers only: a cached row view would ship every
        value a second time, and the receiver rebuilds it on demand."""
        return (
            self._columns, self._scalar, self._card,
            self.producer_platform, self._released_card,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self._columns, self._scalar, self._card,
            self.producer_platform, self._released_card,
        ) = state
        self.data = None

    def __len__(self) -> int:
        if self._released_card is not None:
            return self._released_card
        return self._card

    def __repr__(self) -> str:
        state = " (released)" if self.released else ""
        layout = "scalar" if self._scalar else f"width={self.width}"
        return (
            f"ColumnarChannel(n={len(self)}, {layout}, "
            f"from={self.producer_platform!r}{state})"
        )
