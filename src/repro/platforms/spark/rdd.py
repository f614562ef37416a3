"""The simulated RDD: a partitioned in-memory dataset.

Data is *really* partitioned and shuffles *really* move quanta between
partitions (hash partitioning by key), so partition-sensitive semantics —
per-partition operators, co-partitioned joins, map-side combining — behave
exactly as on the engine being simulated.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Iterable, Sequence

from repro.core.types import KeyUdf
from repro.util.iterators import split_evenly


def _stable(key: Any) -> Any:
    """``key`` with every str/bytes replaced by its CRC-32, recursively
    through tuples; anything else is returned as it is."""
    kind = type(key)
    if kind is str:
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if kind is bytes:
        return zlib.crc32(key)
    if kind is tuple:
        return tuple(map(_stable, key))
    return key


def partition_hash(key: Any) -> int:
    """The hash a shuffle partitions by, the same in every process.

    ``hash()`` of a str or bytes changes with ``PYTHONHASHSEED``, so those
    (alone or inside tuples) hash through their CRC-32.  A key without
    text keeps its own ``hash()``: ints, floats, bools, None and tuples
    of them land where they always did, since a tuple's hash depends only
    on its items' hashes.
    """
    return hash(_stable(key))


class SimRDD:
    """A list of partitions, each a list of data quanta."""

    __slots__ = ("partitions",)

    def __init__(self, partitions: Sequence[Sequence[Any]]):
        self.partitions: list[list[Any]] = [list(p) for p in partitions]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_collection(cls, data: Sequence[Any], num_partitions: int) -> "SimRDD":
        """Parallelise a collection into contiguous partitions."""
        return cls(split_evenly(list(data), num_partitions))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def count(self) -> int:
        """Total number of quanta across partitions."""
        return sum(len(partition) for partition in self.partitions)

    def collect(self) -> list[Any]:
        """Materialise all quanta in partition order."""
        return [quantum for partition in self.partitions for quantum in partition]

    # ------------------------------------------------------------------
    # narrow transformations (no data movement between partitions)
    # ------------------------------------------------------------------
    def map_partitions(
        self, fn: Callable[[list[Any]], Iterable[Any]]
    ) -> "SimRDD":
        """Apply ``fn`` independently to every partition."""
        return SimRDD([list(fn(partition)) for partition in self.partitions])

    def union(self, other: "SimRDD") -> "SimRDD":
        """Concatenate the partition lists (no movement, like Spark union)."""
        return SimRDD(self.partitions + other.partitions)

    # ------------------------------------------------------------------
    # wide transformations (shuffles)
    # ------------------------------------------------------------------
    def shuffle_by_key(self, key: KeyUdf, num_partitions: int) -> "SimRDD":
        """Hash-partition quanta by ``key`` into ``num_partitions``
        (by :func:`partition_hash`, so layouts do not depend on the
        process's hash seed).

        This is the physical shuffle: every quantum moves to the partition
        owning its key, so downstream per-partition operators see all
        quanta of a key together.
        """
        buckets: list[list[Any]] = [[] for _ in range(num_partitions)]
        for partition in self.partitions:
            for quantum in partition:
                buckets[partition_hash(key(quantum)) % num_partitions].append(quantum)
        return SimRDD(buckets)

    def repartition(self, num_partitions: int) -> "SimRDD":
        """Round-robin rebalance into ``num_partitions`` partitions."""
        buckets: list[list[Any]] = [[] for _ in range(num_partitions)]
        for index, quantum in enumerate(self.collect()):
            buckets[index % num_partitions].append(quantum)
        return SimRDD(buckets)

    def __repr__(self) -> str:
        sizes = [len(p) for p in self.partitions]
        return f"SimRDD(partitions={len(sizes)}, sizes={sizes})"
