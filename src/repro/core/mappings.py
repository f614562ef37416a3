"""Flexible operator mappings (paper §3.1, "Flexible operator mappings").

The registry records, declaratively, which physical operators can
implement each logical operator type.  Developers plugging in a new
application register new logical operator types here; the first registered
factory is the *default* variant and the rest become ``alternates`` the
multi-platform optimizer may substitute on cost grounds (e.g.
``HashGroupBy`` versus ``SortGroupBy`` from Example 2).

The physical→execution half of the mapping lives with each platform
(:class:`repro.platforms.base.Platform`), because it is the platform
developer who declares which physical operators their engine supports.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    Count,
    CrossProduct,
    Distinct,
    Filter,
    FlatMap,
    GlobalReduce,
    GroupBy,
    Join,
    Limit,
    LogicalOperator,
    LoopInput,
    Map,
    ReduceBy,
    Sample,
    Sort,
    TableSource,
    TextFileSource,
    Union,
    ZipWithId,
)
from repro.core.physical import operators as phys
from repro.errors import MappingError

#: Builds a physical operator from the logical operator it implements.
PhysicalFactory = Callable[[LogicalOperator], phys.PhysicalOperator]


class OperatorMappings:
    """Declarative logical→physical mapping registry."""

    def __init__(self) -> None:
        self._factories: dict[type[LogicalOperator], list[PhysicalFactory]] = {}

    def register(
        self,
        logical_type: type[LogicalOperator],
        factory: PhysicalFactory,
        *,
        prepend: bool = False,
    ) -> None:
        """Register ``factory`` as an implementation of ``logical_type``.

        ``prepend=True`` makes the new factory the default variant — this
        is how an application promotes a specialised operator (the data
        cleaning application does this with ``IEJoin``).
        """
        factories = self._factories.setdefault(logical_type, [])
        if prepend:
            factories.insert(0, factory)
        else:
            factories.append(factory)

    def has_mapping(self, logical_type: type[LogicalOperator]) -> bool:
        """Whether ``logical_type`` itself has registered factories."""
        return logical_type in self._factories

    def candidates(self, logical: LogicalOperator) -> list[phys.PhysicalOperator]:
        """Instantiate every registered physical variant for ``logical``.

        The most specific registered class in the operator's MRO wins, so
        an application subclass of ``Join`` with its own mapping shadows
        the generic join mapping.
        """
        for klass in type(logical).__mro__:
            if klass in self._factories:
                return [factory(logical) for factory in self._factories[klass]]
        raise MappingError(
            f"no logical->physical mapping registered for {type(logical).__name__}"
        )

    def edges(self) -> Iterator[tuple[type[LogicalOperator], PhysicalFactory]]:
        """Every ``(logical type, factory)`` pair, default variant first."""
        for logical_type, factories in self._factories.items():
            for factory in factories:
                yield logical_type, factory

    def copy(self) -> "OperatorMappings":
        """A shallow copy applications can extend without global effects."""
        clone = OperatorMappings()
        clone._factories = {k: list(v) for k, v in self._factories.items()}
        return clone


def default_mappings() -> OperatorMappings:
    """The built-in mapping table covering the generic operator library."""
    mappings = OperatorMappings()
    mappings.register(CollectionSource, phys.PCollectionSource)
    mappings.register(TextFileSource, phys.PTextFileSource)
    mappings.register(TableSource, phys.PTableSource)
    mappings.register(LoopInput, phys.PLoopInput)
    mappings.register(CollectSink, phys.PCollectSink)
    mappings.register(Map, phys.PMap)
    mappings.register(FlatMap, phys.PFlatMap)
    mappings.register(Filter, phys.PFilter)
    mappings.register(ZipWithId, phys.PZipWithId)
    mappings.register(GroupBy, phys.PHashGroupBy)
    mappings.register(GroupBy, phys.PSortGroupBy)
    mappings.register(ReduceBy, phys.PReduceBy)
    mappings.register(GlobalReduce, phys.PGlobalReduce)
    mappings.register(Join, phys.PHashJoin)
    mappings.register(Join, phys.PSortMergeJoin)
    mappings.register(Join, phys.PBroadcastJoin)
    mappings.register(CrossProduct, phys.PCrossProduct)
    mappings.register(Union, phys.PUnion)
    mappings.register(Sort, phys.PSort)
    mappings.register(Distinct, phys.PHashDistinct)
    mappings.register(Distinct, phys.PSortDistinct)
    mappings.register(Sample, phys.PSample)
    mappings.register(Count, phys.PCount)
    mappings.register(Limit, phys.PLimit)
    # Repeat is translated structurally by the application optimizer (its
    # body must be translated recursively), so it is not registered here.
    return mappings
