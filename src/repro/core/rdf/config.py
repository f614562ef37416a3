"""Encode optimizer configuration as triples, and build it back.

Round trip: :func:`default_configuration` asserts the library defaults —
every operator mapping with its priority, every rewrite rule, the
estimator's fallback constants — into a :class:`TripleStore`.  Users
edit the store (assert, retract, re-prioritise) and call
:func:`configuration_from_triples` to obtain the
:class:`~repro.core.mappings.OperatorMappings`, rule registry and
estimator that :class:`~repro.RheemContext` accepts directly.

The defaults are read from the live registries (:func:`default_mappings`,
:func:`default_rules`, :class:`CardinalityEstimator`), never copied, and
names in the triples resolve against those same registries.  An
application operator that is not in them is addressable once registered
with :func:`register_logical_type` / :func:`register_physical_factory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.logical.operators import LogicalOperator
from repro.core.mappings import OperatorMappings, default_mappings
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.rules import RuleRegistry, default_rules
from repro.core.rdf import vocabulary as voc
from repro.core.rdf.store import TripleStore
from repro.errors import MappingError

#: application physical factories beyond the defaults: name -> factory
_PHYSICAL_EXTRAS: dict[str, Callable] = {}

#: application logical operator types beyond the defaults: name -> class
_LOGICAL_EXTRAS: dict[str, type[LogicalOperator]] = {}

#: estimator predicate -> CardinalityEstimator attribute
_ESTIMATOR_CONSTANTS: tuple[tuple[str, str], ...] = (
    (voc.FILTER_SELECTIVITY, "DEFAULT_FILTER_SELECTIVITY"),
    (voc.FLATMAP_FACTOR, "DEFAULT_FLATMAP_FACTOR"),
    (voc.KEY_FANOUT, "DEFAULT_KEY_FANOUT"),
    (voc.DISTINCT_FANOUT, "DEFAULT_DISTINCT_FANOUT"),
)


def register_physical_factory(name: str, factory: Callable) -> None:
    """Expose an application-defined physical operator to RDF mappings."""
    _PHYSICAL_EXTRAS[name] = factory


def register_logical_type(name: str, klass: type[LogicalOperator]) -> None:
    """Expose an application-defined logical operator to RDF mappings."""
    _LOGICAL_EXTRAS[name] = klass


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def default_configuration() -> TripleStore:
    """The library's default configuration, as triples."""
    store = TripleStore()
    priorities: dict[str, int] = {}
    for logical_type, factory in default_mappings().edges():
        logical_name = logical_type.__name__
        edge = voc.mapping(logical_name, factory.__name__)
        store.add(edge, voc.MAPS_LOGICAL, voc.logical_op(logical_name))
        store.add(edge, voc.MAPS_PHYSICAL, voc.physical_op(factory.__name__))
        priority = priorities.get(logical_name, 0)
        priorities[logical_name] = priority + 1
        store.add(edge, voc.PRIORITY, priority)
        store.add(edge, voc.ENABLED, True)
    for rule in default_rules().rules:
        store.add(voc.rule(rule.name), voc.ENABLED, True)
    estimator = voc.estimator()
    for predicate, attribute in _ESTIMATOR_CONSTANTS:
        store.add(estimator, predicate, getattr(CardinalityEstimator, attribute))
    return store


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
@dataclass
class RdfConfiguration:
    """What a triple store describes: drop-in RheemContext arguments."""

    mappings: OperatorMappings
    rules: RuleRegistry
    estimator: CardinalityEstimator


def configuration_from_triples(store: TripleStore) -> RdfConfiguration:
    """Build a working optimizer configuration from ``store``.

    Mapping edges are ordered by their ``rheem:priority`` (lowest first =
    default variant); edges and rules with ``rheem:enabled`` false (or
    retracted) are skipped.
    """
    logical_types: dict[str, type[LogicalOperator]] = {}
    factories: dict[str, Callable] = {}
    for logical_type, factory in default_mappings().edges():
        logical_types[logical_type.__name__] = logical_type
        factories[factory.__name__] = factory
    logical_types.update(_LOGICAL_EXTRAS)
    factories.update(_PHYSICAL_EXTRAS)

    mappings = OperatorMappings()
    edges: list[tuple[int, str, str, str]] = []
    for edge in store.subjects(voc.MAPS_LOGICAL):
        if store.value(edge, voc.ENABLED, default=False) is not True:
            continue
        logical_uri = store.value(edge, voc.MAPS_LOGICAL)
        physical_uri = store.value(edge, voc.MAPS_PHYSICAL)
        priority = store.value(edge, voc.PRIORITY, default=0)
        edges.append((int(priority), edge, logical_uri, physical_uri))
    edges.sort()
    for _, edge, logical_uri, physical_uri in edges:
        logical_name = logical_uri.rsplit("/", 1)[-1]
        physical_name = physical_uri.rsplit("/", 1)[-1]
        if logical_name not in logical_types:
            raise MappingError(
                f"triple {edge}: unknown logical operator {logical_name!r}"
            )
        if physical_name not in factories:
            raise MappingError(
                f"triple {edge}: unknown physical operator {physical_name!r}"
            )
        mappings.register(logical_types[logical_name], factories[physical_name])

    rules = RuleRegistry()
    for rule in default_rules().rules:
        if store.value(voc.rule(rule.name), voc.ENABLED, default=False) is True:
            rules.register(rule)

    estimator = CardinalityEstimator()
    est = voc.estimator()
    for predicate, attribute in _ESTIMATOR_CONSTANTS:
        default = getattr(CardinalityEstimator, attribute)
        setattr(estimator, attribute, float(store.value(est, predicate, default)))
    return RdfConfiguration(mappings=mappings, rules=rules, estimator=estimator)
