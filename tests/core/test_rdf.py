"""Tests for the RDF-encoded optimizer configuration (§8 challenge 1)."""

import pytest

from repro import RheemContext
from repro.core.mappings import default_mappings
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.rules import default_rules
from repro.core.rdf import (
    TripleStore,
    configuration_from_triples,
    default_configuration,
    vocabulary as voc,
)
from repro.core.rdf import config as rdf_config
from repro.core.rdf.store import Triple, TripleStoreError
from repro.core.logical.operators import GroupBy, Filter
from repro.core.physical.operators import PHashGroupBy, PSortGroupBy
from repro.errors import MappingError


def candidate_names(mappings) -> dict[str, list[str]]:
    """Logical type name -> its factory names, default variant first."""
    names: dict[str, list[str]] = {}
    for logical_type, factory in mappings.edges():
        names.setdefault(logical_type.__name__, []).append(factory.__name__)
    return names


DEFAULT_LOGICAL_TYPES = sorted(candidate_names(default_mappings()))


def add_edge(store, logical_name, physical_name, priority):
    """Assert one enabled mapping edge."""
    edge = voc.mapping(logical_name, physical_name)
    store.add(edge, voc.MAPS_LOGICAL, voc.logical_op(logical_name))
    store.add(edge, voc.MAPS_PHYSICAL, voc.physical_op(physical_name))
    store.add(edge, voc.PRIORITY, priority)
    store.add(edge, voc.ENABLED, True)


class TestTripleStore:
    def test_add_and_query_exact(self):
        store = TripleStore()
        store.add("s", "p", 1)
        assert list(store.query("s", "p", 1)) == [Triple("s", "p", 1)]

    def test_add_idempotent(self):
        store = TripleStore()
        store.add("s", "p", 1)
        store.add("s", "p", 1)
        assert len(store) == 1

    def test_wildcards(self):
        store = TripleStore()
        store.add("a", "p", 1)
        store.add("a", "q", 2)
        store.add("b", "p", 3)
        assert len(list(store.query("a", None, None))) == 2
        assert len(list(store.query(None, "p", None))) == 2
        assert len(list(store.query(None, None, 3))) == 1
        assert len(list(store.query())) == 3

    def test_remove(self):
        store = TripleStore()
        store.add("s", "p", 1)
        assert store.remove("s", "p", 1)
        assert not store.remove("s", "p", 1)
        assert len(store) == 0

    def test_retract_pattern(self):
        store = TripleStore()
        store.add("a", "p", 1)
        store.add("a", "p", 2)
        store.add("b", "p", 3)
        assert store.retract_pattern("a", "p") == 2
        assert len(store) == 1

    def test_value_functional(self):
        store = TripleStore()
        store.add("s", "p", 1)
        assert store.value("s", "p") == 1
        assert store.value("s", "missing", default="d") == "d"
        store.add("s", "p", 2)
        with pytest.raises(TripleStoreError, match="expected one"):
            store.value("s", "p")

    def test_subjects(self):
        store = TripleStore()
        store.add("b", "p", 1)
        store.add("a", "p", 1)
        assert store.subjects("p") == ["a", "b"]

    def test_empty_subject_rejected(self):
        with pytest.raises(TripleStoreError):
            TripleStore().add("", "p", 1)

    def test_dump(self):
        store = TripleStore()
        store.add("s", "p", "o")
        assert "(s p 'o')" in store.dump()


class TestRoundTrip:
    @pytest.mark.parametrize("logical_name", DEFAULT_LOGICAL_TYPES)
    def test_default_mappings_round_trip(self, logical_name):
        decoded = configuration_from_triples(default_configuration())
        assert (
            candidate_names(decoded.mappings)[logical_name]
            == candidate_names(default_mappings())[logical_name]
        )

    def test_default_configuration_round_trips(self):
        config = configuration_from_triples(default_configuration())
        assert [rule.name for rule in config.rules.rules] == [
            rule.name for rule in default_rules().rules
        ]
        for attribute in (
            "DEFAULT_FILTER_SELECTIVITY",
            "DEFAULT_FLATMAP_FACTOR",
            "DEFAULT_KEY_FANOUT",
            "DEFAULT_DISTINCT_FANOUT",
        ):
            assert getattr(config.estimator, attribute) == getattr(
                CardinalityEstimator, attribute
            )

    def test_cleaning_extension_round_trips(self, monkeypatch):
        from repro.apps.cleaning.iejoin import (
            InequalityJoin,
            PIEJoin,
            _nested_loop_variant,
            register_iejoin,
        )
        from repro.platforms import default_platforms

        # fresh extras tables, restored afterwards: nothing leaks
        monkeypatch.setattr(rdf_config, "_LOGICAL_EXTRAS", {})
        monkeypatch.setattr(rdf_config, "_PHYSICAL_EXTRAS", {})
        rdf_config.register_logical_type("InequalityJoin", InequalityJoin)
        rdf_config.register_physical_factory("PIEJoin", PIEJoin)
        rdf_config.register_physical_factory(
            "_nested_loop_variant", _nested_loop_variant
        )
        store = default_configuration()
        add_edge(store, "InequalityJoin", "PIEJoin", 0)
        add_edge(store, "InequalityJoin", "_nested_loop_variant", 1)
        decoded = configuration_from_triples(store)

        expected = default_mappings().copy()
        register_iejoin(expected, default_platforms())
        assert candidate_names(decoded.mappings) == candidate_names(expected)

    def test_context_runs_on_rdf_configuration(self):
        config = configuration_from_triples(default_configuration())
        ctx = RheemContext(
            mappings=config.mappings,
            rules=config.rules,
            estimator=config.estimator,
        )
        out = ctx.collection(range(10)).filter(lambda x: x % 2 == 0).collect()
        assert out == [0, 2, 4, 6, 8]


class TestEditingTriples:
    def test_reprioritising_swaps_default_variant(self):
        store = default_configuration()
        hash_edge = voc.mapping("GroupBy", "PHashGroupBy")
        sort_edge = voc.mapping("GroupBy", "PSortGroupBy")
        store.retract_pattern(hash_edge, voc.PRIORITY)
        store.retract_pattern(sort_edge, voc.PRIORITY)
        store.add(hash_edge, voc.PRIORITY, 5)
        store.add(sort_edge, voc.PRIORITY, 0)
        config = configuration_from_triples(store)
        variants = config.mappings.candidates(GroupBy(lambda x: x))
        assert isinstance(variants[0], PSortGroupBy)

    def test_disabling_mapping_removes_variant(self):
        store = default_configuration()
        edge = voc.mapping("GroupBy", "PSortGroupBy")
        store.retract_pattern(edge, voc.ENABLED)
        store.add(edge, voc.ENABLED, False)
        config = configuration_from_triples(store)
        variants = config.mappings.candidates(GroupBy(lambda x: x))
        assert len(variants) == 1
        assert isinstance(variants[0], PHashGroupBy)

    def test_disabling_all_mappings_of_an_operator_breaks_plans(self):
        store = default_configuration()
        for physical in ("PHashGroupBy", "PSortGroupBy"):
            edge = voc.mapping("GroupBy", physical)
            store.retract_pattern(edge, voc.ENABLED)
        config = configuration_from_triples(store)
        ctx = RheemContext(mappings=config.mappings, rules=config.rules)
        with pytest.raises(MappingError):
            ctx.collection([1, 2]).group_by(lambda x: x).collect()

    def test_disabling_a_rule(self):
        store = default_configuration()
        store.retract_pattern(voc.rule("fuse-adjacent-filters"), voc.ENABLED)
        config = configuration_from_triples(store)
        names = {rule.name for rule in config.rules.rules}
        assert "fuse-adjacent-filters" not in names
        assert "push-filter-below-sort" in names

    def test_estimator_constants_from_triples(self):
        store = default_configuration()
        store.retract_pattern(voc.estimator(), voc.FILTER_SELECTIVITY)
        store.add(voc.estimator(), voc.FILTER_SELECTIVITY, 0.01)
        config = configuration_from_triples(store)
        assert config.estimator.DEFAULT_FILTER_SELECTIVITY == 0.01
        # the class default is untouched
        from repro.core.optimizer.cardinality import CardinalityEstimator

        assert CardinalityEstimator.DEFAULT_FILTER_SELECTIVITY == 0.25

    def test_unknown_physical_operator_rejected(self):
        store = default_configuration()
        add_edge(store, "Filter", "PWarpDrive", 9)
        with pytest.raises(MappingError, match="PWarpDrive"):
            configuration_from_triples(store)

    def test_application_extends_registries(self, monkeypatch):
        from repro.core.physical.operators import PFilter

        class NoisyFilter(Filter):
            pass

        monkeypatch.setitem(rdf_config._LOGICAL_EXTRAS, "NoisyFilter", NoisyFilter)
        monkeypatch.setitem(rdf_config._PHYSICAL_EXTRAS, "PNoisyFilter", PFilter)
        store = default_configuration()
        add_edge(store, "NoisyFilter", "PNoisyFilter", 0)
        config = configuration_from_triples(store)
        assert config.mappings.has_mapping(NoisyFilter)
