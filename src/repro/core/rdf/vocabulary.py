"""The ``rheem:`` configuration vocabulary.

CURIE helpers and predicate constants used to describe operator
mappings, rewrite rules and estimator defaults as triples.
"""

from __future__ import annotations

PREFIX = "rheem"

# -- resource constructors ------------------------------------------------


def logical_op(name: str) -> str:
    """Resource for a logical operator type, e.g. ``rheem:op/GroupBy``."""
    return f"{PREFIX}:op/{name}"


def physical_op(name: str) -> str:
    """Resource for a physical operator class, e.g. ``rheem:phys/PHashGroupBy``."""
    return f"{PREFIX}:phys/{name}"


def mapping(logical_name: str, physical_name: str) -> str:
    """Resource for one mapping edge (reified so it can carry priority)."""
    return f"{PREFIX}:mapping/{logical_name}->{physical_name}"


def rule(name: str) -> str:
    """Resource for a rewrite rule, e.g. ``rheem:rule/fuse-adjacent-filters``."""
    return f"{PREFIX}:rule/{name}"


def estimator() -> str:
    """Resource holding cardinality-estimator defaults."""
    return f"{PREFIX}:estimator"


# -- predicates ------------------------------------------------------------

#: mapping reification: which logical/physical operator an edge connects
MAPS_LOGICAL = f"{PREFIX}:mapsLogical"
MAPS_PHYSICAL = f"{PREFIX}:mapsPhysical"
#: integer; lower = preferred (position in the variant list)
PRIORITY = f"{PREFIX}:priority"
#: boolean; retracting or setting False disables a mapping or a rule
ENABLED = f"{PREFIX}:enabled"

#: estimator defaults
FILTER_SELECTIVITY = f"{PREFIX}:defaultFilterSelectivity"
FLATMAP_FACTOR = f"{PREFIX}:defaultFlatmapFactor"
KEY_FANOUT = f"{PREFIX}:defaultKeyFanout"
DISTINCT_FANOUT = f"{PREFIX}:defaultDistinctFanout"
