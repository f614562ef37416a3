"""RDF-encoded optimizer configuration (paper §8, challenge 1).

    "We envision an optimization process based on a flexible data model,
    such as RDF.  Developers will specify mappings between operators as
    well as encode rule- and cost-based models in RDF triples.  The
    optimizer will use this RDF representation as a first-class citizen
    in its optimization process."

This package provides exactly that loop:

* :class:`~repro.core.rdf.store.TripleStore` — a small indexed triple
  store with wildcard pattern queries;
* :mod:`~repro.core.rdf.vocabulary` — the ``rheem:`` vocabulary for
  operator mappings, rewrite rules and estimator defaults;
* :mod:`~repro.core.rdf.config` — encode the library defaults, read from
  the live registries, as triples (:func:`default_configuration`) and
  build a working optimizer configuration back out of a (possibly
  edited) store (:func:`configuration_from_triples`) — so an operator
  mapping or an estimator constant can be changed by asserting a
  triple, no code edits.
"""

from repro.core.rdf.config import (
    RdfConfiguration,
    configuration_from_triples,
    default_configuration,
)
from repro.core.rdf.store import Triple, TripleStore
from repro.core.rdf import vocabulary

__all__ = [
    "RdfConfiguration",
    "Triple",
    "TripleStore",
    "configuration_from_triples",
    "default_configuration",
    "vocabulary",
]
