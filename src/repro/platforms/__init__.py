"""Simulated processing platforms (the platform layer).

Three platforms ship with the library, standing in for the engines the
paper evaluates on (see DESIGN.md §2 for the substitution argument):

* :mod:`repro.platforms.java` — an eager, single-process engine standing
  in for "plain Java programs";
* :mod:`repro.platforms.spark` — a simulated Spark: partitioned datasets,
  stage-structured execution, shuffles, and a calibrated overhead model;
* :mod:`repro.platforms.postgres` — a miniature relational engine
  standing in for PostgreSQL.

Every platform executes the same kernels, one per physical operator
kind (:data:`repro.core.physical.table.KERNELS`).  New platforms plug in
by subclassing :class:`repro.platforms.base.Platform`: a set of supported
kinds, a native dataset representation, a cost model and, where the
natives are not plain lists, an :meth:`~repro.platforms.base.Platform.apply`
rule saying how a kernel runs over them — no core changes required (the
extensibility requirement of paper §8, challenge 1).
"""

from repro.platforms.base import Platform
from repro.platforms.java import JavaPlatform
from repro.platforms.postgres import PostgresPlatform
from repro.platforms.spark import SparkPlatform


def default_platforms() -> list[Platform]:
    """The standard platform roster used by :class:`repro.RheemContext`."""
    return [JavaPlatform(), SparkPlatform(), PostgresPlatform()]


__all__ = [
    "JavaPlatform",
    "Platform",
    "PostgresPlatform",
    "SparkPlatform",
    "default_platforms",
]
