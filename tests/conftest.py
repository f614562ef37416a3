"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import RheemContext
from repro.core.types import Schema
from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform

PLATFORM_NAMES = ("java", "spark", "postgres")


def _gc_callbacks() -> list:
    """``gc.callbacks`` minus the one Hypothesis installs, once, on the
    first test that uses it."""
    return [
        callback for callback in gc.callbacks
        if not getattr(callback, "__module__", "").startswith("hypothesis")
    ]


@pytest.fixture(autouse=True)
def no_leaked_profiler_hooks():
    """Fail a test that leaves ``tracemalloc`` tracing, a GC callback or
    the cyclic collector disabled behind, then undo the leak so later
    tests run as they would alone.

    A profiled run owns those process-wide hooks only while it executes,
    and a run defers the collector only while it executes; one left
    attached slows every later test several times over, and a collector
    left off lets every later test's cyclic garbage pile up.
    """
    callbacks_before = _gc_callbacks()
    yield
    leaks = []
    if tracemalloc.is_tracing():
        tracemalloc.stop()
        leaks.append("tracemalloc is still tracing")
    added = [cb for cb in _gc_callbacks() if cb not in callbacks_before]
    if added:
        for callback in added:
            gc.callbacks.remove(callback)
        leaks.append(f"{len(added)} gc callback(s) left installed")
    if not gc.isenabled():
        gc.enable()
        leaks.append("the cyclic collector is still disabled")
    if leaks:
        pytest.fail("leaked process-wide hooks: " + "; ".join(leaks))


@pytest.fixture()
def ctx() -> RheemContext:
    """A context with the three default platforms."""
    return RheemContext()


@pytest.fixture()
def java_platform() -> JavaPlatform:
    return JavaPlatform()


@pytest.fixture()
def spark_platform() -> SparkPlatform:
    return SparkPlatform()


@pytest.fixture()
def postgres_platform() -> PostgresPlatform:
    return PostgresPlatform()


@pytest.fixture()
def people_schema() -> Schema:
    return Schema(["id", "name", "dept", "salary"])


@pytest.fixture()
def people(people_schema):
    rows = [
        (1, "ada", "eng", 120.0),
        (2, "bob", "eng", 95.0),
        (3, "cyn", "ops", 80.0),
        (4, "dan", "ops", 85.0),
        (5, "eve", "sci", 150.0),
    ]
    return [people_schema.record(*row) for row in rows]
