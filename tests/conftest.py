"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import RheemContext
from repro.core.types import Schema
from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform

PLATFORM_NAMES = ("java", "spark", "postgres")


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
