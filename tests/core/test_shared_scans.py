"""Tests for the shared-scan physical optimization (§4.2) and Limit."""

import pytest

from repro import RheemContext
from repro.core.types import Schema
from repro.storage import Catalog, LocalFsStore


@pytest.fixture()
def catalog_ctx(tmp_path):
    catalog = Catalog()
    catalog.register_store(LocalFsStore(root=str(tmp_path)))
    schema = Schema(["id", "v"])
    rows = [schema.record(i, i * 2) for i in range(30)]
    catalog.write_dataset("t", rows, "localfs", schema=schema)
    return RheemContext(catalog=catalog)


def scan_count(physical, kind):
    return sum(1 for op in physical.graph if op.kind == kind)


class TestSharedScans:
    def test_duplicate_table_scans_merged(self, catalog_ctx):
        ctx = catalog_ctx
        joined = ctx.table("t").join(
            ctx.table("t"), lambda r: r["id"], lambda r: r["id"]
        )
        physical = ctx.app_optimizer.optimize(joined.plan)
        assert scan_count(physical, "source.table") == 1

    def test_different_tables_not_merged(self, catalog_ctx):
        ctx = catalog_ctx
        ctx.catalog.write_dataset(
            "u",
            [Schema(["id", "v"]).record(1, 2)],
            "localfs",
            schema=Schema(["id", "v"]),
        )
        joined = ctx.table("t").join(
            ctx.table("u"), lambda r: r["id"], lambda r: r["id"]
        )
        physical = ctx.app_optimizer.optimize(joined.plan)
        assert scan_count(physical, "source.table") == 2

    def test_textfile_scans_merged(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("a\nb\n")
        ctx = RheemContext()
        union = ctx.textfile(str(path)).union(ctx.textfile(str(path)))
        physical = ctx.app_optimizer.optimize(union.plan)
        assert scan_count(physical, "source.textfile") == 1

    def test_results_correct_after_sharing(self, catalog_ctx):
        ctx = catalog_ctx
        joined = ctx.table("t").join(
            ctx.table("t"), lambda r: r["id"], lambda r: r["id"]
        )
        out = joined.map(lambda p: p[0]["id"]).collect()
        assert sorted(out) == list(range(30))

    def test_self_cross_both_slots_rewired(self, catalog_ctx):
        """A consumer reading the duplicate scan on both slots survives."""
        ctx = catalog_ctx
        crossed = ctx.table("t").limit(3).cross(ctx.table("t").limit(3))
        out = crossed.collect()
        assert len(out) == 9

    def test_shared_scan_charged_once(self, catalog_ctx):
        ctx = catalog_ctx
        joined = ctx.table("t").join(
            ctx.table("t"), lambda r: r["id"], lambda r: r["id"]
        )
        _, metrics = joined.collect_with_metrics(platform="java")
        scans = [
            e for e in metrics.ledger.entries if e.label == "op.source.table"
        ]
        assert len(scans) == 1


class TestLimit:
    @pytest.mark.parametrize("platform", ["java", "spark", "postgres"])
    def test_limit_on_each_platform(self, platform):
        ctx = RheemContext()
        out = ctx.collection(range(100)).limit(7).collect(platform=platform)
        assert out == list(range(7))

    def test_limit_zero(self, ctx):
        assert ctx.collection(range(5)).limit(0).collect(platform="java") == []

    def test_limit_larger_than_data(self, ctx):
        assert ctx.collection([1, 2]).limit(10).collect(platform="java") == [1, 2]

    def test_negative_limit_rejected(self, ctx):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            ctx.collection([1]).limit(-1)

    def test_limit_after_sort(self, ctx):
        out = (
            ctx.collection([5, 1, 9, 3])
            .sort(lambda x: -x)
            .limit(2)
            .collect(platform="java")
        )
        assert out == [9, 5]
