"""Tests for the in-process ("Java") platform."""

import pytest

from repro import RheemContext
from repro.core.metrics import CostLedger
from repro.core.physical.operators import PMap
from repro.core.runtime import RuntimeContext
from repro.core.logical.operators import Map
from repro.errors import UnsupportedOperatorError
from repro.platforms import JavaPlatform


@pytest.fixture()
def jctx():
    return RheemContext(platforms=[JavaPlatform()])


class TestPlatformContract:
    def test_supports_all_generic_kinds(self, java_platform):
        kinds = [
            "source.collection", "map", "flatmap", "filter", "zipwithid",
            "groupby.hash", "groupby.sort", "reduceby.hash", "reduce.global",
            "join.hash", "join.sortmerge", "cross", "union", "sort",
            "distinct.hash", "distinct.sort", "sample", "count", "sink.collect",
        ]
        for kind in kinds:
            assert kind in java_platform.kinds, kind

    def test_ingest_egest_roundtrip(self, java_platform):
        native = java_platform.ingest([1, 2, 3])
        assert java_platform.egest(native) == [1, 2, 3]
        assert java_platform.native_card(native) == 3

    def test_ingest_copies(self, java_platform):
        data = [1]
        native = java_platform.ingest(data)
        data.append(2)
        assert java_platform.egest(native) == [1]

    def test_unsupported_kind_raises(self, java_platform):
        op = PMap(Map(lambda x: x))
        op.kind = "imaginary.kind"
        with pytest.raises(UnsupportedOperatorError, match="imaginary"):
            java_platform.apply(op, [[1]], RuntimeContext(), CostLedger())

    def test_profiles(self, java_platform):
        assert "batch" in java_platform.profiles
        assert "iterative" in java_platform.profiles


class TestOperatorSemantics:
    """Every generic operator, end-to-end on the java platform alone."""

    def test_map_order_preserved(self, jctx):
        assert jctx.collection([3, 1, 2]).map(str).collect() == ["3", "1", "2"]

    def test_flatmap_flattens_in_order(self, jctx):
        out = jctx.collection([[1, 2], [], [3]]).flat_map(lambda x: x).collect()
        assert out == [1, 2, 3]

    def test_groupby_sort_variant_forced(self, jctx):
        # run both variants through the enumerator by hint-forcing: simply
        # verify end-to-end grouping result shape.
        groups = dict(jctx.collection("abcabca").group_by(lambda c: c).collect())
        assert groups["a"] == ["a", "a", "a"]

    def test_sortmerge_join_equals_hash_join(self, jctx):
        left = [(k, f"l{k}") for k in range(20)]
        right = [(k % 5, f"r{k}") for k in range(20)]
        l1 = jctx.collection(left)
        r1 = jctx.collection(right)
        out = sorted(l1.join(r1, lambda t: t[0], lambda t: t[0]).collect())
        expected = sorted(
            (l, r) for l in left for r in right if l[0] == r[0]
        )
        assert out == expected

    def test_count_empty(self, jctx):
        assert jctx.collection([]).count().collect() == [0]

    def test_union_preserves_duplicates(self, jctx):
        out = jctx.collection([1, 1]).union(jctx.collection([1])).collect()
        assert out == [1, 1, 1]

    def test_textfile_read(self, jctx, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a\nb\n")
        assert jctx.textfile(str(path)).collect() == ["a", "b"]

    def test_virtual_time_scales_with_data(self, jctx):
        _, small = jctx.collection(range(10)).map(lambda x: x).collect_with_metrics()
        _, large = (
            jctx.collection(range(100_000)).map(lambda x: x).collect_with_metrics()
        )
        assert large.virtual_ms > small.virtual_ms
