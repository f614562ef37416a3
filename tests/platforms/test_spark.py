"""Tests for the simulated Spark platform: SimRDD semantics, shuffles,
stage/overhead accounting, and equivalence with the in-process engine."""

import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RheemContext
from repro.core.logical.operators import CollectSink
from repro.core.runtime import RuntimeContext
from repro.core.workmeter import report_work
from repro.platforms import JavaPlatform, SparkPlatform
from repro.platforms.spark import ClusterConfig, SimRDD


@pytest.fixture()
def sctx():
    return RheemContext(platforms=[SparkPlatform()])


class TestSimRDD:
    def test_from_collection_partition_count(self):
        rdd = SimRDD.from_collection(list(range(10)), 4)
        assert rdd.num_partitions == 4
        assert rdd.count() == 10
        assert rdd.collect() == list(range(10))

    def test_from_collection_fewer_items_than_partitions(self):
        rdd = SimRDD.from_collection([1, 2], 8)
        assert rdd.num_partitions == 8
        assert rdd.count() == 2

    def test_map_partitions_independent(self):
        rdd = SimRDD([[1, 2], [3]])
        doubled = rdd.map_partitions(lambda p: [x * 2 for x in p])
        assert doubled.partitions == [[2, 4], [6]]

    def test_shuffle_by_key_groups_keys_together(self):
        rdd = SimRDD.from_collection(list(range(100)), 8)
        shuffled = rdd.shuffle_by_key(lambda x: x % 10, 4)
        for partition in shuffled.partitions:
            keys = {x % 10 for x in partition}
            # every key lives in exactly one partition
            for other in shuffled.partitions:
                if other is not partition:
                    assert keys.isdisjoint({x % 10 for x in other})

    def test_shuffle_preserves_multiset(self):
        data = [1, 2, 2, 3, 3, 3]
        rdd = SimRDD.from_collection(data, 3)
        shuffled = rdd.shuffle_by_key(lambda x: x, 2)
        assert sorted(shuffled.collect()) == sorted(data)

    def test_union_concatenates_partitions(self):
        a = SimRDD([[1], [2]])
        b = SimRDD([[3]])
        assert a.union(b).num_partitions == 3

    def test_repartition_balances(self):
        rdd = SimRDD([[1, 2, 3, 4, 5, 6], [], []])
        balanced = rdd.repartition(3)
        sizes = [len(p) for p in balanced.partitions]
        assert max(sizes) - min(sizes) <= 1

    @given(st.lists(st.integers(), max_size=40), st.integers(1, 8))
    def test_roundtrip_property(self, data, parts):
        rdd = SimRDD.from_collection(data, parts)
        assert rdd.collect() == data
        assert rdd.count() == len(data)


#: prints the bucket sizes of a shuffle by str keys, str-in-tuple keys
#: and bytes keys
_SHUFFLE_SIZES = """
from repro.platforms.spark import SimRDD
words = [f"w{i % 23}" for i in range(400)]
for key in (lambda w: w, lambda w: (w[:2], len(w)), lambda w: w.encode()):
    rdd = SimRDD.from_collection(words, 4).shuffle_by_key(key, 8)
    print([len(p) for p in rdd.partitions])
"""


class TestShuffleHash:
    def test_text_keys_shuffle_alike_under_any_hash_seed(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        sizes = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            sizes.append(subprocess.run(
                [sys.executable, "-c", _SHUFFLE_SIZES], env=env,
                capture_output=True, text=True, check=True,
            ).stdout)
        assert sizes[0] == sizes[1]
        assert sizes[0].count("[") == 3

    @given(st.lists(st.one_of(
        st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
        st.tuples(st.integers(), st.floats(allow_nan=False), st.none()),
        st.tuples(st.integers(), st.tuples(st.booleans(), st.integers())),
    ), max_size=40), st.integers(1, 8))
    def test_keys_without_text_keep_their_hash(self, keys, parts):
        rdd = SimRDD([keys]).shuffle_by_key(lambda k: k, parts)
        buckets = [[] for _ in range(parts)]
        for key in keys:
            buckets[hash(key) % parts].append(key)
        assert rdd.partitions == buckets


class TestSparkOperators:
    def test_zip_with_id_dense_global_ids(self, sctx):
        out = sctx.collection(list("abcdefghij")).zip_with_id().collect()
        assert sorted(i for i, _ in out) == list(range(10))

    def test_reduce_by_map_side_combine_correct(self, sctx):
        data = [(i % 3, 1) for i in range(99)]
        out = sctx.collection(data).reduce_by(
            lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1])
        ).collect()
        assert sorted(out) == [(0, 33), (1, 33), (2, 33)]

    def test_global_reduce_across_partitions(self, sctx):
        assert sctx.collection(range(1000)).reduce(lambda a, b: a + b).collect() == [
            499500
        ]

    def test_sort_global_order(self, sctx):
        out = sctx.collection([5, 3, 9, 1]).sort(lambda x: x).collect()
        assert out == [1, 3, 5, 9]

    def test_distinct_across_partitions(self, sctx):
        out = sctx.collection([1] * 50 + [2] * 50).distinct().collect()
        assert sorted(out) == [1, 2]

    def test_join_copartitioned(self, sctx):
        left = [(k, "l") for k in range(30)]
        right = [(k, "r") for k in range(0, 30, 3)]
        out = sctx.collection(left).join(
            sctx.collection(right), lambda t: t[0], lambda t: t[0]
        ).collect()
        assert len(out) == 10


class TestCostAccounting:
    def test_job_startup_charged(self, sctx):
        _, metrics = sctx.collection([1]).collect_with_metrics()
        assert metrics.by_label_prefix("startup") == pytest.approx(3000.0)

    def test_wide_ops_cost_more_than_narrow(self, sctx):
        data = list(range(20000))
        _, narrow = sctx.collection(data).map(lambda x: x).collect_with_metrics()
        _, wide = (
            sctx.collection(data).group_by(lambda x: x % 100).collect_with_metrics()
        )
        assert wide.virtual_ms > narrow.virtual_ms

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
    def test_atom_ledger_entries_carry_the_atom_id(self, fuse):
        def heavy(x):
            report_work(10.0)
            return x + 1

        def even(x):
            report_work(5.0)
            return x % 2 == 0

        ctx = RheemContext(platforms=[SparkPlatform(fuse_narrow=fuse)])
        handle = ctx.collection(list(range(40))).map(heavy).filter(even)
        handle.plan.add(CollectSink(), [handle.operator])
        execution = ctx.task_optimizer.optimize(
            ctx.app_optimizer.optimize(handle.plan)
        )
        (atom,) = execution.atoms
        kinds = {op.kind for op in atom.fragment}
        assert ("fused.narrow" in kinds) is fuse
        _, ledger = atom.platform.execute_atom(atom, {}, RuntimeContext())
        assert "op.udf_work" in {entry.label for entry in ledger.entries}
        assert {entry.atom_id for entry in ledger.entries} == {atom.id}

    def test_custom_cluster_config(self):
        cluster = ClusterConfig(workers=2, default_parallelism=4,
                                job_startup_ms=500.0)
        ctx = RheemContext(platforms=[SparkPlatform(cluster)])
        out, metrics = ctx.collection(range(8)).collect_with_metrics()
        assert out == list(range(8))
        assert metrics.by_label_prefix("startup") == pytest.approx(500.0)


@st.composite
def pipelines(draw):
    """A random pipeline spec applied identically on both platforms."""
    steps = draw(
        st.lists(
            st.sampled_from(
                ["map", "filter", "flatmap", "distinct", "sort", "group", "reduceby"]
            ),
            max_size=4,
        )
    )
    data = draw(st.lists(st.integers(-20, 20), max_size=30))
    return steps, data


def apply_steps(ctx, steps, data):
    dq = ctx.collection(data)
    for step in steps:
        if step == "map":
            dq = dq.map(lambda x: x if isinstance(x, int) else x)
        elif step == "filter":
            dq = dq.filter(lambda x: (hashable_int(x) % 2) == 0)
        elif step == "flatmap":
            dq = dq.flat_map(lambda x: [x, x])
        elif step == "distinct":
            dq = dq.distinct()
        elif step == "sort":
            dq = dq.sort(repr)
        elif step == "group":
            dq = dq.group_by(hashable_int).map(
                lambda kv: (kv[0], tuple(sorted(map(repr, kv[1]))))
            )
        elif step == "reduceby":
            dq = dq.map(lambda x: (hashable_int(x), 1)).reduce_by(
                lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1])
            )
    return dq.collect()


def hashable_int(x):
    return x[0] if isinstance(x, tuple) else int(x) % 5


@given(pipelines())
def test_spark_equals_java_on_random_pipelines(spec):
    steps, data = spec
    java_ctx = RheemContext(platforms=[JavaPlatform()])
    spark_ctx = RheemContext(platforms=[SparkPlatform()])
    assert sorted(map(repr, apply_steps(java_ctx, steps, data))) == sorted(
        map(repr, apply_steps(spark_ctx, steps, data))
    )
