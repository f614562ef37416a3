"""Every (platform, kind) pair, one operator at a time.

Each case builds a one-operator task atom and drives
``Platform.execute_atom`` on it with int-keyed inputs.  Three things are
checked per pair:

* the egested output against plain Python (order-insensitive where the
  platform's partitioning decides the order);
* the ``(label, ms, platform)`` ledger entry sequence against a golden,
  spark's per-task ``op.udf_work`` charges included;
* a digest of the egested output (its exact order) and the operator
  span's ``batch_kernel`` note against the same golden.

Regenerate the golden with ``REPRO_UPDATE_GOLDENS=1``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os

import pytest

from repro.apps.cleaning.iejoin import InequalityJoin, PIEJoin, register_iejoin
from repro.core.dag import OperatorGraph
from repro.core.execution.plan import TaskAtom
from repro.core.logical.operators import (
    CollectionSource,
    CollectSink,
    Count,
    CrossProduct,
    Distinct,
    Filter,
    FlatMap,
    GlobalReduce,
    GroupBy,
    Join,
    Limit,
    Map,
    ReduceBy,
    Sample,
    Sort,
    TableSource,
    TextFileSource,
    Union,
    ZipWithId,
)
from repro.core.mappings import OperatorMappings
from repro.core.observability.spans import Tracer
from repro.core.physical.fusion import PFusedPipeline
from repro.core.physical.operators import (
    PBroadcastJoin,
    PCollectionSource,
    PCollectSink,
    PCount,
    PCrossProduct,
    PFilter,
    PFlatMap,
    PGlobalReduce,
    PHashDistinct,
    PHashGroupBy,
    PHashJoin,
    PLimit,
    PMap,
    PNestedLoopJoin,
    PReduceBy,
    PSample,
    PSort,
    PSortDistinct,
    PSortGroupBy,
    PSortMergeJoin,
    PTableSource,
    PTextFileSource,
    PUnion,
    PZipWithId,
)
from repro.core.runtime import RuntimeContext
from repro.core.types import Schema
from repro.core.workmeter import report_work
from repro.platforms import JavaPlatform, PostgresPlatform, SparkPlatform
from repro.platforms.flink import FlinkPlatform
from repro.platforms.postgres import Database
from repro.storage import Catalog, KeyValueStore

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "operator_table.json"
)

SCHEMA = Schema(["k", "v"])
NUMBERS = list(range(40))
PAIRS = [(i % 7, i) for i in range(40)]
RIGHT = [(i % 5, -i) for i in range(12)]
DUPLICATES = [i % 9 for i in range(40)]
LINES = [f"{i} {i * 3} {i % 4}" for i in range(30)]
TABLE_ROWS = [SCHEMA.record(i % 6, i * 10) for i in range(25)]
DB_ROWS = [SCHEMA.record(i % 4, -i) for i in range(18)]


def weighed(x):
    """A map UDF that reports skewed work, so per-task pricing shows."""
    report_work(float(x if x > 30 else 1))
    return x * 3


def add_values(a, b):
    return (a[0], a[1] + b[1])


def canonical_groups(groups):
    return sorted((key, sorted(values)) for key, values in groups)


def iejoin():
    return PIEJoin(
        InequalityJoin(
            operator.itemgetter(0), "<", operator.itemgetter(0),
            operator.itemgetter(1), ">", operator.itemgetter(1),
        )
    )


def fused_stages():
    return [
        PMap(Map(weighed)),
        PFilter(Filter(lambda x: x % 2 == 0)),
        PFlatMap(FlatMap(lambda x: [x, x + 1])),
    ]


def fused_text_head(path):
    return PFusedPipeline([
        PTextFileSource(TextFileSource(path)),
        PMap(Map(str.split)),
        PFilter(Filter(lambda words: int(words[2]) != 1)),
    ])


#: case name -> (build(path) -> operator, inputs, expected, ordered).
#: ``expected`` is plain Python over the inputs; ``ordered`` says whether
#: every platform must reproduce its order exactly.
CASES = {
    "source.collection": (
        lambda path: PCollectionSource(CollectionSource(NUMBERS)),
        [], NUMBERS, True,
    ),
    "source.textfile": (
        lambda path: PTextFileSource(TextFileSource(path)),
        [], LINES, True,
    ),
    "source.table@catalog": (
        lambda path: PTableSource(TableSource("events")),
        [], TABLE_ROWS, True,
    ),
    "source.table@database": (
        lambda path: PTableSource(TableSource("accounts")),
        [], DB_ROWS, True,
    ),
    "map": (
        lambda path: PMap(Map(weighed)),
        [NUMBERS], [x * 3 for x in NUMBERS], True,
    ),
    "flatmap": (
        lambda path: PFlatMap(FlatMap(lambda x: [x] * (x % 3))),
        [NUMBERS], [x for x in NUMBERS for _ in range(x % 3)], True,
    ),
    "filter": (
        lambda path: PFilter(Filter(lambda x: x % 3 != 0)),
        [NUMBERS], [x for x in NUMBERS if x % 3 != 0], True,
    ),
    "zipwithid": (
        lambda path: PZipWithId(ZipWithId()),
        [NUMBERS], list(enumerate(NUMBERS)), True,
    ),
    "groupby.hash": (
        lambda path: PHashGroupBy(GroupBy(operator.itemgetter(0))),
        [PAIRS],
        [(k, [p for p in PAIRS if p[0] == k]) for k in sorted({p[0] for p in PAIRS})],
        False,
    ),
    "groupby.sort": (
        lambda path: PSortGroupBy(GroupBy(operator.itemgetter(0))),
        [PAIRS],
        [(k, [p for p in PAIRS if p[0] == k]) for k in sorted({p[0] for p in PAIRS})],
        False,
    ),
    "reduceby.hash": (
        lambda path: PReduceBy(ReduceBy(operator.itemgetter(0), add_values)),
        [PAIRS],
        [(k, sum(p[1] for p in PAIRS if p[0] == k)) for k in range(7)],
        False,
    ),
    "reduce.global": (
        lambda path: PGlobalReduce(GlobalReduce(operator.add)),
        [NUMBERS], [sum(NUMBERS)], True,
    ),
    "join.hash": (
        lambda path: PHashJoin(Join(operator.itemgetter(0), operator.itemgetter(0))),
        [PAIRS, RIGHT], [(l, r) for l in PAIRS for r in RIGHT if l[0] == r[0]], False,
    ),
    "join.broadcast": (
        lambda path: PBroadcastJoin(Join(operator.itemgetter(0), operator.itemgetter(0))),
        [PAIRS, RIGHT], [(l, r) for l in PAIRS for r in RIGHT if l[0] == r[0]], False,
    ),
    "join.sortmerge": (
        lambda path: PSortMergeJoin(Join(operator.itemgetter(0), operator.itemgetter(0))),
        [PAIRS, RIGHT], [(l, r) for l in PAIRS for r in RIGHT if l[0] == r[0]], False,
    ),
    "join.nestedloop": (
        lambda path: PNestedLoopJoin(CrossProduct(), lambda l, r: l[0] < r[0]),
        [PAIRS, RIGHT], [(l, r) for l in PAIRS for r in RIGHT if l[0] < r[0]], False,
    ),
    "join.iejoin": (
        lambda path: iejoin(),
        [PAIRS, RIGHT],
        [(l, r) for l in PAIRS for r in RIGHT if l[0] < r[0] and l[1] > r[1]],
        False,
    ),
    "cross": (
        lambda path: PCrossProduct(CrossProduct()),
        [NUMBERS[:9], RIGHT], [(l, r) for l in NUMBERS[:9] for r in RIGHT], False,
    ),
    "union": (
        lambda path: PUnion(Union()),
        [NUMBERS, DUPLICATES], NUMBERS + DUPLICATES, True,
    ),
    "sort": (
        lambda path: PSort(Sort(lambda x: x % 11, reverse=True)),
        [NUMBERS], sorted(NUMBERS, key=lambda x: x % 11, reverse=True), True,
    ),
    "distinct.hash": (
        lambda path: PHashDistinct(Distinct()),
        [DUPLICATES], sorted(set(DUPLICATES)), False,
    ),
    "distinct.sort": (
        lambda path: PSortDistinct(Distinct()),
        [DUPLICATES], sorted(set(DUPLICATES)), False,
    ),
    "sample": (
        lambda path: PSample(Sample(10, seed=3)),
        [NUMBERS], None, False,
    ),
    "count": (
        lambda path: PCount(Count()), [NUMBERS], [len(NUMBERS)], True,
    ),
    "limit": (
        lambda path: PLimit(Limit(7)), [NUMBERS], NUMBERS[:7], True,
    ),
    "fused.narrow": (
        lambda path: PFusedPipeline(fused_stages()),
        [NUMBERS],
        [y for x in NUMBERS if (x * 3) % 2 == 0 for y in (x * 3, x * 3 + 1)],
        True,
    ),
    "fused.narrow@textfile": (
        fused_text_head, [],
        [line.split() for line in LINES if int(line.split()[2]) != 1],
        True,
    ),
    "sink.collect": (
        lambda path: PCollectSink(CollectSink()),
        [NUMBERS], NUMBERS, True,
    ),
}

ALL = set(CASES)
RELATIONAL = ALL - {
    "source.textfile", "flatmap", "zipwithid", "sample",
    "fused.narrow", "fused.narrow@textfile",
}
#: case names each platform runs; a platform without a database reads
#: ``source.table`` from the catalog, and only engines that stream a
#: source into a fused chain get a text-file head
SUPPORTED = {
    "java": ALL - {"source.table@database"},
    "flink": ALL - {"source.table@database"},
    "spark": ALL - {"source.table@database", "fused.narrow@textfile"},
    "postgres": RELATIONAL,
}
def make_platforms() -> dict:
    database = Database()
    table = database.create_table("accounts", SCHEMA)
    table.insert_many(DB_ROWS)
    platforms = {
        "java": JavaPlatform(),
        "spark": SparkPlatform(),
        "postgres": PostgresPlatform(database=database),
        "flink": FlinkPlatform(),
    }
    register_iejoin(OperatorMappings(), list(platforms.values()))
    return platforms


def make_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_store(KeyValueStore())
    catalog.write_dataset("events", TABLE_ROWS, "kvstore", schema=SCHEMA)
    return catalog


def run_case(platform, name, path):
    """Run one case's operator alone; return (output, entries, kernel)."""
    build, inputs, _, _ = CASES[name]
    op = build(path)
    plan = OperatorGraph()
    upstream = [plan.add(PCollectionSource(CollectionSource(data))) for data in inputs]
    plan.add(op, upstream)
    external = {(op.id, slot): producer.id for slot, producer in enumerate(upstream)}
    atom = TaskAtom(platform, plan.subgraph([op]), external, {op.id})
    tracer = Tracer()
    runtime = RuntimeContext(catalog=make_catalog(), tracer=tracer)
    moved = {(op.id, slot): list(data) for slot, data in enumerate(inputs)}
    outputs, ledger = platform.execute_atom(atom, moved, runtime)
    entries = [[e.label, e.ms, e.platform] for e in ledger.entries]
    (span,) = [s for s in tracer.spans if s.name == f"op.{op.kind}"]
    return outputs[op.id], entries, span.attributes.get("batch_kernel")


def pairs():
    return [
        (platform, name)
        for platform in ("java", "spark", "postgres", "flink")
        for name in sorted(SUPPORTED[platform])
    ]


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "lines.txt"
    path.write_text("".join(line + "\n" for line in LINES), encoding="utf-8")
    return str(path)


def test_supported_pairs_match_platform_rosters(text_path):
    ops = [build(text_path) for build, *_ in CASES.values()]
    for platform_name, platform in make_platforms().items():
        kinds = {CASES[name][0](text_path).kind for name in SUPPORTED[platform_name]}
        for op in ops:
            assert platform.supports(op) == (op.kind in kinds), (platform_name, op)


@pytest.mark.parametrize("platform_name,name", pairs())
def test_pair_matches_python_and_golden(platform_name, name, golden, text_path):
    platform = make_platforms()[platform_name]
    output, entries, kernel = run_case(platform, name, text_path)
    _, _, expected, ordered = CASES[name]
    if name == "sample":
        assert len(output) == 10 and set(output) <= set(NUMBERS)
    elif name.startswith("groupby"):
        assert canonical_groups(output) == canonical_groups(expected)
    elif ordered:
        assert output == expected
    else:
        assert sorted(output) == sorted(expected)
    record = {
        "entries": entries,
        "output": hashlib.sha256(repr(output).encode()).hexdigest()[:16],
        "batch_kernel": kernel,
    }
    key = f"{platform_name}/{name}"
    if golden is None:
        _update_golden(key, record)
        pytest.skip(f"golden entry {key} regenerated")
    assert record == golden[key], key


_PENDING: dict = {}


def _update_golden(key, record):
    _PENDING[key] = record
    if len(_PENDING) == len(pairs()):
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(_PENDING.items())]
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
