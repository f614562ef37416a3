"""The data path against answers computed without the engine.

Every seeded plan's output is checked against plain Python —
``benchmarks.e2e.reference`` where it has the query, a few lines in the
test otherwise — and run twice: the outputs, the virtual bill and the
full ledger entry sequence must repeat exactly.  Atom ids are
process-global so the bill comparison uses ``(label, ms, platform)``
tuples — the sequence and the amounts must match entry for entry.
"""

from __future__ import annotations

import math
from operator import itemgetter

import pytest

from benchmarks.e2e import reference
from repro import RheemContext
from repro.apps.graph.datagen import erdos_renyi
from repro.apps.graph.pagerank import PageRank
from repro.apps.ml.datagen import linearly_separable, sample_blobs
from repro.apps.ml.kmeans import KMeans
from repro.apps.ml.svm import SVMClassifier
from repro.apps.sql import SqlSession
from repro.util.rng import make_rng

KEY = itemgetter(0)


def _bill(metrics):
    return [
        (entry.label, entry.ms, entry.platform)
        for entry in metrics.ledger.entries
    ]


def assert_matches(run, expected):
    """``run()`` answers ``expected``, and a second run repeats the
    first: same outputs, same virtual time, same bill."""
    outputs, metrics = run()
    assert reference.same(outputs, expected)
    outputs_again, metrics_again = run()
    assert outputs_again == outputs
    assert metrics_again.virtual_ms == metrics.virtual_ms
    assert _bill(metrics_again) == _bill(metrics)


def _sum_by_key(pairs):
    totals: dict = {}
    for key, value in pairs:
        totals[key] = totals.get(key, 0) + value
    return sorted(totals.items())


WORDS = [
    "freedom is the recognition of necessity",
    "the road to freedom is long",
    "freedom necessity freedom",
] * 5


def _context(platform):
    """A context whose roster covers ``platform`` (flink is opt-in)."""
    if platform == "flink":
        from repro.platforms import JavaPlatform
        from repro.platforms.flink import FlinkPlatform

        return RheemContext(platforms=[JavaPlatform(), FlinkPlatform()])
    return RheemContext()


@pytest.mark.parametrize("platform", [None, "java", "spark", "flink"])
def test_wordcount_equivalent(platform):
    def run():
        ctx = _context(platform)
        return (
            ctx.collection(WORDS)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by(KEY, lambda a, b: (a[0], a[1] + b[1]))
            .sort(lambda kv: (-kv[1], kv[0]))
            .collect_with_metrics(platform=platform)
        )

    counts = reference.wordcount(WORDS)
    assert_matches(
        run, sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    )


@pytest.mark.parametrize("platform", ["java", "flink", "spark"])
def test_textfile_pipeline_equivalent(tmp_path, platform):
    """Streaming fused sources (java/flink) vs materialised (spark)."""
    lines = [f"row {i} value {i * i}" for i in range(200)]
    path = tmp_path / "lines.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run():
        ctx = _context(platform)
        return (
            ctx.textfile(str(path))
            .flat_map(str.split)
            .filter(str.isdigit)
            .map(int)
            .distinct()
            .sort(lambda v: v)
            .collect_with_metrics(platform=platform)
        )

    numbers = {
        int(token)
        for line in lines for token in line.split() if token.isdigit()
    }
    assert_matches(run, sorted(numbers))


def test_sql_groupby_equivalent(people, people_schema):
    def run():
        ctx = RheemContext()
        session = SqlSession(ctx)
        session.register_table("people", people, people_schema)
        rows, metrics = session.execute_with_metrics(
            "SELECT dept, COUNT(*) AS n FROM people GROUP BY dept"
        )
        return sorted(tuple(row) for row in rows), metrics

    dept = people_schema.fields.index("dept")
    assert_matches(run, _sum_by_key((row[dept], 1) for row in people))


def test_join_pipeline_equivalent():
    left = [(i % 7, i) for i in range(60)]
    right = [(i % 7, -i) for i in range(35)]

    def run():
        ctx = RheemContext()
        lhs = ctx.collection(left, name="left")
        rhs = lhs.source(right, name="right")
        return (
            lhs.join(rhs, left_key=KEY, right_key=KEY)
            .map(lambda pair: (pair[0][0], pair[0][1] + pair[1][1]))
            .reduce_by(KEY, lambda a, b: (a[0], a[1] + b[1]))
            .sort(KEY)
            .collect_with_metrics(platform="java")
        )

    assert_matches(
        run,
        _sum_by_key(
            (lk, lv + rv) for lk, lv in left for rk, rv in right if lk == rk
        ),
    )


def _lloyd(data, k, max_iterations, tolerance, seed):
    """Lloyd's algorithm from ``KMeans``'s documented seeding: nearest
    centroid (lowest index on ties), empty clusters keep theirs, stop
    when the centroids' total shift drops below ``tolerance``."""
    centroids = make_rng(seed, "kmeans-init").sample(data, k)
    for _ in range(max_iterations):
        members: list = [[] for _ in centroids]
        for point in data:
            distances = [math.dist(point, c) for c in centroids]
            members[distances.index(min(distances))].append(point)
        updated = [
            tuple(sum(axis) / len(group) for axis in zip(*group))
            if group else centroid
            for group, centroid in zip(members, centroids)
        ]
        shift = sum(math.dist(a, b) for a, b in zip(centroids, updated))
        centroids = updated
        if shift < tolerance:
            break
    return centroids


def test_kmeans_equivalent():
    data, _ = sample_blobs(60, k=3, dim=2, seed=11)

    def run():
        model = KMeans(k=3, max_iterations=6, seed=5)
        model.fit(RheemContext(), data, platform="java")
        return model.centroids, model.metrics

    assert_matches(
        run, _lloyd(data, k=3, max_iterations=6, tolerance=1e-6, seed=5)
    )


def test_svm_equivalent():
    data = linearly_separable(40, dim=3, seed=3)

    def run():
        model = SVMClassifier(iterations=5)
        model.fit(RheemContext(), data, platform="java")
        return (model.weights, model.bias), model.metrics

    assert_matches(run, reference.svm_fit(data, 5))


def test_pagerank_equivalent():
    edges = erdos_renyi(40, 0.1, seed=9)

    def run():
        pr = PageRank(iterations=4)
        ranks = pr.run(RheemContext(), edges, platform="java")
        return ranks, pr.metrics

    assert_matches(run, reference.pagerank(edges, 4, 0.85))


def test_parallel_scheduler_equivalent():
    """The answer and the bill hold under the concurrent scheduler."""
    data = [(i % 5, i) for i in range(80)]

    def run():
        ctx = RheemContext(parallelism=4)
        return (
            ctx.collection(data)
            .map(itemgetter(1, 0))
            .filter(KEY)
            .map(itemgetter(1, 0))
            .reduce_by(KEY, lambda a, b: (a[0], a[1] + b[1]))
            .sort(KEY)
            .collect_with_metrics(platform="java")
        )

    assert_matches(run, _sum_by_key((k, v) for k, v in data if v))
