"""Hand-written plain-Python answers for every query of the benchmark.

Two jobs: they are the *oracle* every op is checked against, and they are
the *best alternative* the framework tax is measured against (what a user
would write without the cross-platform layer).  Nothing here imports
``repro``; the serving section re-implements the ``/submit`` spec
semantics (seeded data included) from their documentation.
"""

from __future__ import annotations

import random
from collections import Counter

# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
REL_TOL = 1e-9


def same(got, want) -> bool:
    """Exact for ints/strings, 1e-9 relative for floats, recursive over
    sequences and dicts (tuples and lists compare equal: JSON has no
    tuples)."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want), 1e-300)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[key], want[key]) for key in want)
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    return got == want


# ----------------------------------------------------------------------
# etl_batch
# ----------------------------------------------------------------------
def wordcount(lines) -> dict:
    counts = Counter()
    for line in lines:
        counts.update(line.split())
    return dict(counts)


def star_join(facts, dim1, dim2, dim3) -> dict:
    """Sum of fact amounts per (category, region, tier)."""
    category, region, tier = dict(dim1), dict(dim2), dict(dim3)
    totals: dict = {}
    for _, d1, d2, d3, amount in facts:
        key = (category[d1], region[d2], tier[d3])
        totals[key] = totals.get(key, 0) + amount
    return totals


def numeric_scan(rows, threshold) -> dict:
    """Sum of column 2 per column 3 over rows whose column 0 < threshold."""
    totals: dict = {}
    for a, _, c, d in rows:
        if a < threshold:
            totals[d] = totals.get(d, 0) + c
    return totals


def xplat_pipeline(measurements, pressure_floor) -> list:
    """Mean pressure per well over readings above the floor, by well."""
    sums: dict = {}
    for well, _, pressure in measurements:
        if pressure > pressure_floor:
            total, count = sums.get(well, (0.0, 0))
            sums[well] = (total + pressure, count + 1)
    return [(well, total / count) for well, (total, count) in sorted(sums.items())]


# ----------------------------------------------------------------------
# iter_apps
# ----------------------------------------------------------------------
def svm_fit(points, iterations, regularization=0.01):
    """Full-batch hinge-loss subgradient descent, step 1 / (reg * t + 10)."""
    dim = len(points[0][0])
    weights, bias, n = [0.0] * dim, 0.0, len(points)
    for t in range(1, iterations + 1):
        grad, grad_bias = [0.0] * dim, 0.0
        for x, y in points:
            if y * (sum(w * v for w, v in zip(weights, x)) + bias) < 1.0:
                for j, v in enumerate(x):
                    grad[j] += y * v
                grad_bias += y
        eta = 1.0 / (regularization * t + 10.0)
        shrink = 1.0 - eta * regularization
        weights = [shrink * w + eta * g / n for w, g in zip(weights, grad)]
        bias += eta * grad_bias / n
    return (tuple(weights), bias)


def fd_detect(tax_rows) -> list:
    """zipcode -> city: pairs of rows sharing a zipcode, differing in city.

    A violation is the sorted tuple of its ``(row id, field, value)`` cells.
    """
    blocks: dict = {}
    for tid, row in enumerate(tax_rows):
        blocks.setdefault(row[1], []).append((tid, row[2]))
    found = []
    for members in blocks.values():
        for i, (tid1, city1) in enumerate(members):
            for tid2, city2 in members[i + 1:]:
                if city1 != city2:
                    found.append(((tid1, "city", city1), (tid2, "city", city2)))
    return sorted(found)


def dc_detect(tax_rows) -> list:
    """Within a state, no row may earn more and pay less tax than another."""
    blocks: dict = {}
    for tid, row in enumerate(tax_rows):
        blocks.setdefault(row[3], []).append((tid, row[4], row[5]))
    found = []
    for members in blocks.values():
        for tid1, salary1, tax1 in members:
            for tid2, salary2, tax2 in members:
                if salary1 > salary2 and tax1 < tax2:
                    found.append(tuple(sorted((
                        (tid1, "salary", salary1), (tid2, "salary", salary2),
                        (tid1, "tax", tax1), (tid2, "tax", tax2),
                    ))))
    return sorted(found)


def pagerank(edges, iterations, damping) -> dict:
    """Damped PageRank over the nodes the edge list mentions; dangling
    mass is dropped each sweep and the result renormalised to sum 1."""
    out: dict = {}
    for src, dst in edges:
        out.setdefault(src, []).append(dst)
        out.setdefault(dst, [])
    n = len(out)
    base = (1.0 - damping) / n
    ranks = dict.fromkeys(out, 1.0 / n)
    for _ in range(iterations):
        nxt = dict.fromkeys(out, base)
        for node, rank in ranks.items():
            neighbors = out[node]
            if neighbors:
                share = damping * rank / len(neighbors)
                for neighbor in neighbors:
                    nxt[neighbor] += share
        ranks = nxt
    total = sum(ranks.values())
    return {node: rank / total for node, rank in ranks.items()}


# ----------------------------------------------------------------------
# plan_heavy
# ----------------------------------------------------------------------
def chain(ints, steps) -> list:
    out = []
    for x in ints:
        for kind, param in steps:
            if kind == "map":
                x += param
            elif x % param == 0:
                break
        else:
            out.append(x)
    return out


def join_tree(sources) -> list:
    """Join all sources on the key, add the values up, then total them per
    ``key % 5``, ordered by that bucket."""
    joined = dict(sources[0])
    for source in sources[1:]:
        other = dict(source)
        joined = {
            key: value + other[key]
            for key, value in joined.items() if key in other
        }
    buckets: dict = {}
    for key, value in joined.items():
        buckets[key % 5] = buckets.get(key % 5, 0) + value
    return sorted(buckets.items())


# ----------------------------------------------------------------------
# serve_mix: the three ``/submit`` workload kinds, from their specs
# ----------------------------------------------------------------------
_SERVE_VOCAB = (
    "freedom", "road", "data", "analytics", "plan", "platform",
    "cost", "query", "cache", "tenant",
)


def serve_wordcount(seed, lines, width, chain=0) -> list:
    """Counts of seeded 10-word-vocabulary lines, most frequent first."""
    rng = random.Random(seed)
    counts = Counter(
        rng.choice(_SERVE_VOCAB) for _ in range(lines) for _ in range(width)
    )
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def serve_join(seed, rows) -> list:
    rng = random.Random(seed)
    keys = max(1, rows // 2)
    left = [(i % keys, rng.randrange(100)) for i in range(rows)]
    right: dict = {}
    for i in range(rows // 2):
        right.setdefault(i % keys, []).append(rng.randrange(100))
    return sorted(
        ((key, lv), (key, rv)) for key, lv in left for rv in right.get(key, ())
    )


def serve_kmeans(seed, points, k, iters) -> list:
    """Lloyd's k-means over distinct seeded points; centroids are rounded
    to 6 places and kept sorted, ties go to the smaller centroid."""
    rng = random.Random(seed)
    data = [
        (round(rng.uniform(0.0, 10.0), 3), round(rng.uniform(0.0, 10.0), 3))
        for _ in range(points)
    ]
    centroids = data[:k]
    distinct = list(dict.fromkeys(data))
    for _ in range(iters):
        sums: dict = {}
        for px, py in distinct:
            _, nearest = min(
                ((px - cx) ** 2 + (py - cy) ** 2, (cx, cy))
                for cx, cy in centroids
            )
            sx, sy, count = sums.get(nearest, (0.0, 0.0, 0))
            sums[nearest] = (sx + px, sy + py, count + 1)
        centroids = sorted(
            (round(sx / count, 6), round(sy / count, 6))
            for sx, sy, count in sums.values()
        )
    return centroids


def serve_answer(spec: dict) -> list:
    params = dict(spec)
    kind = params.pop("workload")
    return {"wordcount": serve_wordcount, "join": serve_join,
            "kmeans": serve_kmeans}[kind](**params)
