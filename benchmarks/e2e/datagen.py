"""Seeded inputs for the four workloads: the same seed gives the same inputs.

Everything here is plain Python data (strings, ints, floats, tuples); the
system under test and the oracle in ``reference.py`` both start from these
values and share nothing else.  Input sizes are fixed here and quoted in
README.md; a change that claims a gain does not retune them.
"""

from __future__ import annotations

import random
from itertools import accumulate

#: input sizes per op (one round of the workload's queries, or one request)
SIZES = {
    "etl_batch": {
        "wc_lines": 50_000, "wc_width": 8, "wc_vocab": 5_000,
        "facts": 50_000, "dim1": 1_000, "dim2": 200, "dim3": 50,
        "scan_rows": 200_000, "xplat_rows": 200_000,
    },
    "iter_apps": {
        "svm_points": 6_000, "svm_dim": 4, "svm_iters": 10,
        "tax_rows": 4_000, "zip_block": 20, "states": 20,
        "fd_error_rate": 0.03, "dc_error_rate": 0.01,
        "pr_nodes": 1_500, "pr_p": 0.006, "pr_iters": 10,
    },
    "plan_heavy": {
        "chain_ints": 200, "chains": (160, 400),
        "tree_sources": 8, "tree_rows": 50,
        "kmeans_points": 24, "kmeans_k": 3, "kmeans_iters": 3,
    },
    "serve_mix": {
        "wc_lines": 200, "wc_width": 8, "wc_chain": 8,
        "join_rows": 2_000,
        "kmeans_points": 200, "kmeans_k": 3, "kmeans_iters": 3,
        "pool": 8, "pool_share": 0.7,
    },
}

#: keys that ``--smoke`` leaves alone (shapes, rates, plan sizes — not data)
_UNSCALED = {
    "wc_width", "svm_dim", "svm_iters", "zip_block", "states",
    "fd_error_rate", "dc_error_rate", "pr_p", "pr_iters", "chains",
    "tree_sources", "kmeans_k", "kmeans_iters", "wc_chain", "pool",
    "pool_share", "dim3",
}


def sizes(workload: str, smoke: bool = False) -> dict:
    """The workload's sizes; ``smoke`` divides every data size by 20."""
    full = SIZES[workload]
    if not smoke:
        return dict(full)
    return {
        key: value if key in _UNSCALED else max(10, value // 20)
        for key, value in full.items()
    }


def _rng(seed: int, tag: str) -> random.Random:
    # str seeds hash through sha512: stable across processes and versions
    return random.Random(f"{seed}:{tag}")


def _ints(rng: random.Random, bound: int, n: int) -> list[int]:
    return rng.choices(range(bound), k=n)


# ----------------------------------------------------------------------
# etl_batch
# ----------------------------------------------------------------------
def etl_inputs(seed: int, sz: dict) -> dict:
    rng = _rng(seed, "wordcount")
    vocab = [f"w{i:04d}" for i in range(sz["wc_vocab"])]
    zipf = list(accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    width = sz["wc_width"]
    words = rng.choices(vocab, cum_weights=zipf, k=sz["wc_lines"] * width)
    lines = [
        " ".join(words[i:i + width]) for i in range(0, len(words), width)
    ]

    rng = _rng(seed, "star")
    n = sz["facts"]
    dim1 = [(i, rng.randrange(20)) for i in range(sz["dim1"])]
    dim2 = [(i, rng.randrange(10)) for i in range(sz["dim2"])]
    dim3 = [(i, rng.randrange(5)) for i in range(sz["dim3"])]
    facts = list(zip(
        range(n), _ints(rng, sz["dim1"], n), _ints(rng, sz["dim2"], n),
        _ints(rng, sz["dim3"], n), _ints(rng, 1_000, n),
    ))

    rng = _rng(seed, "scan")
    n = sz["scan_rows"]
    scan_rows = list(zip(
        _ints(rng, 10_000, n), _ints(rng, 100, n),
        _ints(rng, 1_000, n), _ints(rng, 50, n),
    ))

    rng = _rng(seed, "xplat")
    n = sz["xplat_rows"]
    measurements = list(zip(
        _ints(rng, 40, n),
        map(float, _ints(rng, 997, n)),
        map(float, _ints(rng, 500, n)),
    ))
    return {
        "lines": lines, "facts": facts, "dim1": dim1, "dim2": dim2,
        "dim3": dim3, "scan_rows": scan_rows, "scan_threshold": 5_000,
        "measurements": measurements, "pressure_floor": 100.0,
    }


# ----------------------------------------------------------------------
# iter_apps
# ----------------------------------------------------------------------
TAX_FIELDS = ("name", "zipcode", "city", "state", "salary", "tax")


def iter_inputs(seed: int, sz: dict) -> dict:
    rng = _rng(seed, "svm")
    dim = sz["svm_dim"]
    normal = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    points = []
    while len(points) < sz["svm_points"]:
        x = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim))
        score = sum(a * b for a, b in zip(normal, x))
        if abs(score) >= 0.2:
            points.append((x, 1 if score > 0 else -1))

    rng = _rng(seed, "tax")
    n = sz["tax_rows"]
    zips = max(1, n // sz["zip_block"])
    rows = []
    for i in range(n):
        zipcode = rng.randrange(zips)
        state = rng.randrange(sz["states"])
        salary = float(rng.randrange(20_000, 200_000))
        rows.append([
            f"emp{i:06d}", f"Z{zipcode:05d}", f"City{zipcode % (zips // 2 or 1):04d}",
            f"S{state:02d}", salary, round(salary * (0.10 + 0.002 * (state % 10)), 2),
        ])
    for i in rng.sample(range(n), int(sz["fd_error_rate"] * n)):
        rows[i][2] += "_typo"
    for i in rng.sample(range(n), int(sz["dc_error_rate"] * n)):
        rows[i][5] = round(rows[i][4] * 0.01, 2)

    rng = _rng(seed, "graph")
    nodes = sz["pr_nodes"]
    wanted = int(nodes * (nodes - 1) * sz["pr_p"])
    edges = sorted(
        (cell // nodes, cell % nodes)
        for cell in rng.sample(range(nodes * nodes), wanted)
        if cell // nodes != cell % nodes
    )
    return {
        "points": points, "svm_iters": sz["svm_iters"],
        "tax_rows": [tuple(row) for row in rows],
        "edges": edges, "pr_iters": sz["pr_iters"], "damping": 0.85,
    }


# ----------------------------------------------------------------------
# plan_heavy
# ----------------------------------------------------------------------
def plan_inputs(seed: int, sz: dict) -> dict:
    rng = _rng(seed, "plan")
    ints = _ints(rng, 10_000, sz["chain_ints"])
    # a chain is a list of ("map", addend) / ("filter", modulus) steps
    chains = {
        length: [
            ("map", rng.randrange(1, 9)) if i % 2 == 0
            else ("filter", rng.choice((89, 97, 101, 103)))
            for i in range(length)
        ]
        for length in sz["chains"]
    }
    rows = sz["tree_rows"]
    sources = [
        [(key, rng.randrange(100)) for key in rng.sample(range(rows), rows)]
        for _ in range(sz["tree_sources"])
    ]
    return {
        "ints": ints, "chains": chains, "sources": sources,
        "kmeans": {
            "seed": rng.randrange(1 << 30), "points": sz["kmeans_points"],
            "k": sz["kmeans_k"], "iters": sz["kmeans_iters"],
        },
    }


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
#: request kinds in the mix, wordcount : join : kmeans = 2 : 1 : 1
MIX = ("wordcount", "wordcount", "join", "kmeans")


def serve_requests(seed: int, client: int, sz: dict):
    """Endless request-spec stream of one client.

    ``pool_share`` of the requests reuse one of ``pool`` seeds per kind
    (shared by all clients, so the plan cache serves them in steady
    state); the rest carry a seed nobody used before (a cache miss).
    """
    rng = _rng(seed, f"client{client}")
    fresh = (1 << 20) * (client + 1)
    while True:
        kind = rng.choice(MIX)
        if rng.random() < sz["pool_share"]:
            data_seed = seed * 1_000 + rng.randrange(sz["pool"])
        else:
            fresh += 1
            data_seed = seed * 1_000 + fresh
        yield serve_spec(kind, data_seed, sz)


def serve_spec(kind: str, data_seed: int, sz: dict) -> dict:
    if kind == "wordcount":
        return {"workload": kind, "seed": data_seed, "lines": sz["wc_lines"],
                "width": sz["wc_width"], "chain": sz["wc_chain"]}
    if kind == "join":
        return {"workload": kind, "seed": data_seed, "rows": sz["join_rows"]}
    return {"workload": kind, "seed": data_seed,
            "points": sz["kmeans_points"], "k": sz["kmeans_k"],
            "iters": sz["kmeans_iters"]}
