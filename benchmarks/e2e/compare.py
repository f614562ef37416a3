"""Compare two sets of benchmark records, metric by metric, against the bounds.

    python -m benchmarks.e2e.compare A B

``A`` and ``B`` are each a ``results/latest.json`` file or a directory of
such files (A the parent or first set, B the change or second set).  For
every workload × end-to-end metric it prints B's median against A's beside
the metric's bound from BENCHMARK.json.  A pairing reads ``unresolved`` when
a side cannot tell a change of that size from its own noise: the quartiles
of its records lie further apart than the bound or, with fewer than four
records, the three window segments of a record do.  Exit code 1 when B is
worse than A by more than the bound on a resolved pairing.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from benchmarks.e2e import stats
from benchmarks.e2e.run import load_contract


def _untraced(path: str) -> dict:
    """workload -> its untraced runs, from a record or a directory of them."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
    runs: dict = {}
    for file in files:
        with open(file) as fh:
            for run in json.load(fh)["runs"]:
                if not run["trace"]:
                    runs.setdefault(run["workload"], []).append(run)
    return runs


def _median_and_noise(runs: list, name: str) -> tuple[float, float]:
    values = [run["metrics"][name]["value"] for run in runs]
    mid = statistics.median(values)
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
        return mid, (high - low) / mid
    return mid, max(stats.spread(run["segments"].get(name, [])) for run in runs)


def compare(a_path: str, b_path: str) -> int:
    before, after = _untraced(a_path), _untraced(b_path)
    end_to_end = load_contract()["end_to_end"]
    regressions = 0
    print(f"{'workload':<11} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for workload in sorted(before.keys() & after.keys()):
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            a, a_noise = _median_and_noise(before[workload], name)
            b, b_noise = _median_and_noise(after[workload], name)
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            if max(a_noise, b_noise) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:<11} {name:<18} {a:>12.4f} {b:>12.4f} "
                  f"{change:>+8.1%} {bound:>6.0%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
