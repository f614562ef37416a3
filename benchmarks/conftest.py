"""Benchmark-suite plumbing: print recorded result tables after the run
(outside pytest's capture), mirror them to benchmarks/results/, and
serialise every machine-readable payload registered via
``harness.record_bench`` to ``benchmarks/results/BENCH_<exp_id>.json``.

All result files are written atomically (write-temp + rename) so a
crashed run never leaves truncated baselines behind.
"""

from __future__ import annotations

import datetime
import json
import os

from benchmarks.harness import (
    git_sha,
    recorded_benches,
    recorded_tables,
    scale,
    write_atomic,
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = recorded_tables()
    benches = recorded_benches()
    if not tables and not benches:
        return
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    if tables:
        rendered = "\n\n".join(table.render() for table in tables)
        terminalreporter.write_sep("=", "reproduced paper tables and figures")
        terminalreporter.write_line(rendered)
        write_atomic(os.path.join(results_dir, "latest.txt"), rendered + "\n")
    if benches:
        from repro.core.observability.resources import profiling_enabled

        provenance = {
            "scale": scale(),
            "git_sha": git_sha(),
            "recorded_at_utc": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "profiled": profiling_enabled(),
        }
        for exp_id, payload in benches.items():
            document = {"exp_id": exp_id, **provenance, **payload}
            path = os.path.join(results_dir, f"BENCH_{exp_id}.json")
            write_atomic(
                path,
                json.dumps(document, indent=2, sort_keys=False) + "\n",
            )
            terminalreporter.write_line(f"bench payload: {path}")
