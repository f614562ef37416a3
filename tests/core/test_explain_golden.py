"""Golden-file regression tests for ``repro explain``.

The explain output is the user-facing contract of the decision trace:
candidate enumeration, winner + reason, operator assignment, atom cuts,
compiled data path, and the calibration report.  These tests freeze its
*shape* against goldens under ``tests/core/goldens/``.

Volatile tokens are scrubbed before comparison:

* operator/atom ids (``op#12`` / ``atom#3``) are process-global counters;
* timings (``120.052ms`` / ``2.6s`` / ``1.2min``) depend on cost-model
  constants that other PRs legitimately tune;
* 40-hex git shas and filesystem paths (provenance, store locations).

To regenerate after an intentional output change::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/core/test_explain_golden.py
"""

from __future__ import annotations

import os
import re

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

_SCRUBBERS = [
    (re.compile(r"\b[0-9a-f]{40}\b"), "<SHA>"),
    (re.compile(r"\bop#\d+\b"), "op#N"),
    (re.compile(r"\batom#\d+\b"), "atom#N"),
    (re.compile(r"\b\d+(\.\d+)?(ms|min)\b"), "<T>"),
    (re.compile(r"\b\d+(\.\d+)?s\b"), "<T>"),
    (re.compile(r"(->|from|store:) /[^ ]+"), r"\1 <PATH>"),
]


def scrub(text: str) -> str:
    """Normalise volatile tokens (ids, timings, shas, paths)."""
    for pattern, replacement in _SCRUBBERS:
        text = pattern.sub(replacement, text)
    return text


def assert_matches_golden(name: str, output: str) -> None:
    scrubbed = scrub(output)
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scrubbed)
        pytest.skip(f"golden {name} regenerated")
    assert os.path.exists(path), (
        f"golden {name} missing; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    with open(path, encoding="utf-8") as fh:
        expected = fh.read()
    assert scrubbed == expected, (
        f"explain output drifted from goldens/{name}; if intentional, "
        "regenerate with REPRO_UPDATE_GOLDENS=1"
    )


class TestScrubber:
    def test_ids_timings_shas_paths(self):
        raw = (
            "op#42 flatmap est=120.052ms atom#7 took 2.5s or 1.2min\n"
            "sha " + "a" * 40 + " store: /tmp/x/store.json\n"
        )
        cleaned = scrub(raw)
        assert "op#N" in cleaned and "atom#N" in cleaned
        assert "120.052" not in cleaned and "<T>" in cleaned
        assert "<SHA>" in cleaned and "a" * 40 not in cleaned
        assert "/tmp/x/store.json" not in cleaned

    def test_scrub_is_idempotent(self):
        raw = "op#1 est=3.0ms -> /var/data/f.json"
        assert scrub(scrub(raw)) == scrub(raw)

    def test_stable_tokens_survive(self):
        raw = "winner: {java} — 7 candidates, est_card=9"
        assert "{java}" in scrub(raw)
        assert "est_card=9" in scrub(raw)


class TestExplainGoldens:
    def test_explain_demo(self, capsys):
        assert main(["explain", "demo"]) == 0
        assert_matches_golden(
            "explain_demo.txt", capsys.readouterr().out
        )

    def test_explain_demo_cold_calibration(self, capsys, tmp_path):
        """A cold store adds the calibration section but must not move a
        single candidate estimate or assignment line."""
        store = tmp_path / "store.json"
        assert main(["explain", "demo", "--calibrate", str(store)]) == 0
        out = capsys.readouterr().out
        assert_matches_golden("explain_demo_calibrated.txt", out)

    def test_cold_calibrated_prefix_matches_plain(self, capsys, tmp_path):
        """The calibrated explain is the plain explain plus a trailing
        calibration section — cold priors change nothing upstream."""
        assert main(["explain", "demo"]) == 0
        plain = scrub(capsys.readouterr().out)
        store = tmp_path / "store.json"
        assert main(["explain", "demo", "--calibrate", str(store)]) == 0
        calibrated = scrub(capsys.readouterr().out)
        assert calibrated.startswith(plain.rstrip("\n"))
        assert "calibration:" in calibrated

    def test_explain_sql(self, capsys, tmp_path):
        csv = tmp_path / "people.csv"
        csv.write_text(
            "name,city,salary\n"
            "ada,berlin,120\n"
            "bob,paris,90\n"
            "cyn,berlin,140\n"
        )
        code = main(
            [
                "explain",
                "SELECT city FROM people WHERE salary > 100",
                "--table",
                f"people={csv}",
            ]
        )
        assert code == 0
        assert_matches_golden("explain_sql.txt", capsys.readouterr().out)
