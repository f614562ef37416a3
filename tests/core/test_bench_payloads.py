"""Schema validation for the machine-readable benchmark payloads.

``benchmarks/conftest.py`` serialises every ``record_bench`` payload to
``benchmarks/results/BENCH_<exp_id>.json`` with run provenance merged
in.  CI and dashboards assert on these files, so their shape is a
contract: this suite validates every committed/produced payload against
a hand-rolled schema (no external jsonschema dependency) and pins the
provenance fields the conftest hook promises.
"""

from __future__ import annotations

import json
import os
import re
import string

import pytest

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "results",
)

#: provenance keys the conftest hook always merges in
PROVENANCE_KEYS = ("exp_id", "scale", "git_sha", "recorded_at_utc")
EXP_ID_RE = re.compile(r"^(FIG|ABL)[0-9]+[a-zA-Z]?$")
TIMESTAMP_RE = re.compile(
    r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(\+\d{2}:\d{2}|Z)$"
)


def bench_files():
    if not os.path.isdir(RESULTS_DIR):
        return []
    return sorted(
        name
        for name in os.listdir(RESULTS_DIR)
        if name.startswith("BENCH_") and name.endswith(".json")
    )


def validate_value(value, path):
    """Payload values must stay JSON-plain: scalars, lists, flat-ish
    string-keyed objects — no NaN/Infinity (invalid JSON), no nulls
    hiding failed measurements except where a key opts in."""
    if isinstance(value, float):
        assert value == value, f"{path}: NaN is not valid JSON"
        assert value not in (float("inf"), float("-inf")), (
            f"{path}: Infinity is not valid JSON"
        )
    elif isinstance(value, dict):
        for key, item in value.items():
            assert isinstance(key, str), f"{path}: non-string key {key!r}"
            validate_value(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            validate_value(item, f"{path}[{index}]")
    else:
        assert value is None or isinstance(value, (str, int, bool)), (
            f"{path}: unexpected type {type(value).__name__}"
        )


def validate_payload(name, document):
    assert isinstance(document, dict), f"{name}: top level must be an object"
    for key in PROVENANCE_KEYS:
        assert key in document, f"{name}: missing provenance key {key!r}"
    exp_id = document["exp_id"]
    assert EXP_ID_RE.match(exp_id), f"{name}: malformed exp_id {exp_id!r}"
    assert name == f"BENCH_{exp_id}.json", (
        f"{name}: filename does not match exp_id {exp_id!r}"
    )
    assert document["scale"] in ("full", "quick"), (
        f"{name}: scale must be full|quick, got {document['scale']!r}"
    )
    sha = document["git_sha"]
    assert sha is None or (
        isinstance(sha, str)
        and len(sha) == 40
        and all(c in string.hexdigits for c in sha)
    ), f"{name}: git_sha must be a 40-hex sha or null"
    assert TIMESTAMP_RE.match(document["recorded_at_utc"]), (
        f"{name}: recorded_at_utc must be ISO-8601 UTC"
    )
    # beyond provenance, a payload must actually carry results
    results = {
        k: v for k, v in document.items() if k not in PROVENANCE_KEYS
    }
    assert results, f"{name}: payload has no experiment data"
    for key, value in results.items():
        validate_value(value, f"{name}:{key}")


def test_results_dir_has_payloads():
    """The repo ships at least one recorded payload."""
    assert bench_files(), f"no BENCH_*.json under {RESULTS_DIR}"


@pytest.mark.parametrize("name", bench_files() or ["<none>"])
def test_bench_payload_schema(name):
    if name == "<none>":  # pragma: no cover - covered by the test above
        pytest.skip("no payloads recorded")
    with open(os.path.join(RESULTS_DIR, name), encoding="utf-8") as fh:
        document = json.load(fh)  # strict JSON: rejects NaN-bearing files
    validate_payload(name, document)


def test_validator_rejects_bad_documents():
    good = {
        "exp_id": "ABL1",
        "scale": "quick",
        "git_sha": "a" * 40,
        "recorded_at_utc": "2026-08-06T00:00:00+00:00",
        "speedup": 2.0,
    }
    validate_payload("BENCH_ABL1.json", good)
    with pytest.raises(AssertionError, match="provenance"):
        validate_payload("BENCH_ABL1.json", {"exp_id": "ABL1"})
    with pytest.raises(AssertionError, match="filename"):
        validate_payload("BENCH_ABL2.json", good)
    with pytest.raises(AssertionError, match="scale"):
        validate_payload(
            "BENCH_ABL1.json", {**good, "scale": "medium"}
        )
    with pytest.raises(AssertionError, match="git_sha"):
        validate_payload("BENCH_ABL1.json", {**good, "git_sha": "tip"})
    with pytest.raises(AssertionError, match="NaN"):
        validate_payload(
            "BENCH_ABL1.json", {**good, "speedup": float("nan")}
        )
    with pytest.raises(AssertionError, match="no experiment data"):
        validate_payload(
            "BENCH_ABL1.json",
            {k: good[k] for k in PROVENANCE_KEYS},
        )


def test_write_atomic_replaces_without_droppings(tmp_path):
    from benchmarks.harness import write_atomic

    path = tmp_path / "latest.txt"
    write_atomic(str(path), "first\n")
    write_atomic(str(path), "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    assert os.listdir(tmp_path) == ["latest.txt"]  # no temp files left
