"""The daemon's spec memo: a repeat request skips the rebuild and re-hash.

``ServingDaemon.submit`` keys each request's logical plan (collect sink
appended) and its fingerprint on the spec's canonical JSON, so a repeat
goes straight to the plan-cache lookup.  Pinned here:

* a memo hit answers exactly what rebuilding the workload answers —
  rows, tenant-tagged ledger, virtual time, span names, zero
  enumeration spans, ``plan_cache == "hit"`` — without calling
  ``build_workload`` or ``logical_plan_fingerprint``;
* the memo is bounded by the plan cache's capacity;
* specs that fail to build, or have no canonical form, are never
  memoised;
* one memoised plan optimized by two threads at once (a memo hit whose
  plan-cache entry was evicted) still gives byte-identical results;
* the memo never bypasses the plan-cache key: a calibration-epoch flip
  is still a miss, then a hit.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.optimizer.calibration import CalibrationStore
from repro.core.serving import ServingDaemon
from repro.core.serving import daemon as daemon_module
from repro.errors import ValidationError

from tests.core.serving.test_serve_concurrency import (
    SPECS,
    _renumber,
    direct_run,
    record_ledger,
)


@pytest.fixture
def calls(monkeypatch):
    """Count the daemon's calls of the two steps a memo hit skips."""
    counts = {"build": 0, "fingerprint": 0}
    build = daemon_module.build_workload
    fingerprint = daemon_module.logical_plan_fingerprint

    def counted_build(ctx, spec):
        counts["build"] += 1
        return build(ctx, spec)

    def counted_fingerprint(plan):
        counts["fingerprint"] += 1
        return fingerprint(plan)

    monkeypatch.setattr(daemon_module, "build_workload", counted_build)
    monkeypatch.setattr(
        daemon_module, "logical_plan_fingerprint", counted_fingerprint
    )
    return counts


def _observable(record) -> dict:
    """What a client can see of a record, atom ids renumbered."""
    ledger = _renumber([
        (label, repr(ms), platform, atom_id)
        for label, ms, platform, atom_id, _tenant in record.ledger
    ])
    atoms: dict = {}
    span_names = [
        re.sub(r"#\d+", lambda m: f"#{atoms.setdefault(m[0], len(atoms))}",
               name)
        for name in record.span_names
    ]
    return {
        "status": record.status,
        "plan_cache": record.plan_cache,
        "rows": record.rows,
        "virtual_ms": repr(record.virtual_ms),
        "ledger": ledger,
        "tenants": {row[4] for row in record.ledger},
        "span_names": span_names,
        "enumeration_spans": record.enumeration_spans,
    }


class TestMemoHit:
    @pytest.mark.parametrize(
        "spec", SPECS, ids=[spec["workload"] for spec in SPECS]
    )
    def test_hit_matches_the_rebuild_path(self, spec, calls):
        memoised = ServingDaemon()
        rebuilt = ServingDaemon()
        records = {"memo": [], "rebuild": []}
        for tenant in ("alpha", "beta"):
            for _ in range(2):
                records["memo"].append(
                    memoised.submit(dict(spec), tenant=tenant))
                rebuilt.spec_memo.clear()  # every submit rebuilds
                records["rebuild"].append(
                    rebuilt.submit(dict(spec), tenant=tenant))
        # The memoising daemon built and hashed the spec once; the other
        # daemon once per submit.
        assert calls == {"build": 5, "fingerprint": 5}

        memo = [_observable(r) for r in records["memo"]]
        rebuild = [_observable(r) for r in records["rebuild"]]
        assert memo == rebuild
        assert [m["plan_cache"] for m in memo] == ["miss", "hit", "hit", "hit"]
        for observed, tenant in zip(memo, ("alpha", "alpha", "beta", "beta")):
            assert observed["status"] == "done"
            assert observed["tenants"] == {tenant}
        for hit in memo[1:]:
            assert hit["enumeration_spans"] == 0
            assert hit["ledger"][0][0] == "plan_cache.hit"

    def test_evicted_plan_is_reoptimized_from_the_memo(self, calls):
        daemon = ServingDaemon()
        spec = SPECS[0]
        cold = daemon.submit(dict(spec), tenant="alpha")
        daemon.plan_cache.clear()
        again = daemon.submit(dict(spec), tenant="alpha")
        assert calls == {"build": 1, "fingerprint": 1}
        assert again.plan_cache == "miss"
        assert again.enumeration_spans > 0
        assert again.rows == cold.rows
        assert again.virtual_ms == cold.virtual_ms
        assert record_ledger(again) == record_ledger(cold)


class TestMemoBounds:
    def test_never_holds_more_than_cache_size(self):
        daemon = ServingDaemon(cache_size=2)
        assert daemon.spec_memo.capacity == daemon.plan_cache.capacity == 2
        for seed in range(5):
            spec = {"workload": "wordcount", "seed": seed, "lines": 4}
            daemon.submit(spec, tenant="alpha")
            assert len(daemon.spec_memo) <= 2
        assert len(daemon.spec_memo) == 2

    def test_key_ignores_spec_key_order(self, calls):
        daemon = ServingDaemon()
        first = daemon.submit(
            {"workload": "join", "seed": 3, "rows": 8}, tenant="alpha")
        second = daemon.submit(
            {"rows": 8, "seed": 3, "workload": "join"}, tenant="alpha")
        assert calls["build"] == 1
        assert second.plan_cache == "hit"
        assert second.rows == first.rows


class TestNeverMemoised:
    BAD = [
        {"workload": "nope"},
        {"workload": "wordcount", "bogus": 1},
    ]

    def test_bad_spec_is_400_on_every_submit_over_http(self):
        with ServingDaemon(port=0) as daemon:
            for spec in self.BAD:
                for _ in range(3):
                    request = urllib.request.Request(
                        daemon.url + "/submit",
                        data=json.dumps(spec).encode("utf-8"),
                        headers={"X-Repro-Tenant": "alpha"},
                    )
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        urllib.request.urlopen(request)
                    assert excinfo.value.code == 400
                    excinfo.value.close()
            assert len(daemon.spec_memo) == 0

    def test_bad_spec_raises_on_every_submit_in_process(self, calls):
        daemon = ServingDaemon()
        for _ in range(3):
            with pytest.raises(ValidationError):
                daemon.submit(dict(self.BAD[1]), tenant="alpha")
        assert calls["build"] == 3
        assert len(daemon.spec_memo) == 0

    def test_spec_without_a_canonical_form_is_rebuilt(self, calls):
        # NaN has no JSON form, and a NaN seed hashes by identity, so
        # such a spec is built afresh on every submit.
        daemon = ServingDaemon()
        spec = {"workload": "wordcount", "seed": float("nan"), "lines": 4}
        for _ in range(2):
            assert daemon.submit(dict(spec), tenant="alpha").status == "done"
        assert calls["build"] == 2
        assert len(daemon.spec_memo) == 0


class TestSharedPlanUnderContention:
    def test_two_tenants_one_spec_with_interleaved_evictions(self):
        spec, other = SPECS[1], SPECS[0]
        expected = {
            spec["workload"]: direct_run(spec, 1, "thread"),
            other["workload"]: direct_run(other, 1, "thread"),
        }
        # Capacity 1: the interleaved spec evicts the shared one from the
        # memo and the plan cache, so memo hits meet plan-cache misses and
        # both tenants optimize the one memoised plan at once.  A short
        # switch interval makes the threads interleave inside a request,
        # which is shorter than the default 5 ms.
        daemon = ServingDaemon(cache_size=1)
        rounds = 6
        barrier = threading.Barrier(3)
        records: list = []
        errors: list[BaseException] = []

        def worker(tenant: str, submitted: dict) -> None:
            try:
                for _ in range(rounds):
                    barrier.wait(timeout=60)
                    records.append(
                        daemon.submit(dict(submitted), tenant=tenant))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=("alpha", spec)),
            threading.Thread(target=worker, args=("beta", spec)),
            threading.Thread(target=worker, args=("gamma", other)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(records) == 3 * rounds
        assert len(daemon.spec_memo) <= 1
        for record in records:
            reference = expected[record.spec["workload"]]
            assert record.status == "done", record.error
            assert record.rows == reference["rows"]
            assert record.virtual_ms == reference["virtual_ms"]
            assert record_ledger(record) == reference["ledger"]
            assert {row[4] for row in record.ledger} == {record.tenant}


class TestEpochThroughTheMemo:
    def test_calibration_epoch_flip_is_a_miss_then_a_hit(self, calls):
        daemon = ServingDaemon()
        spec = {"workload": "wordcount", "seed": 5, "lines": 8, "width": 4}
        assert daemon.submit(dict(spec), tenant="alpha").plan_cache == "miss"
        assert daemon.submit(dict(spec), tenant="alpha").plan_cache == "hit"

        store = CalibrationStore()
        daemon.sessions.session("alpha").context.calibration = store
        assert store.observe("map", "java", estimated=10.0, observed=40.0)
        assert store.epoch == 1
        # The memo still serves the plan; the cache key still moves.
        assert daemon.submit(dict(spec), tenant="alpha").plan_cache == "miss"
        assert daemon.submit(dict(spec), tenant="alpha").plan_cache == "hit"
        assert calls["build"] == 1
        assert len(daemon.plan_cache) == 2
