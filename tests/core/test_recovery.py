"""Unit tests for the durable run journal and chaos harness
(repro.core.recovery): record framing, torn-tail truncation, crash
injection modes, config epochs, and the lossless state snapshots resume
replays (registry, health tracker, failure injector)."""

import os
import stat

import pytest

from repro.core.observability.registry import MetricsRegistry
from repro.core.recovery import (
    CrashInjector,
    RunJournal,
    SimulatedCrash,
    config_epoch,
    decode_line,
    encode_line,
    export_registry_state,
    import_registry_state,
)
from repro.core.resilience import FailureInjector, HealthTracker
from repro.errors import StorageError


# ----------------------------------------------------------------------
# line framing
# ----------------------------------------------------------------------
class TestLineFraming:
    def test_roundtrip(self):
        record = {"t": "atom", "index": 3, "entries": [["op.map", 1.5]]}
        assert decode_line(encode_line(record).rstrip("\n")) == record

    def test_rejects_short_line(self):
        assert decode_line("abc") is None

    def test_rejects_bad_hex(self):
        assert decode_line('zzzzzzzz {"t":"atom"}') is None

    def test_rejects_crc_mismatch(self):
        line = encode_line({"t": "atom", "index": 1}).rstrip("\n")
        tampered = line[:9] + line[9:].replace('"index":1', '"index":2')
        assert decode_line(tampered) is None

    def test_rejects_truncated_json(self):
        assert decode_line('00000000 {"t":"atom","torn":') is None

    def test_rejects_non_dict_payload(self):
        assert decode_line(encode_line([1, 2, 3]).rstrip("\n")) is None  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
class TestRunJournal:
    def _journal(self, tmp_path, **kwargs):
        return RunJournal(str(tmp_path / "run.journal"), **kwargs)

    def test_begin_append_load_roundtrip(self, tmp_path):
        journal = self._journal(tmp_path, run_id="r1")
        header = journal.header(fingerprint="fp", epoch="ep")
        journal.begin(header)
        journal.append({"t": "atom", "index": 0})
        journal.append({"t": "atom", "index": 1})
        journal.close()

        stored_header, records, torn = self._journal(tmp_path).load()
        assert stored_header == header
        assert [r["index"] for r in records] == [0, 1]
        assert torn == 0

    def test_run_id_defaults_to_basename(self, tmp_path):
        assert self._journal(tmp_path).run_id == "run"

    def test_begin_requires_header(self, tmp_path):
        with pytest.raises(StorageError):
            self._journal(tmp_path).begin({"t": "atom"})

    def test_append_before_begin_raises(self, tmp_path):
        with pytest.raises(StorageError):
            self._journal(tmp_path).append({"t": "atom", "index": 0})

    def test_load_missing_file(self, tmp_path):
        assert self._journal(tmp_path).load() == (None, [], 0)

    def test_torn_tail_truncated(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.begin(journal.header(fingerprint="fp", epoch="ep"))
        journal.append({"t": "atom", "index": 0})
        journal.append_raw('00000000 {"t":"atom","torn":')
        journal.close()

        header, records, torn = self._journal(tmp_path).load()
        assert header is not None
        assert [r["index"] for r in records] == [0]
        assert torn == 1

    def test_damage_invalidates_everything_after(self, tmp_path):
        # Records are a causal sequence: bit rot mid-file must not let
        # later (individually valid) records be trusted.
        journal = self._journal(tmp_path)
        journal.begin(journal.header(fingerprint="fp", epoch="ep"))
        journal.append({"t": "atom", "index": 0})
        journal.append({"t": "atom", "index": 1})
        journal.close()
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        lines[1] = "corrupted " + lines[1][10:]
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        header, records, torn = self._journal(tmp_path).load()
        assert header is not None
        assert records == []
        assert torn == 2

    def test_damaged_header_not_resumable(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.begin(journal.header(fingerprint="fp", epoch="ep"))
        journal.append({"t": "atom", "index": 0})
        journal.close()
        content = open(journal.path, encoding="utf-8").read()
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write("garbage header line\n" + content.split("\n", 1)[1])

        assert self._journal(tmp_path).load()[0] is None

    def test_reset_to_rewrites_prefix(self, tmp_path):
        journal = self._journal(tmp_path)
        header = journal.header(fingerprint="fp", epoch="ep")
        journal.begin(header)
        for index in range(3):
            journal.append({"t": "atom", "index": index})
        journal.close()

        resumed = self._journal(tmp_path)
        stored_header, records, _ = resumed.load()
        resumed.reset_to(stored_header, records[:1])
        assert resumed.records_written == 1
        resumed.append({"t": "atom", "index": 1})
        resumed.close()

        _, records, torn = self._journal(tmp_path).load()
        assert [r["index"] for r in records] == [0, 1]
        assert torn == 0

    @pytest.mark.parametrize("operation", ["begin", "reset_to"])
    def test_replace_fsyncs_the_containing_directory(
        self, tmp_path, monkeypatch, operation
    ):
        """temp-then-rename is only crash-atomic once the rename itself
        is durable: the directory entry must be fsync'd after it."""
        journal = self._journal(tmp_path)
        header = journal.header(fingerprint="fp", epoch="ep")
        journal.begin(header)

        synced_dirs = []
        real_fsync = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                # by now the rename must have happened
                synced_dirs.append(not os.path.exists(journal.path + ".tmp"))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        if operation == "begin":
            journal.begin(header)
        else:
            journal.reset_to(header, [{"t": "atom", "index": 0}])
        journal.close()
        assert synced_dirs == [True]


# ----------------------------------------------------------------------
# config epoch
# ----------------------------------------------------------------------
class TestConfigEpoch:
    def test_deterministic(self):
        assert config_epoch() == config_epoch()

    def test_sensitive_to_columnar(self):
        assert config_epoch(columnar=True) != config_epoch(columnar=False)

    def test_digests_pinned(self, monkeypatch):
        """Journals and plan-cache keys written by earlier versions
        carry these digests; a changed value orphans every one."""
        monkeypatch.delenv("REPRO_CALIBRATION_STORE", raising=False)
        assert config_epoch() == "71bf48807df5ce22"
        assert (
            config_epoch(columnar=True, columnar_native=True)
            == "a939738c06943a66"
        )
        assert config_epoch(calibration=True) == "60473835f7cebcea"

    def test_sensitive_to_calibration_store(self, monkeypatch, tmp_path):
        """The epoch digests the store in effect, not the environment."""
        from repro.cli import _open_calibration_store
        from repro.core.executor import Executor

        def epoch(store=None):
            return Executor(calibration=store)._config_epoch()

        a = _open_calibration_store(str(tmp_path / "a.json"))
        b = _open_calibration_store(str(tmp_path / "b.json"))
        assert epoch(a) != epoch(b)
        before = (epoch(), epoch(a))
        monkeypatch.setenv("REPRO_CALIBRATION_STORE", str(tmp_path / "z.json"))
        assert (epoch(), epoch(a)) == before


# ----------------------------------------------------------------------
# crash injector
# ----------------------------------------------------------------------
class TestCrashInjector:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CrashInjector(-1)
        with pytest.raises(ValueError):
            CrashInjector(0, mode="sideways")

    def test_before_mode_fires_before_write(self, tmp_path):
        injector = CrashInjector(1, mode="before")
        injector.before_commit()  # commit 0 passes
        injector.after_commit(None)
        with pytest.raises(SimulatedCrash):
            injector.before_commit()
        assert injector.fired

    def test_after_mode_fires_after_write(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.journal"))
        journal.begin(journal.header(fingerprint="fp", epoch="ep"))
        injector = CrashInjector(0, mode="after")
        injector.before_commit()
        journal.append({"t": "atom", "index": 0})
        with pytest.raises(SimulatedCrash):
            injector.after_commit(journal)
        journal.close()
        # the record survived the crash
        _, records, torn = journal.load()
        assert len(records) == 1 and torn == 0

    def test_torn_mode_leaves_partial_line(self, tmp_path):
        journal = RunJournal(str(tmp_path / "run.journal"))
        journal.begin(journal.header(fingerprint="fp", epoch="ep"))
        injector = CrashInjector(0, mode="torn")
        journal.append({"t": "atom", "index": 0})
        with pytest.raises(SimulatedCrash):
            injector.after_commit(journal)
        journal.close()
        _, records, torn = journal.load()
        assert len(records) == 1
        assert torn == 1

    def test_fires_once(self):
        injector = CrashInjector(0, mode="after")
        with pytest.raises(SimulatedCrash):
            injector.after_commit(None)
        injector.before_commit()
        injector.after_commit(None)  # already fired: inert

    def test_simulated_crash_is_not_an_exception(self):
        # It must escape `except Exception` retry ladders.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)


# ----------------------------------------------------------------------
# state snapshots
# ----------------------------------------------------------------------
class TestRegistrySnapshot:
    def test_lossless_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("atoms_executed", "atoms").inc(7)
        registry.gauge("depth", "queue depth").set(3.5)
        histogram = registry.histogram(
            "lat", "latency", buckets=(1.0, 10.0, 100.0)
        )
        histogram.observe(0.5)
        histogram.observe(42.0, platform="java")
        histogram.observe(1000.0, platform="java")

        state = export_registry_state(registry)
        restored = MetricsRegistry()
        import_registry_state(restored, state)
        assert export_registry_state(restored) == state

    def test_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", "").inc()
        registry.histogram("h", "").observe(2.0, kind="map")
        state = export_registry_state(registry)
        assert json.loads(json.dumps(state)) == state

    def test_import_supersedes_existing_series(self):
        source = MetricsRegistry()
        source.counter("retries", "").inc(2)
        state = export_registry_state(source)

        target = MetricsRegistry()
        target.counter("retries", "").inc(99)
        import_registry_state(target, state)
        assert target.counter("retries", "").value() == 2

    def test_import_leaves_unnamed_instruments_alone(self):
        target = MetricsRegistry()
        target.counter("journal_torn_records", "").inc(3)
        import_registry_state(target, {})
        assert target.counter("journal_torn_records", "").value() == 3


class TestHealthSnapshot:
    def test_roundtrip_preserves_breaker_state(self):
        health = HealthTracker(failure_threshold=2)
        health.record_failure("java")
        health.record_failure("java")  # opens the breaker
        health.record_success("spark")
        health.advance(5.0)

        restored = HealthTracker(failure_threshold=2)
        restored.restore_state(health.export_state())
        assert restored.export_state() == health.export_state()
        assert restored.state("java") == health.state("java")
        assert restored.is_available("java") == health.is_available("java")


class TestInjectorSnapshot:
    def test_roundtrip_mid_schedule(self):
        injector = FailureInjector({2: 1, 5: 2})
        for _ in range(3):
            try:
                injector.check(injector.next_atom())
            except Exception:
                pass
        state = injector.export_state()

        restored = FailureInjector({2: 1, 5: 2})
        restored.restore_state(state)
        assert restored.position == injector.position
        # the remaining schedule plays out identically
        for original, resumed in zip(
            _drain(injector, 5), _drain(restored, 5)
        ):
            assert original == resumed

    def test_speculative_future_attempts_not_exported(self):
        injector = FailureInjector({4: 1})
        # Speculative concurrent execution touches a future ordinal...
        try:
            injector.check(4)
        except Exception:
            pass
        # ...but the snapshot only covers ordinals <= committed position.
        assert "4" not in injector.export_state()["attempts"]


def _drain(injector: FailureInjector, n: int) -> list[bool]:
    outcomes = []
    for _ in range(n):
        try:
            injector.check(injector.next_atom())
            outcomes.append(True)
        except Exception:
            outcomes.append(False)
    return outcomes
