"""Durable crash recovery: the write-ahead run journal (paper §4.2).

The Executor's in-process fault tolerance (retry → quarantine →
failover, :mod:`repro.core.resilience`) cannot survive the process
itself dying.  This module supplies the durable half, and the
:class:`RunJournal` is the one owner of recovery state:

* :class:`RunJournal` — an append-only, fsync'd record of one run:
  a header (run id, plan fingerprint, execution-config epoch) followed
  by one record per completed top-level atom carrying the atom's ledger
  slice, serialized span subtree, output shapes, and snapshots of the
  failure-injector / health-tracker / metrics-registry state *after*
  that atom.  Every line is CRC32-guarded; a torn tail (a crash mid
  ``write``) is detected and truncated, never trusted.  File creation
  and prefix rewrites are crash-atomic (write-temp-then-rename, then
  an fsync of the containing directory so the rename itself is
  durable); appends are flushed and fsync'd per record.  A journal
  given a payload ``store``
  (:class:`~repro.core.checkpoint.CheckpointManager`) is *recoverable*:
  every atom's outputs are saved next to its record and a later run
  over the same path resumes.  Without a store it is an audit journal:
  it records durably and never resumes.

* :class:`CrashInjector` — the chaos harness companion of
  :class:`~repro.core.resilience.FailureInjector`: a seeded
  kill-at-atom-N simulation that hard-aborts the executor around the
  journal commit of the N-th atom (before the record, after it, or
  leaving a torn tail), raising :class:`SimulatedCrash` — a
  ``BaseException`` so it cannot be absorbed by the retry ladder.

* :func:`config_epoch` — a digest of the execution configuration that
  changes result bytes or saved payloads (columnar hand-offs,
  calibration and the snapshot path of its store): journal headers
  embed it so state written under one configuration is never replayed
  into another.

Resume is not a setting: the Executor reads the decision from the
journal file.  A recoverable journal whose header matches the plan's
fingerprint and config epoch has its trusted prefix replayed —
channels from the store, ledger/span/health/injector state from the
records — and only the missing suffix executes; any other header clears
the store's key and begins fresh.  The recovery invariant (pinned by the
crash/resume sweep tests) is that the final outputs, ``virtual_ms``,
full ledger entry sequence and span shape are byte-identical to an
uninterrupted run, at any parallelism and under either backend — for a
crashed run and for a rerun of a completed one alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observability.registry import MetricsRegistry

__all__ = [
    "CrashInjector",
    "RunJournal",
    "SimulatedCrash",
    "config_epoch",
]

#: journal format version (bumped on incompatible record changes)
JOURNAL_VERSION = 1


class SimulatedCrash(BaseException):
    """A chaos-harness process kill.

    Deliberately a ``BaseException``: it must fly through the
    Executor's retry machinery (which catches ``Exception``) exactly
    like ``os._exit`` would — nothing between the injection point and
    the test harness may absorb it.
    """


# ----------------------------------------------------------------------
# config epoch
# ----------------------------------------------------------------------
def config_epoch(
    *,
    columnar: bool = False,
    columnar_native: bool = False,
    calibration: bool = False,
    store_path: str | None = None,
) -> str:
    """Digest of the execution config that affects persisted state.

    Two runs with different epochs must not share journals or their
    payload stores: an output saved under ``columnar=1`` would replay
    wrong conversion charges into a row-mode run, and calibration
    changes the plan and so the charge sequence.  With calibration on,
    ``store_path`` (the snapshot the attached store was opened from;
    None for a store built in code) is part of the epoch too: two
    stores hold different priors.  The
    columnar-*native* flag is part of the epoch because elided
    boundaries add ``columnar.elide`` ledger entries the egest path
    lacks.  Parallelism is deliberately *excluded* — results and
    virtual time are identical at any setting (the concurrent
    scheduler's contract), so a run may be resumed at a different
    parallelism.  The execution mode (thread vs process workers) is
    excluded for the same reason: a journal written under threads
    resumes under processes and vice versa.
    """
    parts = (
        f"columnar={int(bool(columnar))}",
        f"columnar_native={int(bool(columnar) and bool(columnar_native))}",
        # constant since the kernel kill switch was removed; kept so
        # journals and plan-cache keys written before that still match
        "kernels=1",
        f"calibration={int(bool(calibration))}",
        "store=" + ((store_path or "") if calibration else ""),
    )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


# ----------------------------------------------------------------------
# record encoding: one CRC32-guarded JSON line per record
# ----------------------------------------------------------------------
def encode_line(obj: dict[str, Any]) -> str:
    """Serialize one record as ``<crc32-hex8> <compact-json>\\n``."""
    payload = json.dumps(obj, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def decode_line(line: str) -> dict[str, Any] | None:
    """Parse one journal line; ``None`` when torn or corrupted.

    A valid line is ``<8 hex digits> <json>`` whose CRC32 matches the
    JSON payload bytes.  Anything else — short line, bad hex, CRC
    mismatch, truncated JSON — is treated as damage, not data.
    """
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, payload = line[:8], line[9:]
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        obj = json.loads(payload)
    except ValueError:  # pragma: no cover - CRC passed but JSON broken
        return None
    return obj if isinstance(obj, dict) else None


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
class RunJournal:
    """Durable write-ahead journal for one run id.

    Lifecycle: :meth:`begin` starts a fresh journal (atomic: the header
    is written to a temp file and renamed into place), :meth:`append`
    adds one fsync'd record per completed atom, :meth:`load` reads back
    the trusted prefix (CRC-validating every line, truncating at the
    first damaged one) and :meth:`reset_to` rewrites the file to a
    validated prefix — also via temp-then-rename — before a resumed run
    continues appending.

    ``store`` (a :class:`~repro.core.checkpoint.CheckpointManager`) is
    where the atoms' output payloads go; records only carry their
    shapes.  Its presence is what makes the run recoverable.
    """

    def __init__(
        self,
        path: str,
        run_id: str | None = None,
        store: Any | None = None,
    ):
        self.path = str(path)
        self.store = store
        base = os.path.splitext(os.path.basename(self.path))[0]
        self.run_id = run_id or base or "run"
        self._fh = None
        #: records appended (or kept by reset_to) since begin/reset
        self.records_written = 0
        #: damaged tail lines discarded by the last :meth:`load`
        self.torn_truncations = 0

    # ------------------------------------------------------------------
    def header(self, *, fingerprint: str, epoch: str) -> dict[str, Any]:
        """The header record for a fresh journal of this run.

        Resume compares only ``fingerprint`` and ``epoch``; any other
        key a stored header carries is ignored.
        """
        return {
            "t": "header",
            "version": JOURNAL_VERSION,
            "run_id": self.run_id,
            "fingerprint": fingerprint,
            "epoch": epoch,
        }

    def begin(self, header: dict[str, Any]) -> None:
        """Start a fresh journal containing only ``header`` (atomic)."""
        if header.get("t") != "header":
            raise StorageError("journal must begin with a header record")
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(encode_line(header))
            fh.flush()
            os.fsync(fh.fileno())
        self._replace_durably(tmp)
        self.records_written = 0
        self._open_append()

    def _replace_durably(self, tmp: str) -> None:
        """Rename ``tmp`` over the journal and fsync the directory entry."""
        os.replace(tmp, self.path)
        fd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _open_append(self) -> None:
        self.close()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict[str, Any]) -> None:
        """Append one record durably (write + flush + fsync)."""
        if self._fh is None:
            raise StorageError(
                f"journal {self.path}: append before begin()/reset_to()"
            )
        self._fh.write(encode_line(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += 1

    def append_raw(self, text: str) -> None:
        """Append raw bytes *without* record framing (chaos: torn tail)."""
        if self._fh is None:
            raise StorageError(f"journal {self.path}: not open")
        self._fh.write(text)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    def load(self) -> tuple[dict[str, Any] | None, list[dict[str, Any]], int]:
        """Read the trusted prefix: ``(header, records, torn_lines)``.

        Validation stops at the first damaged line; everything after it
        is counted as torn and ignored (a crash mid-append tears at
        most the final line, but bit rot anywhere must not let later
        records be trusted either — records are a causal sequence).  A
        missing file or damaged header yields ``(None, [], torn)``:
        nothing is resumable.
        """
        self.torn_truncations = 0
        if not os.path.exists(self.path):
            return None, [], 0
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().split("\n")
        header: dict[str, Any] | None = None
        records: list[dict[str, Any]] = []
        torn = 0
        damaged = False
        for line in lines:
            if not line:
                continue
            obj = None if damaged else decode_line(line)
            if obj is None:
                damaged = True
                torn += 1
                continue
            if header is None:
                if obj.get("t") != "header":
                    return None, [], torn + 1
                header = obj
            else:
                records.append(obj)
        self.torn_truncations = torn
        if header is None:
            return None, [], torn
        return header, records, torn

    def reset_to(
        self, header: dict[str, Any], records: list[dict[str, Any]]
    ) -> None:
        """Rewrite the journal to a validated prefix, atomically.

        Used by resume after :meth:`load`: the trusted prefix (possibly
        shortened further by payload validation) replaces the file
        via temp-then-rename, and the journal reopens for appending the
        resumed run's suffix records.
        """
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(encode_line(header))
            for record in records:
                fh.write(encode_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        self._replace_durably(tmp)
        self.records_written = len(records)
        self._open_append()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RunJournal {self.run_id!r} path={self.path!r} "
            f"records={self.records_written}>"
        )


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------
class CrashInjector:
    """Kill the run at the N-th journal commit (0-based), like a crash.

    Three modes bracket the commit's durability window:

    * ``"before"`` — die before the record is written: the atom's work
      is lost; resume re-executes it;
    * ``"after"`` — die after the record is durable: resume replays it
      and continues with the next atom;
    * ``"torn"`` — write the record, then a garbage partial line (a
      crash mid-append), then die: resume must detect and truncate the
      torn tail.

    Attached as ``runtime.crash_injector``; consulted by the Executor's
    journal-commit step only, so an un-journaled run never crashes.
    """

    MODES = ("before", "after", "torn")

    def __init__(self, crash_at: int, mode: str = "after"):
        if crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {crash_at}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.crash_at = crash_at
        self.mode = mode
        #: journal records committed so far
        self.commits = 0
        self.fired = False

    def before_commit(self) -> None:
        """Hook immediately before a journal record is written."""
        if (
            not self.fired
            and self.mode == "before"
            and self.commits == self.crash_at
        ):
            self.fired = True
            raise SimulatedCrash(
                f"injected crash before journal record {self.commits}"
            )

    def after_commit(self, journal: RunJournal | None) -> None:
        """Hook immediately after a journal record became durable."""
        index = self.commits
        self.commits += 1
        if self.fired or self.mode == "before" or index != self.crash_at:
            return
        self.fired = True
        if self.mode == "torn" and journal is not None:
            # A plausible-looking but unparseable partial line: valid
            # hex prefix, truncated JSON — the tail a real mid-write
            # crash leaves behind.
            journal.append_raw('00000000 {"t":"atom","torn":')
        raise SimulatedCrash(
            f"injected crash after journal record {index} ({self.mode})"
        )


# ----------------------------------------------------------------------
# metrics-registry state snapshots (journal records)
# ----------------------------------------------------------------------
def export_registry_state(registry: "MetricsRegistry") -> dict[str, Any]:
    """Full, JSON-serialisable state of every registry instrument.

    Unlike :meth:`MetricsRegistry.snapshot` (a human/Prometheus-facing
    summary), this is lossless: histogram bucket counts and exact
    min/max survive, so :func:`import_registry_state` reproduces the
    registry byte for byte.
    """
    from repro.core.observability.registry import Histogram

    out: dict[str, Any] = {}
    for instrument in registry.instruments():
        if isinstance(instrument, Histogram):
            series = [
                [
                    [list(pair) for pair in key],
                    {
                        "counts": list(s.counts),
                        "total": s.total,
                        "n": s.n,
                        "vmin": s.vmin,
                        "vmax": s.vmax,
                    },
                ]
                for key, s in sorted(instrument.series.items())
            ]
            out[instrument.name] = {
                "kind": "histogram",
                "help": instrument.help,
                "bounds": list(instrument.bounds),
                "series": series,
            }
        else:
            out[instrument.name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "series": [
                    [[list(pair) for pair in key], value]
                    for key, value in sorted(instrument.series.items())
                ],
            }
    return out


def import_registry_state(
    registry: "MetricsRegistry", state: dict[str, Any]
) -> None:
    """Replace instrument series with a journaled snapshot.

    Series of instruments named in ``state`` are overwritten (the
    snapshot *is* the prefix's truth — counters the resuming process
    bumped while rebuilding the plan are superseded); instruments not
    in the snapshot are left untouched.
    """
    from repro.core.observability.registry import HistogramSeries

    for name, payload in state.items():
        if payload["kind"] == "histogram":
            instrument = registry.histogram(
                name, payload.get("help", ""), buckets=payload["bounds"]
            )
            instrument.series = {}
            for key, s in payload["series"]:
                series = HistogramSeries(
                    bounds=instrument.bounds,
                    counts=list(s["counts"]),
                    total=s["total"],
                    n=s["n"],
                    vmin=s["vmin"],
                    vmax=s["vmax"],
                )
                instrument.series[
                    tuple(tuple(pair) for pair in key)
                ] = series
        else:
            instrument = (
                registry.gauge(name, payload.get("help", ""))
                if payload["kind"] == "gauge"
                else registry.counter(name, payload.get("help", ""))
            )
            instrument.series = {
                tuple(tuple(pair) for pair in key): value
                for key, value in payload["series"]
            }
