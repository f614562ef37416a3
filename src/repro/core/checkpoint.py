"""The recoverable journal's payload store (paper §4.2).

The Executor already retries failed atoms ("coping with failures"); for
failures that survive retries — or whole-process crashes — a
:class:`~repro.core.recovery.RunJournal` records every finished atom,
and the :class:`CheckpointManager` it is given as ``store`` persists
that atom's boundary outputs to a storage platform through the catalog.
A later run over the same journal replays the finished atoms' channels
from here and only runs what is missing.

Keys are *positional* (atom ordinal × output ordinal within the plan),
not operator-id based, so they remain valid across plan rebuilds as
long as the plan structure is unchanged.  ``plan_key`` namespaces the
payloads per application run; pass a fresh key (or call :meth:`clear`)
when the input data changes, since the manager cannot detect that.

*Structural* staleness is the journal's business, not this module's:
the journal header carries :func:`plan_fingerprint` (platform names,
operator kinds, atom shapes; deliberately *not* operator ids, which are
process-local) and the config epoch, and the Executor clears this
store's key whenever the header does not match the plan about to run.
What stays here is the per-payload guard: every blob carries a CRC, and
a damaged one is reported as absent, never restored.
"""

from __future__ import annotations

import hashlib
import warnings
import zlib
from typing import TYPE_CHECKING, Any

from repro.errors import CatalogError, StorageError

#: tag of the CRC guard element prepended to every checkpoint payload
_CRC_TAG = "__ckpt_crc__"

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution.plan import ExecutionPlan
    from repro.storage.catalog import Catalog


def code_token(func) -> Any:
    """Hashable token for a callable: compiled bytecode, consts, names.

    Closures hash their code, not their captured values; both plan
    fingerprints (this module's and
    :mod:`repro.core.optimizer.fingerprint`) account for parameters
    separately.
    """
    code = getattr(func, "__code__", None)
    if code is None:  # builtins, partials, callables: best effort
        return getattr(func, "__qualname__", None) or repr(type(func))
    consts = tuple(
        c.co_code.hex() if hasattr(c, "co_code") else repr(c)
        for c in code.co_consts
    )
    return (code.co_code.hex(), consts, code.co_names)


def plan_fingerprint(plan: "ExecutionPlan") -> str:
    """Stable hash of an execution plan's *structure*.

    Covers, per atom in schedule order: atom type, platform name,
    operator kinds (topological) with their UDFs' compiled code, output
    arity and external-input slots; loop atoms recurse into their body
    plans.  Operator ids are excluded on purpose — they come from a
    process-global counter, and the fingerprint must survive rebuilding
    the same plan in a new process (the crash-recovery case the journal
    exists for).  UDF *code* is hashed, but values captured by closures
    are not — like changed input data, those fall under the caller's
    ``plan_key`` responsibility.
    """
    from repro.core.execution.plan import LoopAtom

    def op_token(op) -> tuple:
        stages = getattr(op, "stages", None)  # fused pipelines
        if stages:
            return (op.kind, tuple(op_token(stage) for stage in stages))
        udfs = tuple(
            (attr, code_token(value))
            for attr in ("udf", "predicate", "key", "condition")
            if callable(value := getattr(op, attr, None))
        )
        return (op.kind, udfs)

    def atom_token(atom) -> tuple:
        if isinstance(atom, LoopAtom):
            return (
                "loop",
                atom.platform.name,
                atom.repeat.iteration_bound,
                tuple(atom_token(inner) for inner in atom.body_plan.atoms),
            )
        return (
            "task",
            atom.platform.name,
            tuple(
                op_token(op) for op in atom.fragment.topological_order()
            ),
            len(atom.output_ids),
            tuple(sorted(slot for (_op, slot) in atom.external_inputs)),
        )

    payload = repr(tuple(atom_token(atom) for atom in plan.atoms))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CheckpointManager:
    """Saves and restores atom boundary outputs through the catalog."""

    def __init__(self, catalog: "Catalog", store_name: str, plan_key: str):
        if not plan_key:
            raise StorageError("plan_key must be non-empty")
        self.catalog = catalog
        self.store_name = store_name
        self.plan_key = plan_key
        # Catalog metadata is process-local: after a crash, checkpoint
        # blobs surviving on a durable store must be re-adopted before
        # ``load`` (and crash resume) can see them.
        rediscover = getattr(catalog, "rediscover", None)
        if rediscover is not None:
            rediscover(store_name, prefix=f"__ckpt__/{plan_key}/")
        #: counters updated by the executor (exposed for tests/monitoring)
        self.saves = 0
        self.restores = 0
        #: corrupted checkpoint payloads detected (and recomputed) on load
        self.corrupt_detected = 0

    # ------------------------------------------------------------------
    def _dataset(self, atom_ordinal: int, output_ordinal: int) -> str:
        return (
            f"__ckpt__/{self.plan_key}/atom-{atom_ordinal:04d}/"
            f"out-{output_ordinal:02d}"
        )

    @staticmethod
    def _payload_crc(data: list[Any]) -> int:
        return zlib.crc32(repr(data).encode("utf-8")) & 0xFFFFFFFF

    def save(
        self, atom_ordinal: int, output_ordinal: int, data: list[Any]
    ) -> float:
        """Persist one output channel; returns the virtual write cost.

        The payload is prefixed with a CRC32 guard element so
        :meth:`load` can detect truncation or bit rot instead of
        restoring a silently wrong channel.
        """
        guarded = [(_CRC_TAG, self._payload_crc(data))] + list(data)
        cost = self.catalog.write_dataset(
            self._dataset(atom_ordinal, output_ordinal),
            guarded,
            self.store_name,
        )
        self.saves += 1
        return cost

    def load(
        self, atom_ordinal: int, output_ordinal: int
    ) -> tuple[list[Any], float] | None:
        """Restore one output channel, or None if not checkpointed.

        A corrupted payload (CRC mismatch, or a guard element that is
        missing/mangled) also yields None — with a warning and a bump of
        :attr:`corrupt_detected` — so the Executor falls back to
        recomputing the atom rather than crashing the run or, worse,
        trusting damaged data.  Guard-less payloads written by older
        versions are rejected the same way: unverifiable is untrusted.
        """
        name = self._dataset(atom_ordinal, output_ordinal)
        if name not in self.catalog:
            return None
        try:
            stored, cost = self.catalog.read_dataset_with_cost(name)
        except Exception:  # unreadable/undecodable blob: same as corrupt
            stored, cost = None, 0.0
        data = self._unwrap(name, stored)
        if data is None:
            return None
        self.restores += 1
        return data, cost

    def _unwrap(self, name: str, stored: "list[Any] | None") -> list[Any] | None:
        guard = stored[0] if stored else None
        if (
            isinstance(guard, (tuple, list))
            and len(guard) == 2
            and guard[0] == _CRC_TAG
        ):
            data = list(stored[1:])
            if self._payload_crc(data) == guard[1]:
                return data
        self.corrupt_detected += 1
        warnings.warn(
            f"checkpoint {name!r} failed CRC validation; "
            "recomputing the atom instead of restoring it",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    def clear(self) -> int:
        """Drop every checkpoint of this plan key; returns the count."""
        prefix = f"__ckpt__/{self.plan_key}/"
        victims = [
            name for name in self.catalog.dataset_names
            if name.startswith(prefix)
        ]
        for name in victims:
            try:
                self.catalog.drop_dataset(name)
            except CatalogError:  # pragma: no cover - race with drops
                pass
        return len(victims)
