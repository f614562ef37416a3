"""Pre-enumeration fingerprints of logical plans.

:func:`repro.core.checkpoint.plan_fingerprint` hashes *execution* plans
for checkpoint-staleness detection; that is too late for a plan cache,
which must decide **before** the optimizer runs whether an equivalent
query was enumerated already.  This module fingerprints the *logical*
plan instead: operator classes and wiring (by position, never by the
process-global operator ids), every UDF's compiled code, scalar
parameters, cost hints — and, unlike the checkpoint fingerprint, the
**source data itself**.  Including the data makes a cache hit a strong
statement: same fingerprint ⇒ same plan over the same inputs, so the
memoized execution plan produces byte-identical results.

Hashing data via ``repr`` errs on the safe side: objects whose repr
includes their identity (the ``object.__repr__`` default) never compare
equal across queries, so they produce spurious cache *misses* — never a
stale hit.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.core.checkpoint import code_token
from repro.core.dag import OperatorNode
from repro.core.logical.operators import Repeat
from repro.core.logical.plan import LogicalPlan


def _value_token(value: Any) -> Any:
    if isinstance(value, LogicalPlan):
        return ("plan", _plan_token(value))
    if callable(value):
        return ("code", code_token(value))
    if isinstance(value, (list, tuple)):
        # ``repr(item) + "\x00"`` per item, joined and encoded once: the
        # same bytes (and digest) as one ``update`` per item and separator.
        stream = "\x00".join([*map(repr, value), ""])
        digest = hashlib.sha256(stream.encode("utf-8", "backslashreplace"))
        return ("seq", len(value), digest.hexdigest())
    return ("val", repr(value))


def _op_token(op: OperatorNode) -> tuple:
    if isinstance(op, Repeat):
        body_ops = op.body.graph.operators
        body_index = {inner.id: pos for pos, inner in enumerate(body_ops)}
        return (
            type(op).__module__,
            type(op).__qualname__,
            (
                ("body", _plan_token(op.body)),
                ("body_input", body_index[op.body_input.id]),
                ("body_output", body_index[op.body_output.id]),
                ("times", op.times),
                ("condition", _value_token(op.condition)
                 if op.condition is not None else None),
                ("max_iterations", op.max_iterations),
                ("hints", repr(op.hints)),
            ),
        )
    items = []
    for attr in sorted(vars(op)):
        if attr == "id":  # process-global counter, never part of identity
            continue
        items.append((attr, _value_token(getattr(op, attr))))
    return (type(op).__module__, type(op).__qualname__, tuple(items))


def _plan_token(plan: LogicalPlan) -> tuple:
    graph = plan.graph
    ops = graph.operators  # insertion order: stable for rebuilt plans
    index = {op.id: pos for pos, op in enumerate(ops)}
    return tuple(
        (
            _op_token(op),
            tuple(index[producer.id] for producer in graph.inputs_of(op)),
        )
        for op in ops
    )


def logical_plan_fingerprint(plan: LogicalPlan) -> str:
    """Stable hash of a logical plan's structure, UDF code and data."""
    payload = repr(_plan_token(plan))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
