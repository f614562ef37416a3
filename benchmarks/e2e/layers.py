"""Per-layer measurement from outside the program.

* :class:`SpanLog` — the benchmark's own spans (name, start, end, parent,
  op id), kept in memory and written once as a Chrome trace.
* :class:`Timed` — a forwarding proxy that records a span around chosen
  methods of a public attribute (``ctx.app_optimizer``, ``ctx.executor``,
  ``daemon.slot_pool`` ...).  No file under ``src/`` is touched.
* :func:`tracer_totals` — sums the program's existing ``Tracer`` spans
  (``wall_end - wall_start``) by layer for the secondary metrics.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanLog:
    """In-memory span recorder; single-threaded per log."""

    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def totals_ms(self) -> dict[str, float]:
        """Σ duration per span name."""
        totals: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) * 1000.0
        return totals

    def query_totals_ms(self) -> dict[tuple, float]:
        """Σ duration per (enclosing ``query.<name>`` span, span name)."""
        totals: dict[tuple, float] = {}
        for name, start, end, parent, _ in self.spans:
            while parent >= 0 and not self.spans[parent][0].startswith("query."):
                parent = self.spans[parent][3]
            if parent >= 0:
                key = (self.spans[parent][0][len("query."):], name)
                totals[key] = totals.get(key, 0.0) + (end - start) * 1000.0
        return totals

    def self_ms(self, name: str) -> float:
        """Σ over spans called ``name`` of duration minus direct children."""
        total = 0.0
        child_time: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        for index, (span_name, start, end, _, _) in enumerate(self.spans):
            if span_name == name:
                total += end - start - child_time.get(index, 0.0)
        return total * 1000.0

    def write_chrome_trace(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "op": op_id},
            }
            for index, (name, start, end, parent, op_id) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class Timed:
    """Forward everything to ``target``; span the methods in ``names``.

    ``names`` maps a method name to the span name recorded around each
    call.  Attribute writes are forwarded too (``apps`` templates flip
    ``ctx.executor.columnar`` around a run).
    """

    __slots__ = ("_target", "_names", "_log")

    def __init__(self, target, names: dict[str, str], log: SpanLog):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_log", log)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        span_name = self._names.get(attr)
        if span_name is None:
            return value
        log = self._log

        def timed(*args, **kwargs):
            with log.span(span_name):
                return value(*args, **kwargs)

        return timed

    def __setattr__(self, attr, value) -> None:
        setattr(self._target, attr, value)


#: public context attribute -> {method: span name}
CONTEXT_LAYERS = {
    "app_optimizer": {"optimize": "app_optimizer.optimize"},
    "task_optimizer": {"optimize": "task_optimizer.optimize"},
    "executor": {"execute": "executor.execute"},
}


@contextmanager
def timed_layers(ctx, log: SpanLog):
    """Install :class:`Timed` proxies on a ``RheemContext`` for a block."""
    saved = {attr: getattr(ctx, attr) for attr in CONTEXT_LAYERS}
    for attr, names in CONTEXT_LAYERS.items():
        setattr(ctx, attr, Timed(saved[attr], names, log))
    try:
        yield
    finally:
        for attr, target in saved.items():
            setattr(ctx, attr, target)


def tracer_totals(tracer) -> dict[str, float]:
    """Layer sums over one of the program's own span trees
    (a span's wall is ``wall_end - wall_start``)."""
    out: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        out[key] = out.get(key, 0.0) + amount

    for span in tracer.spans:
        name, attrs = span.name, span.attributes
        if name == "optimize.enumerate":
            add("enumerate_ms", span.wall_ms)
        elif name == "optimize.cut_atoms":
            add("cut_atoms_ms", span.wall_ms)
        elif name == "candidate":
            add("candidates", 1)
        elif name == "execute":
            add("execute_ms", span.wall_ms)
            add("retries", attrs.get("retries") or 0)
        elif span.kind == "platform" and name.startswith("op."):
            add("operator_ms", span.wall_ms)
            add("operator_rows", attrs.get("output_card") or 0)
        elif span.kind == "movement":
            add("movement_ms", span.wall_ms)
            add("movement_count", 1)
            add("movement_rows", attrs.get("rows") or 0)
        elif name.startswith("atom#"):
            add("atoms", 1)
            add(f"atoms.{attrs.get('platform')}", 1)
    return out
