"""The ``repro serve`` daemon: multi-tenant query serving over HTTP.

A stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon
thread, no framework:

* ``POST /submit`` — run a workload spec (``{"workload": ..., ...}``,
  see :mod:`repro.core.serving.workloads`) for the tenant named by the
  ``X-Repro-Tenant`` header; answers with the query summary (id,
  ``plan_cache`` hit/miss, virtual/wall time).
* ``GET /status/<id>`` — summary of a submitted query.
* ``GET /result/<id>`` — full payload: rows, tenant-tagged ledger,
  span names, enumeration-span count.
* ``GET /healthz`` — liveness; ``GET /metrics`` — the serving
  registry's Prometheus exposition (every series tenant-labelled, plus
  a ``repro_run_info`` gauge naming the git sha and config epoch).

Requests run synchronously on their handler thread.  Per tenant there
is one :class:`~repro.core.context.RheemContext` session (queries of
one tenant serialize on the session lock; different tenants run
concurrently); all sessions share the daemon's
:class:`~repro.core.serving.plan_cache.PlanCache` and
:class:`~repro.core.serving.admission.PlatformSlotPool`.

All sessions also share a spec memo, an LRU as large as the plan cache:
from a spec's canonical JSON to its built logical plan and that plan's
fingerprint.  A repeat spec skips building the workload and hashing its
data; a plan-cache hit is then one lookup plus the replay of the cached
execution plan, and a miss re-optimizes the memoised plan.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.core.context import RheemContext
from repro.core.logical.operators import CollectSink
from repro.core.logical.plan import LogicalPlan
from repro.core.observability.export import prometheus_text
from repro.core.observability.registry import (
    MetricsRegistry,
    repo_git_sha,
    set_build_info,
)
from repro.core.observability.spans import Tracer
from repro.core.optimizer.fingerprint import logical_plan_fingerprint
from repro.core.serving.admission import PlatformSlotPool
from repro.core.serving.plan_cache import PlanCache
from repro.core.serving.sessions import SessionManager, TenantSession
from repro.core.serving.workloads import build_workload
from repro.errors import ValidationError

DEFAULT_PORT = 9465

#: largest ``/submit`` body accepted; specs are a few hundred bytes
MAX_SUBMIT_BYTES = 1 << 20

#: header naming the tenant a query belongs to
TENANT_HEADER = "X-Repro-Tenant"
DEFAULT_TENANT = "default"

#: span names that only a cold (enumerating) run produces
_ENUMERATION_SPANS = ("optimize.application", "optimize.enumerate",
                      "optimize.cut_atoms", "candidate")

_INDEX = (
    "<html><head><title>repro serve</title></head><body>"
    "<h1>repro serve</h1>"
    "<p>POST /submit &mdash; run a workload spec "
    "(tenant via X-Repro-Tenant header)</p>"
    '<p>GET /status/&lt;id&gt; &mdash; query summary</p>'
    '<p>GET /result/&lt;id&gt; &mdash; full result payload</p>'
    '<p><a href="/metrics">/metrics</a> &mdash; per-tenant Prometheus '
    "exposition</p>"
    '<p><a href="/healthz">/healthz</a> &mdash; liveness</p>'
    "</body></html>\n"
)


@dataclass
class QueryRecord:
    """Everything the daemon remembers about one submitted query."""

    id: str
    tenant: str
    spec: dict
    status: str = "running"
    error: str | None = None
    plan_cache: str | None = None
    rows: list = field(default_factory=list)
    virtual_ms: float = 0.0
    wall_ms: float = 0.0
    ledger: list = field(default_factory=list)
    span_names: list = field(default_factory=list)
    enumeration_spans: int = 0

    def summary(self) -> dict:
        """The ``/status`` (and ``/submit`` response) payload."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "workload": self.spec.get("workload"),
            "status": self.status,
            "error": self.error,
            "plan_cache": self.plan_cache,
            "virtual_ms": self.virtual_ms,
            "wall_ms": self.wall_ms,
        }

    def full(self) -> dict:
        """The ``/result`` payload."""
        payload = self.summary()
        payload.update(
            rows=self.rows,
            ledger=self.ledger,
            spans=self.span_names,
            enumeration_spans=self.enumeration_spans,
        )
        return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against the daemon; logs nowhere."""

    server: "ServingDaemon._Server"  # set by http.server machinery

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        daemon = self.server.daemon
        path = self.path.rstrip("/")
        if path == "/healthz":
            self._reply(200, b"ok\n", "text/plain; charset=utf-8")
        elif path == "/metrics":
            body = prometheus_text(daemon.registry).encode("utf-8")
            self._reply(200, body,
                        "text/plain; version=0.0.4; charset=utf-8")
        elif path.startswith("/status/"):
            self._json_record(path[len("/status/"):], full=False)
        elif path.startswith("/result/"):
            self._json_record(path[len("/result/"):], full=True)
        elif path == "":
            self._reply(200, _INDEX.encode("utf-8"),
                        "text/html; charset=utf-8")
        else:
            self._reply(404, b"not found\n", "text/plain; charset=utf-8")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        daemon = self.server.daemon
        if self.path.rstrip("/") != "/submit":
            self._reply(404, b"not found\n", "text/plain; charset=utf-8")
            return
        # The length is the client's claim: a junk one must not raise out
        # of the handler, a negative one would read to EOF and pin this
        # thread, and an honest huge one must not be buffered.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._json(400, {"error": "Content-Length must be a "
                                      "non-negative integer"})
            return
        if length > MAX_SUBMIT_BYTES:
            self._json(413, {"error": f"body exceeds {MAX_SUBMIT_BYTES} bytes"})
            return
        raw = self.rfile.read(length) if length else b""
        try:
            spec = json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._json(400, {"error": "body must be JSON"})
            return
        if not isinstance(spec, dict):
            self._json(400, {"error": "body must be a JSON object"})
            return
        tenant = self.headers.get(TENANT_HEADER) or DEFAULT_TENANT
        try:
            record = daemon.submit(spec, tenant=tenant)
        except ValidationError as exc:
            self._json(400, {"error": str(exc)})
            return
        self._json(500 if record.status == "error" else 200,
                   record.summary())

    # ------------------------------------------------------------------
    def _json_record(self, query_id: str, full: bool) -> None:
        record = self.server.daemon.query(query_id)
        if record is None:
            self._json(404, {"error": f"unknown query {query_id!r}"})
            return
        self._json(200, record.full() if full else record.summary())

    def _json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._reply(status, body, "application/json; charset=utf-8")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log."""


class ServingDaemon:
    """Long-lived multi-tenant serving process (usable in-process too).

    The HTTP layer is a thin wrapper over :meth:`submit` /
    :meth:`query`, so tests and benchmarks can drive the same machinery
    without sockets.
    """

    class _Server(ThreadingHTTPServer):
        daemon_threads = True
        daemon: "ServingDaemon"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_size: int = 64,
        parallelism: int | None = None,
        execution_mode: str | None = None,
        context_factory: "Callable[[], RheemContext] | None" = None,
    ):
        self.host = host
        self._requested_port = port
        #: serving-wide registry: every merged series is tenant-labelled
        self.registry = MetricsRegistry()
        self.plan_cache = PlanCache(cache_size)
        #: canonical spec -> (collect-ready logical plan, its fingerprint);
        #: the same LRU container, bounded like the plan cache
        self.spec_memo = PlanCache(cache_size)
        self.slot_pool = PlatformSlotPool()
        if context_factory is None:
            def context_factory() -> RheemContext:
                return RheemContext(
                    parallelism=parallelism, execution_mode=execution_mode
                )
        self.sessions = SessionManager(context_factory)
        self.sessions.on_create = self._wire_session
        self._queries: dict[str, QueryRecord] = {}
        self._queries_lock = threading.Lock()
        self._next_query = 0
        self._server: ServingDaemon._Server | None = None
        self._thread: threading.Thread | None = None
        self._stamp_build_info()

    def _stamp_build_info(self) -> None:
        from repro.core.executor import Executor

        probe = Executor()
        set_build_info(
            self.registry,
            git_sha=repo_git_sha() or "unknown",
            config_epoch=probe._config_epoch(),
        )

    def _wire_session(self, session: TenantSession) -> None:
        """Install the shared cache + admission pool on a new session."""
        ctx = session.context
        ctx.plan_cache = self.plan_cache
        self.slot_pool.register_platforms(ctx.platforms)
        ctx.executor.slot_pool = self.slot_pool

    # ------------------------------------------------------------------
    # query lifecycle (in-process API; HTTP wraps this)
    # ------------------------------------------------------------------
    def submit(self, spec: dict, tenant: str = DEFAULT_TENANT) -> QueryRecord:
        """Run one workload spec for ``tenant``; returns its record.

        The plan and its fingerprint come from the spec memo (built and
        hashed only on a memo miss), then run through
        :meth:`RheemContext.execute`: a plan-cache hit replays the
        cached execution plan, a miss optimizes the plan.

        Execution is synchronous: one query per tenant at a time (the
        session lock), concurrent across tenants (throttled by the
        shared slot pool).  :class:`ValidationError` propagates (HTTP
        400); execution failures land in the record as ``error``.
        """
        session = self.sessions.session(tenant)
        with self._queries_lock:
            self._next_query += 1
            record = QueryRecord(
                id=f"q{self._next_query}", tenant=tenant, spec=dict(spec)
            )
            self._queries[record.id] = record
        with session.lock:
            ctx = session.context
            tracer = Tracer()
            ctx.attach_tracer(tracer)
            started = time.perf_counter()
            try:
                plan, fingerprint = self._plan_for(ctx, spec)
                result = ctx.execute(plan, fingerprint=fingerprint)
                rows, metrics = result.single, result.metrics
            except ValidationError:
                with self._queries_lock:
                    del self._queries[record.id]
                raise
            except Exception as exc:  # noqa: BLE001 - reported per query
                record.wall_ms = (time.perf_counter() - started) * 1000.0
                record.status = "error"
                record.error = f"{type(exc).__name__}: {exc}"
                return record
            finally:
                ctx.attach_tracer(None)
            record.wall_ms = (time.perf_counter() - started) * 1000.0
            session.queries += 1
            self._finish(record, tenant, tracer, rows, metrics)
            return record

    def _plan_for(self, ctx: RheemContext,
                  spec: dict) -> tuple[LogicalPlan, str]:
        """``spec``'s logical plan, collect sink appended, and its
        fingerprint.

        Memoised by the spec's canonical JSON: the builders are pure
        functions of their spec, and the optimizer never changes the
        plan it is given, so one plan serves every repeat, across
        tenants and threads.  A spec that raises, or has no canonical
        form (NaN seeds hash by identity, so they never repeat), is
        built afresh each time and never memoised.
        """
        try:
            key = json.dumps(spec, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError):
            key = None
        if key is not None:
            memoised = self.spec_memo.get(key)
            if memoised is not None:
                return memoised
        handle = build_workload(ctx, spec)
        plan = handle.plan
        plan.add(CollectSink(), [handle.operator])
        memoised = (plan, logical_plan_fingerprint(plan))
        if key is not None:
            self.spec_memo.put(key, memoised)
        return memoised

    def _finish(self, record, tenant, tracer, rows, metrics) -> None:
        """Tenant-tag the run's accounting and fold it into the daemon."""
        entries = metrics.ledger.entries
        entries[:] = [replace(e, tenant=tenant) for e in entries]
        for span in tracer.spans:
            span.attributes.setdefault("tenant", tenant)
        requests = metrics.registry.counter("plan_cache_requests")
        outcome = "hit" if requests.value(result="hit") else "miss"
        self.registry.merge_from(tracer.registry,
                                 extra_labels={"tenant": tenant})
        self.registry.counter(
            "serve_queries", "queries served by outcome"
        ).inc(
            tenant=tenant,
            workload=str(record.spec.get("workload")),
            plan_cache=outcome,
        )
        record.status = "done"
        record.plan_cache = outcome
        record.rows = rows
        record.virtual_ms = metrics.virtual_ms
        record.ledger = [
            [e.label, e.ms, e.platform, e.atom_id, e.tenant]
            for e in entries
        ]
        record.span_names = [span.name for span in tracer.spans]
        record.enumeration_spans = sum(
            1 for name in record.span_names if name in _ENUMERATION_SPANS
        )

    def query(self, query_id: str) -> QueryRecord | None:
        with self._queries_lock:
            return self._queries.get(query_id)

    # ------------------------------------------------------------------
    # HTTP lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServingDaemon":
        """Bind and serve from a daemon thread; returns self."""
        if self._server is not None:
            return self
        server = self._Server((self.host, self._requested_port), _Handler)
        server.daemon = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and join the serving thread (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
        self._server = None
        self._thread = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
